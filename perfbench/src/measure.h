// Measurement helpers shared by the benchmark's workloads: clocks,
// percentiles with a minimum-tail rule, process CPU and memory, the host
// fingerprint, the result line, and the seeded-checkpoint writer.
#pragma once

#include <chrono>
#include <memory>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/brnn.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Samples a reported percentile must have strictly beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

// Nearest-rank q-quantile (q in (0, 1]) of `samples`, or nothing when fewer
// than kMinTailSamples samples lie beyond it (so p50 needs 20 samples and
// p95 needs 200). Infinite samples (failed requests) sort last.
std::optional<double> tail_percentile(std::vector<double> samples, double q);

// Nearest-rank median; 0 for an empty vector. Always defined, since a
// median of 1 sample has no tail to justify.
double median(std::vector<double> samples);

// tail_percentile that must exist: a workload sized too small for the
// percentile it reports is a benchmark bug, so this throws with `what`.
double required_percentile(const std::vector<double>& samples, double q,
                           const std::string& what);

// User plus system CPU seconds of this process so far.
double process_cpu_seconds();

// Peak resident set of this process so far, MiB.
double peak_rss_mib();

// Share of the host's CPU time stolen by the hypervisor (other tenants)
// since construction, from /proc/stat; 0 where that is not readable.
class StealMeter {
 public:
  StealMeter();
  double share() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

// Steal share at or below which a timed block or ladder play counts as
// quiet: the hypervisor gave almost none of this host's CPU time to other
// tenants while it ran. Above it, a multi-threaded program loses whole
// time slices at random, and a serve schedule near capacity builds a
// backlog it cannot clear, so the sample measures the host, not the
// program.
inline constexpr double kQuietStealShare = 0.02;

// The values whose steal share (parallel to them) is quiet, when at least
// half of them are; otherwise the least-stolen half (ties keep order).
std::vector<double> quiet_values(const std::vector<double>& values,
                                 const std::vector<double>& steal_shares);

// The run's outcome line. `metrics` keeps insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;      // every failure, mismatches included
  std::int64_t mismatches = 0;  // wrong logits or labels
  std::vector<Metric> metrics;

  // A non-finite value (a p95 of a phase in which more than 5% of the
  // requests failed) is written as null; such a run has failures and so
  // does not pass().
  void add(const std::string& name, double value, const std::string& unit);
  bool correct() const { return mismatches == 0; }
  // Every output matched its reference and nothing failed.
  bool passed() const { return correct() && failed == 0; }
  // {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
  std::string json() const;
};

// JSON object of the host fingerprint: obs::collect_manifest plus CPU
// brand, AVX-512 VPOPCNTDQ/BITALG flags, nproc, pool threads and the
// active XNOR kernel. Results from hosts whose fingerprints differ are not
// comparable.
std::string host_fingerprint_json();

// Minimal ordered JSON object writer for the detail lines.
class JsonFields {
 public:
  JsonFields& num(const std::string& key, double value);
  JsonFields& str(const std::string& key, const std::string& value);
  JsonFields& raw(const std::string& key, const std::string& json);
  std::string json() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& name);
  std::string body_;
};

// Builds a BrnnModel for `config` with seeded weights, shifts its classifier
// bias so the calibration clips split between both labels at the median
// logit margin (an untrained network otherwise tends to answer one class,
// which would make the exact-label check vacuous), and saves it to `path`.
// Throws on a failed save.
void write_seeded_checkpoint(const hotspot::core::BrnnConfig& config,
                             std::uint64_t seed,
                             const hotspot::tensor::Tensor& calibration,
                             const std::string& path);

// A model loaded from `path` for inference on the default (packed) route.
// Throws when the checkpoint does not load.
std::unique_ptr<hotspot::core::BrnnModel> load_model(
    const hotspot::core::BrnnConfig& config, const std::string& path);

// Logits [n, classes] to argmax labels.
std::vector<int> argmax_labels(const hotspot::tensor::Tensor& logits);

// Rows of two [n, classes] logit tensors that are not bit-identical (a
// shape mismatch counts every row).
std::int64_t count_logit_mismatches(const hotspot::tensor::Tensor& got,
                                    const hotspot::tensor::Tensor& want);

// Count of positions where the labels differ (size mismatch counts all).
std::int64_t count_label_mismatches(const std::vector<int>& got,
                                    const std::vector<int>& want);

// Throws when every label is the same class: an exact-label check against
// a one-class reference proves nothing.
void require_both_classes(const std::vector<int>& labels,
                          const std::string& what);

}  // namespace perfbench
