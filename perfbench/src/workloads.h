// The three workloads of the benchmark of record, and the metric names
// every run reports. See README.md in this directory for why each workload
// exists and what each metric means on it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "measure.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir;  // where checkpoints are written, inside the checkout
};

// The end-to-end metrics an untraced run reports, in this order. The result
// line carries every one on every workload; where a figure is not native to
// the workload it is derived from the same timed phase (README.md), never
// from a phase of its own.
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double cpu_ms_per_item = 0.0;
  double clips_per_s = 0.0;
  double windows_per_s = 0.0;
  double max_rps = 0.0;

  void report(Result& result) const;
};

// The per-layer metrics a traced run reports: a fixed list of (name, unit),
// every one on every workload; a layer a workload does not exercise reads 0.
class LayerMetrics {
 public:
  LayerMetrics();
  // Throws on a name outside the fixed list.
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  void report(Result& result) const;

 private:
  static const std::vector<std::pair<std::string, std::string>>& names();

  std::map<std::string, double> values_;
};

// Layer labels of BrnnModel::layer_labels() ("brnn.layer.stem", ...) as
// per-layer metric names ("core.layer.stem_s").
std::string core_layer_metric(const std::string& label);

// The model's forward pass run as net().at(i).forward in order, adding each
// top-level layer's wall time to its core.layer.* metric. Bit-identical to
// BrnnModel::forward on the module chain.
hotspot::tensor::Tensor timed_layer_forward(hotspot::core::BrnnModel& model,
                                            const hotspot::tensor::Tensor& input,
                                            LayerMetrics& layers);

// Reads the program's binary_conv.{pack,gemm.<kernel>,unpack} span
// aggregates (collected while obs tracing is on) into bitops.pack_s,
// gemm_s, unpack_s and pack_share, and derives bitops.gemm_gops from
// core::network_cost binary MACs for `clips` clips of `config`, plus the
// computed bitops.bytes_per_clip.
void read_bitops_spans(const hotspot::core::BrnnConfig& config,
                       std::int64_t clips, LayerMetrics& layers);

// Width of the program's thread pool in every workload: half the host's
// CPUs (two on a 4-vCPU host), not the pool's default of all of them. A
// pool as wide as the host loses a whole time slice at every barrier
// whenever another tenant takes one of the CPUs: in interleaved runs on a
// shared 4-vCPU VM, offline_paper128's rate spread over a fifth of its
// median at four threads and over 7% at two. serve_mixed's connection and
// client threads also need CPUs of their own.
inline int pool_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);
}

// Median of `repeats` timed runs of `setup`, in seconds.
template <typename Fn>
double median_setup_seconds(int repeats, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(seconds_between(start, Clock::now()));
  }
  return median(times);
}

inline constexpr int kSetupRepeats = 31;

// Seconds left for a throughput phase: what remains of --seconds after the
// phases before it, but at least 30% of it, so a slow host stretches a run
// by at most that share.
inline double throughput_budget(const Options& options,
                                Clock::time_point measure_start) {
  return std::max(
      options.seconds - seconds_between(measure_start, Clock::now()),
      0.3 * options.seconds);
}

// Throughput over `budget_s` seconds in kRateBlocks equal blocks; `step`
// does one unit of work and returns the items it completed. Reports the
// median rate and CPU time per item over the blocks during which other
// tenants took (almost) none of the host's CPUs (quiet_values): the work
// of every block is the same, so an episode of steal that spans part of the
// run leaves the result alone, and the median keeps the luck of a single
// fast block out of it.
inline constexpr int kRateBlocks = 10;

struct RateSummary {
  double per_s = 0.0;
  double cpu_ms_per_item = 0.0;
  std::int64_t items = 0;
  double wall_s = 0.0;
  int quiet_blocks = 0;  // blocks at or below kQuietStealShare
};

template <typename Fn>
RateSummary block_rate(double budget_s, Fn&& step) {
  std::vector<double> rates;
  std::vector<double> cpu_ms;
  std::vector<double> steal;
  RateSummary summary;
  const Clock::time_point start = Clock::now();
  for (int block = 0; block < kRateBlocks; ++block) {
    std::int64_t items = 0;
    const StealMeter meter;
    const Clock::time_point block_start = Clock::now();
    const double cpu_start = process_cpu_seconds();
    do {
      items += step();
    } while (seconds_between(block_start, Clock::now()) <
             budget_s / kRateBlocks);
    rates.push_back(static_cast<double>(items) /
                    seconds_between(block_start, Clock::now()));
    cpu_ms.push_back((process_cpu_seconds() - cpu_start) * 1e3 /
                     static_cast<double>(items));
    steal.push_back(meter.share());
    summary.items += items;
    summary.quiet_blocks += steal.back() <= kQuietStealShare ? 1 : 0;
  }
  summary.wall_s = seconds_between(start, Clock::now());
  summary.per_s = median(quiet_values(rates, steal));
  summary.cpu_ms_per_item = median(quiet_values(cpu_ms, steal));
  return summary;
}

// Each workload prints its detail lines (measured input properties, serve
// ladder steps) and returns the result; the caller prints the host
// fingerprint and then the result line, last.
Result run_offline_paper128(const Options& options);
Result run_scan_tiled(const Options& options);
Result run_serve_mixed(const Options& options);

}  // namespace perfbench
