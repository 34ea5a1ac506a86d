#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bitops/kernels/xnor_kernel.h"
#include "nn/linear_layer.h"
#include "nn/serialize.h"
#include "obs/manifest.h"
#include "tensor/tensor_ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

namespace {

std::size_t nearest_rank_index(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return std::min(index, n - 1);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// All digits of a measured value; JSON has no literal for a non-finite one.
std::string format_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

struct CpuFeatures {
  std::string brand = "unknown";
  bool avx512_vpopcntdq = false;
  bool avx512_bitalg = false;
};

CpuFeatures cpu_features() {
  CpuFeatures features;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    features.avx512_bitalg = (ecx & (1u << 12)) != 0;
    features.avx512_vpopcntdq = (ecx & (1u << 14)) != 0;
  }
  if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) != 0 &&
      eax >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      unsigned regs[4] = {};
      __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + leaf * 16, regs, sizeof(regs));
    }
    std::string text(brand);
    const auto first = text.find_first_not_of(' ');
    const auto last = text.find_last_not_of(' ');
    if (first != std::string::npos) {
      features.brand = text.substr(first, last - first + 1);
    }
  }
#endif
  return features;
}

}  // namespace

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0) || q > 1.0) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t index = nearest_rank_index(samples.size(), q);
  if (samples.size() - index - 1 < kMinTailSamples) {
    return std::nullopt;
  }
  return samples[index];
}

double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank_index(samples.size(), 0.5)];
}

std::vector<double> quiet_values(const std::vector<double>& values,
                                 const std::vector<double>& steal_shares) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal_shares[a] < steal_shares[b];
                   });
  const std::size_t half = (values.size() + 1) / 2;
  std::size_t keep = 0;
  while (keep < order.size() && steal_shares[order[keep]] <= kQuietStealShare) {
    ++keep;
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < std::max(keep, half); ++i) {
    out.push_back(values[order[i]]);
  }
  return out;
}

double required_percentile(const std::vector<double>& samples, double q,
                           const std::string& what) {
  const std::optional<double> value = tail_percentile(samples, q);
  if (!value.has_value()) {
    throw std::runtime_error(what + ": " + std::to_string(samples.size()) +
                             " samples cannot support p" +
                             std::to_string(static_cast<int>(q * 100.0)));
  }
  return *value;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// Steal and total jiffies of the "cpu" line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> read_cpu_jiffies() {
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) {
    return {0, 0};
  }
  std::uint64_t fields[8] = {};
  const int got = std::fscanf(
      file,
      "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
      " %" SCNu64 " %" SCNu64 " %" SCNu64,
      &fields[0], &fields[1],
      &fields[2], &fields[3], &fields[4], &fields[5], &fields[6], &fields[7]);
  std::fclose(file);
  if (got != 8) {
    return {0, 0};
  }
  std::uint64_t total = 0;
  for (const std::uint64_t field : fields) {
    total += field;
  }
  return {fields[7], total};
}

}  // namespace

StealMeter::StealMeter() { std::tie(steal_, total_) = read_cpu_jiffies(); }

double StealMeter::share() const {
  const auto [steal, total] = read_cpu_jiffies();
  return total > total_ ? static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0.0;
}

void JsonFields::key(const std::string& name) {
  if (!body_.empty()) {
    body_ += ",";
  }
  body_ += '"';
  body_ += json_escape(name);
  body_ += "\":";
}

JsonFields& JsonFields::num(const std::string& name, double value) {
  key(name);
  body_ += format_number(value);
  return *this;
}

JsonFields& JsonFields::str(const std::string& name, const std::string& value) {
  key(name);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonFields& JsonFields::raw(const std::string& name, const std::string& json) {
  key(name);
  body_ += json;
  return *this;
}

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

std::string Result::json() const {
  JsonFields metric_fields;
  for (const Metric& metric : metrics) {
    JsonFields fields;
    if (std::isfinite(metric.value)) {
      fields.num("value", metric.value);
    } else {
      fields.raw("value", "null");
    }
    metric_fields.raw(metric.name, fields.str("unit", metric.unit).json());
  }
  return JsonFields()
      .raw("correct", correct() ? "true" : "false")
      .raw("attempted", std::to_string(attempted))
      .raw("failed", std::to_string(failed))
      .raw("metrics", metric_fields.json())
      .json();
}

std::string host_fingerprint_json() {
  const CpuFeatures cpu = cpu_features();
  return JsonFields()
      .raw("manifest",
           hotspot::obs::manifest_json(hotspot::obs::collect_manifest()))
      .str("cpu_brand", cpu.brand)
      .raw("avx512_vpopcntdq", cpu.avx512_vpopcntdq ? "true" : "false")
      .raw("avx512_bitalg", cpu.avx512_bitalg ? "true" : "false")
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .num("threads", hotspot::util::parallel_threads())
      .str("xnor_kernel", hotspot::bitops::active_xnor_kernel().name)
      .json();
}

void write_seeded_checkpoint(const hotspot::core::BrnnConfig& config,
                             std::uint64_t seed,
                             const hotspot::tensor::Tensor& calibration,
                             const std::string& path) {
  hotspot::util::Rng rng(seed);
  hotspot::core::BrnnModel model(config, rng);
  model.set_training(false);
  model.set_backend(hotspot::core::Backend::kPacked);
  const hotspot::tensor::Tensor logits = model.forward(calibration);
  std::vector<double> margins;
  for (std::int64_t i = 0; i < logits.dim(0); ++i) {
    margins.push_back(static_cast<double>(logits.at({i, 1})) -
                      static_cast<double>(logits.at({i, 0})));
  }
  // Centre the margin between the two middle calibration clips so neither
  // sits exactly on the decision boundary.
  std::sort(margins.begin(), margins.end());
  const std::size_t mid = margins.size() / 2;
  const double centre =
      margins.size() >= 2 ? 0.5 * (margins[mid - 1] + margins[mid])
                          : margins.front();
  auto& head = dynamic_cast<hotspot::nn::Linear&>(
      model.net().at(model.net().size() - 1));
  head.bias().value[1] -= static_cast<float>(centre);
  const hotspot::nn::SaveResult saved =
      hotspot::nn::save_checkpoint(path, model);
  if (!saved.ok()) {
    throw std::runtime_error("saving " + path + ": " + saved.message);
  }
}

std::unique_ptr<hotspot::core::BrnnModel> load_model(
    const hotspot::core::BrnnConfig& config, const std::string& path) {
  // The constructor's init is overwritten by the strict checkpoint load.
  hotspot::util::Rng rng(0);
  auto model = std::make_unique<hotspot::core::BrnnModel>(config, rng);
  const hotspot::nn::LoadResult loaded =
      hotspot::nn::load_checkpoint(path, *model);
  if (!loaded.ok()) {
    throw std::runtime_error("loading " + path + ": " + loaded.message);
  }
  model->set_training(false);
  model->set_backend(hotspot::core::Backend::kPacked);
  return model;
}

std::vector<int> argmax_labels(const hotspot::tensor::Tensor& logits) {
  const auto argmax = hotspot::tensor::argmax_rows(logits);
  return std::vector<int>(argmax.begin(), argmax.end());
}

std::int64_t count_logit_mismatches(const hotspot::tensor::Tensor& got,
                                    const hotspot::tensor::Tensor& want) {
  if (got.shape() != want.shape() || got.rank() != 2) {
    return std::max<std::int64_t>(got.rank() > 0 ? got.dim(0) : 0,
                                  want.rank() > 0 ? want.dim(0) : 0);
  }
  const std::int64_t cols = got.dim(1);
  std::int64_t mismatches = 0;
  for (std::int64_t row = 0; row < got.dim(0); ++row) {
    mismatches += std::memcmp(got.data() + row * cols, want.data() + row * cols,
                              sizeof(float) * static_cast<std::size_t>(cols)) != 0
                      ? 1
                      : 0;
  }
  return mismatches;
}

std::int64_t count_label_mismatches(const std::vector<int>& got,
                                    const std::vector<int>& want) {
  if (got.size() != want.size()) {
    return static_cast<std::int64_t>(std::max(got.size(), want.size()));
  }
  std::int64_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    mismatches += got[i] != want[i] ? 1 : 0;
  }
  return mismatches;
}

void require_both_classes(const std::vector<int>& labels,
                          const std::string& what) {
  const bool has0 = std::find(labels.begin(), labels.end(), 0) != labels.end();
  const bool has1 = std::find(labels.begin(), labels.end(), 1) != labels.end();
  if (!has0 || !has1) {
    throw std::runtime_error(what +
                             ": reference labels are all one class, so the "
                             "exact-label check would prove nothing");
  }
}

}  // namespace perfbench
