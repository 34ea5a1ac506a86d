#include <stdexcept>

#include "workloads.h"

namespace perfbench {

void EndToEnd::report(Result& result) const {
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mb, "MiB");
  result.add("cpu_ms_per_item", cpu_ms_per_item, "ms");
  result.add("clips_per_s", clips_per_s, "1/s");
  result.add("windows_per_s", windows_per_s, "1/s");
  result.add("max_rps", max_rps, "1/s");
}

namespace {

std::vector<std::pair<std::string, std::string>> build_names() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"core.infer_s", "s"},
      {"core.infer_calls", "count"},
      {"core.clips_per_call", "count"},
  };
  for (const char* label : {"stem", "stem_pool", "block1", "block2", "block3",
                            "block4", "block5", "head_bn", "head_pool",
                            "head_fc"}) {
    names.emplace_back(std::string("core.layer.") + label + "_s", "s");
  }
  names.insert(names.end(), {
      {"core.unattributed_s", "s"},
      {"bitops.pack_s", "s"},
      {"bitops.gemm_s", "s"},
      {"bitops.unpack_s", "s"},
      {"bitops.pack_share", "ratio"},
      {"bitops.gemm_gops", "Gop/s"},
      {"bitops.bytes_per_clip", "B"},
      {"layout.raster_us_per_window", "us"},
      {"scan.windows", "count"},
      {"scan.unique_windows", "count"},
      {"scan.dedup_hit_rate", "ratio"},
      {"scan.batches", "count"},
      {"scan.batch_fill", "ratio"},
      {"scan.retries", "count"},
      {"scan.quarantined", "count"},
      {"scan.producer_s", "s"},
      {"scan.classifier_s", "s"},
      {"scan.consumer_wait_s", "s"},
  });
  for (const char* phase : {"low", "high"}) {
    for (const char* stage :
         {"decode", "queue", "batch_wait", "infer", "encode"}) {
      for (const char* q : {"p50", "p95"}) {
        names.emplace_back(std::string("serve.") + stage + "_ms." + q + "." +
                               phase,
                           "ms");
      }
    }
  }
  for (const char* phase : {"low", "high"}) {
    for (const char* q : {"p50", "p95"}) {
      names.emplace_back(std::string(q) + "_ms." + phase, "ms");
    }
  }
  names.insert(names.end(), {
      {"serve.transport_ms", "ms"},
      {"serve.requests_per_batch", "count"},
      {"serve.clips_per_batch", "count"},
      {"serve.shed", "count"},
      {"serve.rejects", "count"},
      {"serve.swap_s", "s"},
      {"serve.swap_p95_ms", "ms"},
  });
  for (const char* phase : {"low", "high"}) {
    for (const char* what : {"sent", "completed", "failed"}) {
      names.emplace_back(std::string("loadgen.") + what + "." + phase,
                         "count");
    }
  }
  names.insert(names.end(), {
      {"loadgen.late_ms_p95", "ms"},
      {"input.clip_density", "ratio"},
      {"input.distinct_rasters", "count"},
      {"input.dedup_hit_share", "ratio"},
      {"input.bulk_share", "ratio"},
      {"input.mean_clips_per_request", "count"},
      {"input.offered_rps.low", "1/s"},
      {"input.offered_rps.high", "1/s"},
      {"failed_share", "ratio"},
      {"unattributed_s", "s"},
      {"unattributed_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  });
  return names;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetrics::names() {
  static const std::vector<std::pair<std::string, std::string>> names =
      build_names();
  return names;
}

LayerMetrics::LayerMetrics() {
  for (const auto& [name, unit] : names()) {
    values_[name] = 0.0;
  }
}

void LayerMetrics::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("unknown per-layer metric " + name);
  }
  it->second = value;
}

double LayerMetrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("unknown per-layer metric " + name);
  }
  return it->second;
}

void LayerMetrics::report(Result& result) const {
  for (const auto& [name, unit] : names()) {
    result.add(name, values_.at(name), unit);
  }
}

std::string core_layer_metric(const std::string& label) {
  const std::string prefix = "brnn.layer.";
  const std::string base = label.rfind(prefix, 0) == 0
                               ? label.substr(prefix.size())
                               : label;
  return "core.layer." + base + "_s";
}

}  // namespace perfbench
