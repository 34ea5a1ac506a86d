#include <string>

#include "core/cost_model.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace hs = hotspot;

hs::tensor::Tensor timed_layer_forward(hs::core::BrnnModel& model,
                                       const hs::tensor::Tensor& input,
                                       LayerMetrics& layers) {
  const std::vector<std::string>& labels = model.layer_labels();
  hs::tensor::Tensor current = input;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const Clock::time_point start = Clock::now();
    current = model.net().at(i).forward(current);
    const std::string metric = core_layer_metric(labels[i]);
    layers.set(metric,
               layers.get(metric) + seconds_between(start, Clock::now()));
  }
  return current;
}

void read_bitops_spans(const hs::core::BrnnConfig& config, std::int64_t clips,
                       LayerMetrics& layers) {
  const hs::obs::SpanReport report = hs::obs::collect_span_report();
  double pack = 0.0;
  double gemm = 0.0;
  double unpack = 0.0;
  for (const auto& [name, stat] : report.spans) {
    if (name == "binary_conv.pack") {
      pack += stat.total_seconds;
    } else if (name.rfind("binary_conv.gemm.", 0) == 0) {
      gemm += stat.total_seconds;
    } else if (name == "binary_conv.unpack") {
      unpack += stat.total_seconds;
    }
  }
  layers.set("bitops.pack_s", pack);
  layers.set("bitops.gemm_s", gemm);
  layers.set("bitops.unpack_s", unpack);
  const double conv = pack + gemm + unpack;
  layers.set("bitops.pack_share", conv > 0.0 ? pack / conv : 0.0);
  const hs::core::NetworkCost cost = hs::core::network_cost(config);
  layers.set("bitops.gemm_gops",
             gemm > 0.0 ? static_cast<double>(cost.float_macs) *
                              static_cast<double>(clips) / gemm / 1e9
                        : 0.0);
  // Computed, not measured: operand bytes the packed kernels touch per clip
  // with no cache reuse (an activation word and a filter word per XNOR
  // word-op, a float per epilogue op), plus the packed filters once.
  layers.set("bitops.bytes_per_clip",
             static_cast<double>(cost.packed_word_ops) * 16.0 +
                 static_cast<double>(cost.packed_float_ops) * 4.0 +
                 static_cast<double>(cost.packed_weight_bytes));
}

}  // namespace perfbench
