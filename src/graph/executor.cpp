#include "graph/executor.h"

#include <atomic>
#include <string>

#include "bitops/scaling.h"
#include "bitops/xnor_gemm.h"
#include "core/packed_conv.h"
#include "graph/builder.h"
#include "graph/passes.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/parallel.h"

namespace hotspot::graph {

using tensor::Tensor;

const char* to_string(FusionMode mode) {
  switch (mode) {
    case FusionMode::kOff:
      return "off";
    case FusionMode::kGraph:
      return "graph";
    case FusionMode::kFused:
      return "fused";
  }
  return "?";
}

GraphExecutor::GraphExecutor(core::BrnnModel& model, FusionMode mode)
    : model_(&model), mode_(mode), graph_(build_graph(model)) {
  HOTSPOT_CHECK(mode != FusionMode::kOff)
      << "kOff means no executor; use install_executor";
  if (mode == FusionMode::kFused) {
    passes_ = run_fusion_pipeline(graph_);
  }
  samples_ = std::make_unique<std::atomic<std::uint64_t>[]>(graph_.size());
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    samples_[i].store(0, std::memory_order_relaxed);
  }
}

void GraphExecutor::reset_profile() {
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    samples_[i].store(0, std::memory_order_relaxed);
  }
}

const Tensor& GraphExecutor::value_of(int id, const Tensor& input,
                                      const std::vector<Tensor>& values,
                                      const std::vector<int>& alias) const {
  const int resolved =
      alias[static_cast<std::size_t>(id)] >= 0
          ? alias[static_cast<std::size_t>(id)]
          : id;
  return resolved == 0 ? input : values[static_cast<std::size_t>(resolved)];
}

void GraphExecutor::plan_if_stale() {
  if (mode_ != FusionMode::kFused) {
    return;
  }
  const bitops::XnorKernel* kern = &bitops::active_xnor_kernel();
  auto stale = [&] {
    for (std::size_t i = 0; i < graph_.size(); ++i) {
      const Op& op = graph_.node(static_cast<int>(i));
      if (op.kind == OpKind::kFusedBnBinaryConv &&
          (op.planned_kernel != kern ||
           op.planned_weight_version != op.conv->weight().version)) {
        return true;
      }
    }
    return false;
  };
  if (!stale()) {
    return;
  }
  const std::lock_guard<std::mutex> lock(plan_mutex_);
  if (stale()) {
    plan_pack_layouts(graph_);
  }
}

Tensor GraphExecutor::run(const Tensor& input) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  plan_if_stale();
  HOTSPOT_TRACE_SPAN("graph.execute");
  const auto batch = static_cast<std::uint64_t>(input.dim(0));
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    samples_[i].fetch_add(batch, std::memory_order_relaxed);
  }

  const int count = static_cast<int>(graph_.size());
  std::vector<Tensor> values(graph_.size());
  std::vector<bitops::BitPlanes> planes(graph_.size());
  // Binarize markers are pass-throughs (the conv they feed binarizes
  // internally); alias[id] points at the tensor a marker forwards.
  std::vector<int> alias(graph_.size(), -1);

  for (int id = 1; id < count; ++id) {
    const Op& op = graph_.node(id);
    switch (op.kind) {
      case OpKind::kInput:
        HOTSPOT_CHECK(false) << "input op after node 0";
        break;
      case OpKind::kBinarize: {
        const int src = op.inputs[0];
        alias[static_cast<std::size_t>(id)] =
            alias[static_cast<std::size_t>(src)] >= 0
                ? alias[static_cast<std::size_t>(src)]
                : src;
        break;
      }
      case OpKind::kBinaryConv:
        // Delegation: the exact module the chain runs, on the exact BN
        // output (reached through the marker).
        HOTSPOT_CHECK(op.module != nullptr) << "conv node without payload";
        values[static_cast<std::size_t>(id)] =
            op.module->forward(value_of(op.inputs[0], input, values, alias));
        break;
      case OpKind::kFusedBnBinaryConv: {
        const Op& producer =
            graph_.node(op.inputs[0]);
        const bool bits_in = producer.kind == OpKind::kFusedBnBinaryConv &&
                             producer.emit_bits;
        const Tensor* x =
            bits_in ? nullptr
                    : &value_of(op.inputs[0], input, values, alias);
        const bitops::BitPlanes* in_bits =
            bits_in ? &planes[static_cast<std::size_t>(op.inputs[0])]
                    : nullptr;
        bitops::BitPlanes* out_bits =
            op.emit_bits ? &planes[static_cast<std::size_t>(id)] : nullptr;
        // Same span + sample protocol as BinaryConv2d::forward, so the
        // roofline join and timelines keep working per conv label.
        if (!op.conv->span_label().empty() && obs::trace_enabled()) {
          obs::TraceSpan span(op.conv->span_label());
          values[static_cast<std::size_t>(id)] =
              exec_fused(op, x, in_bits, out_bits);
        } else {
          values[static_cast<std::size_t>(id)] =
              exec_fused(op, x, in_bits, out_bits);
        }
        break;
      }
      case OpKind::kAdd: {
        obs::TraceSpan span(op.name);
        values[static_cast<std::size_t>(id)] =
            tensor::add(value_of(op.inputs[0], input, values, alias),
                        value_of(op.inputs[1], input, values, alias));
        break;
      }
      case OpKind::kBatchNorm:
      case OpKind::kMaxPool:
      case OpKind::kGlobalAvgPool:
      case OpKind::kLinear: {
        HOTSPOT_CHECK(op.module != nullptr)
            << "delegated node without payload";
        obs::TraceSpan span(op.name);
        values[static_cast<std::size_t>(id)] =
            op.module->forward(value_of(op.inputs[0], input, values, alias));
        break;
      }
    }
  }
  return values[static_cast<std::size_t>(graph_.output_id())];
}

Tensor GraphExecutor::exec_fused(const Op& op, const Tensor* x,
                                 const bitops::BitPlanes* in_bits,
                                 bitops::BitPlanes* out_bits) {
  core::BinaryConv2d& conv = *op.conv;
  const tensor::ConvSpec& spec = conv.spec();
  const bitops::XnorKernel& kern = bitops::active_xnor_kernel();
  const std::int64_t n = x != nullptr ? x->dim(0) : in_bits->batch();
  const std::int64_t in_h = x != nullptr ? x->dim(2) : in_bits->height();
  const std::int64_t in_w = x != nullptr ? x->dim(3) : in_bits->width();
  const std::int64_t out_h =
      tensor::conv_out_extent(in_h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w =
      tensor::conv_out_extent(in_w, spec.kernel_w, spec.stride, spec.pad);
  const std::int64_t positions = out_h * out_w;
  const std::int64_t out_channels = conv.out_channels();
  const bitops::ChannelAffine affine{op.bn_mean.data(), op.bn_inv_std.data(),
                                     op.bn_gamma.data(), op.bn_beta.data()};

  if (conv.scaling() == bitops::InputScaling::kPerChannel) {
    HOTSPOT_CHECK(x != nullptr) << "per-channel fusion needs float input";
    bitops::BitPlanes bits;
    Tensor alpha_t;
    {
      HOTSPOT_TRACE_SPAN("binary_conv.pack");
      bits = bitops::BitPlanes(*x, op.thresholds.data());
      alpha_t = bitops::input_scales_per_channel_affine(*x, spec, affine);
    }
    Tensor output({n, out_channels, out_h, out_w});
    HOTSPOT_TRACE_SPAN(kern.gemm_span);
    core::direct_conv_per_channel(kern, bits, spec, op.filters, alpha_t,
                                  op.alpha_w, output);
    return output;
  }

  // Dense layout (kScalar / kNone).
  bitops::BitMatrix patches;
  {
    HOTSPOT_TRACE_SPAN("binary_conv.pack");
    if (in_bits != nullptr) {
      patches = bitops::pack_patches(*in_bits, spec);
    } else {
      const bitops::BitPlanes bits(*x, op.thresholds.data());
      patches = bitops::pack_patches(bits, spec);
    }
  }
  Tensor counts;
  {
    HOTSPOT_TRACE_SPAN(kern.gemm_span);
    counts = bitops::xnor_gemm(patches, op.filters);
  }

  if (out_bits != nullptr) {
    // Integer-threshold emission: the count compares against the folded
    // bound and the bit goes straight into the consumer's planes — no float
    // epilogue, no sign pass, no tensor.
    HOTSPOT_TRACE_SPAN("binary_conv.emit_bits");
    *out_bits = bitops::BitPlanes(n, out_channels, out_h, out_w);
    const float* count_data = counts.data();
    util::parallel_for(
        0, n * out_channels, /*grain=*/1,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t plane = lo; plane < hi; ++plane) {
            const std::int64_t ni = plane / out_channels;
            const std::int64_t co = plane % out_channels;
            // float(bound) is exact (|bound| <= patch bits + 1), so the
            // float compare equals the integer compare on integer counts.
            const float bound = static_cast<float>(
                op.emit_bounds[static_cast<std::size_t>(co)]);
            const std::uint64_t flip =
                op.emit_flips[static_cast<std::size_t>(co)];
            for (std::int64_t y = 0; y < out_h; ++y) {
              std::uint64_t* bm = out_bits->row(plane, y);
              const float* row = count_data +
                                 (ni * positions + y * out_w) * out_channels +
                                 co;
              for (std::int64_t col = 0; col < out_w; ++col) {
                bm[col >> 6] |=
                    (std::uint64_t{row[col * out_channels] >= bound} ^ flip)
                    << (col & 63);
              }
            }
          }
        });
    return Tensor();
  }

  HOTSPOT_TRACE_SPAN("binary_conv.unpack");
  Tensor output({n, out_channels, out_h, out_w});
  Tensor alpha;
  if (conv.scaling() == bitops::InputScaling::kScalar) {
    HOTSPOT_CHECK(x != nullptr) << "scalar fusion needs float input";
    alpha = bitops::input_scales_scalar_affine(*x, spec, affine);
  }
  core::packed_conv_epilogue(counts, op.alpha_w,
                             alpha.numel() > 0 ? &alpha : nullptr,
                             out_channels, output);
  return output;
}

std::shared_ptr<GraphExecutor> install_executor(core::BrnnModel& model,
                                                FusionMode mode) {
  if (mode == FusionMode::kOff) {
    model.set_forward_override({});
    return nullptr;
  }
  auto executor = std::make_shared<GraphExecutor>(model, mode);
  model.set_forward_override(
      [executor](const Tensor& input) { return executor->run(input); });
  return executor;
}

}  // namespace hotspot::graph
