// Binarized convolution layer (paper Sec. 3.2-3.4).
//
// Holds real-valued weights W; the forward pass uses their binarization
//   W~ = alpha_W * sign(W),              alpha_W = ||W||_1 / n   (Eq. 8-9)
// and binarizes its input
//   X~ = alpha_T (x) sign(X),            alpha_T per Eq. 14,
// computing T_out = alpha_W * (sign(X) (*) sign(W)) (.) alpha_T  (Eq. 15).
//
// Backward uses the straight-through estimator for the input (Eq. 10-11)
// and the paper's weight gradient (Eq. 13):
//   dl/dW = dl/dW~ * (1/n + alpha_W * 1_{|W|<1}).
// Scaling factors are treated as constants in the backward pass, following
// XNOR-Net practice and Algorithm 1.
//
// Two execution paths produce the same outputs (validated in tests):
//   kFloatSim - float arithmetic emulating binarization; used in training
//               and as the "full-precision framework running a BNN" cost
//               reference.
//   kPacked   - weights and activations packed into uint64 lanes, the
//               convolution reduced to XNOR + popcount; the deployment
//               path whose speedup Fig. 1 / Table 3 report.
//
// The packed path can also take the BatchNorm that precedes the conv in the
// Fig. 3 block as a BnFold (see core/binary_conv_block.h): the conv then
// reads the raw BN input, and the pack stage binarizes it with exact
// per-channel thresholds instead of sign(BN(x)).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "bitops/bit_planes.h"
#include "bitops/kernels/xnor_kernel.h"
#include "bitops/scaling.h"
#include "bitops/xnor_gemm.h"
#include "nn/module.h"
#include "tensor/conv.h"
#include "util/rng.h"

namespace hotspot::core {

enum class Backend { kFloatSim, kPacked };

// An inference-mode BatchNorm folded into the packed forward. `thresholds`
// (one per input channel) reproduce sign(BN(x)) bit for bit on the raw
// input x; `affine` is the same BN, from which the alpha_T input scales of
// BN(x) are computed without materializing it (bitops::*_affine). Both
// point into storage the caller keeps alive for the call.
struct BnFold {
  const bitops::BinarizeThreshold* thresholds = nullptr;
  bitops::ChannelAffine affine;
};

class BinaryConv2d : public nn::Module {
 public:
  BinaryConv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bitops::InputScaling scaling, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override;

  // Packed inference forward of conv(BN(input)) from the raw BN input, with
  // the BN given as `fold`. Output equals forward(bn.forward(input)) bit for
  // bit. Only valid in eval mode on the kPacked backend.
  Tensor forward_folded(const Tensor& input, const BnFold& fold);

  // Execution path used when not training (training always runs kFloatSim).
  void set_backend(Backend backend) { backend_ = backend; }
  Backend backend() const { return backend_; }

  // Drops the cached packed weights. Optimizer updates are tracked
  // automatically through the weight Parameter's version counter; this is
  // only needed by code that mutates the weight tensor directly without
  // bumping it (e.g. checkpoint loading).
  void invalidate_packed_cache() {
    packed_cache_.store(nullptr, std::memory_order_release);
  }
  // Invalidate only on an actual mode transition. The scan path calls
  // set_training(false) defensively before every batch; dropping the cache
  // unconditionally there forced a full filter re-pack (under the cache
  // mutex) per batch and grew the retired-snapshot list without bound over
  // a long scan. A no-op call must stay a no-op: the cache is already keyed
  // on the weight version for real weight changes, and training itself
  // never reads it (training forwards run float-sim).
  void set_training(bool training) override {
    if (training != training_) {
      invalidate_packed_cache();
    }
    nn::Module::set_training(training);
  }

  bitops::InputScaling scaling() const { return scaling_; }
  const tensor::ConvSpec& spec() const { return spec_; }
  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  nn::Parameter& weight() { return weight_; }

  // Roofline profiling (src/core/roofline.h). The model builder assigns a
  // stable per-instance span label ("brnn.conv.block1a", ...); while tracing
  // is enabled, every forward() opens a span under that label and counts the
  // samples it processed, so build_roofline() can join measured per-layer
  // time with the analytic cost model. With tracing disabled neither the
  // span nor the counter is touched.
  void set_span_label(std::string label) { span_label_ = std::move(label); }
  const std::string& span_label() const { return span_label_; }
  std::uint64_t profile_samples() const {
    return profile_samples_.load(std::memory_order_relaxed);
  }
  void reset_profile() {
    profile_samples_.store(0, std::memory_order_relaxed);
  }

 private:
  // Immutable snapshot of the packed filters, keyed on the weight version
  // and the XNOR kernel they were packed for. Published via an atomic
  // pointer (double-checked versioned publish): concurrent forward() calls
  // take one acquire load on the hot path and never contend on a lock;
  // the mutex is taken only to build a missing snapshot. Superseded
  // snapshots are retired, not freed, so a reader that loaded the old
  // pointer stays valid for the layer's lifetime (bounded by the number of
  // weight updates seen by packed inference, which is ~zero in practice —
  // training runs float-sim).
  struct PackedCache {
    std::uint64_t weight_version = 0;
    const bitops::XnorKernel* kernel = nullptr;
    bitops::BitMatrix filters;
    Tensor alpha_w;
  };

  Tensor forward_profiled(const Tensor& input, const BnFold* fold);
  Tensor forward_float_sim(const Tensor& input);
  Tensor forward_packed(const Tensor& input, const BnFold* fold);
  const PackedCache& refresh_packed_cache();

  std::int64_t in_channels_;
  std::int64_t out_channels_;
  tensor::ConvSpec spec_;
  bitops::InputScaling scaling_;
  Backend backend_ = Backend::kPacked;
  nn::Parameter weight_;
  std::string span_label_;
  std::atomic<std::uint64_t> profile_samples_{0};

  // Forward caches for backward (float-sim path only).
  Tensor cached_input_;
  Tensor cached_cols_;        // im2col(sign(X)), alpha-scaled in per-channel mode
  Tensor cached_alpha_;       // alpha_T map ([N,Cin,oh,ow] or [N,1,oh,ow])
  Tensor cached_weight_tilde_;  // [Cout, n] rows of alpha_W * sign(W)
  Tensor cached_alpha_w_;     // [Cout]

  // Packed-inference weight cache: filters are re-packed only after the
  // weights actually change (optimizer step or explicit invalidation) or
  // the active XNOR kernel changes (different row padding), not on every
  // forward call. See PackedCache for the publication protocol.
  std::atomic<const PackedCache*> packed_cache_{nullptr};
  std::mutex packed_cache_mutex_;
  std::vector<std::unique_ptr<const PackedCache>> packed_cache_storage_;
};

}  // namespace hotspot::core
