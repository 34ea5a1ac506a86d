#include "core/binary_conv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "obs/metrics.h"
#include "tensor/tensor_ops.h"

namespace hotspot::core {
namespace {

using bitops::InputScaling;
using tensor::Tensor;

// Slow direct implementation of Eq. 15 used as the specification the layer
// is checked against: out(co,p) = alpha_W(co) * sum_c alpha(c,p) *
// sum_k sign(x)(c,k,p) * sign(w)(co,c,k), with -1 padding.
Tensor reference_forward(const Tensor& x, const Tensor& w,
                         const tensor::ConvSpec& spec, InputScaling mode) {
  const std::int64_t n = x.dim(0);
  const std::int64_t cin = x.dim(1);
  const std::int64_t h = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t cout = w.dim(0);
  const std::int64_t oh =
      tensor::conv_out_extent(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t ow =
      tensor::conv_out_extent(width, spec.kernel_w, spec.stride, spec.pad);
  const Tensor alpha_w = bitops::weight_scales(w);
  Tensor alpha;
  if (mode == InputScaling::kPerChannel) {
    alpha = bitops::input_scales_per_channel(x, spec);
  } else if (mode == InputScaling::kScalar) {
    alpha = bitops::input_scales_scalar(x, spec);
  }
  Tensor out({n, cout, oh, ow});
  for (std::int64_t ni = 0; ni < n; ++ni)
    for (std::int64_t co = 0; co < cout; ++co)
      for (std::int64_t oy = 0; oy < oh; ++oy)
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (std::int64_t ci = 0; ci < cin; ++ci) {
            double dot = 0.0;
            for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky)
              for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
                const std::int64_t iy = oy * spec.stride - spec.pad + ky;
                const std::int64_t ix = ox * spec.stride - spec.pad + kx;
                const double sx = (iy < 0 || iy >= h || ix < 0 || ix >= width)
                                      ? -1.0
                                      : (x.at4(ni, ci, iy, ix) >= 0 ? 1 : -1);
                const double sw = w.at4(co, ci, ky, kx) >= 0 ? 1.0 : -1.0;
                dot += sx * sw;
              }
            double a = 1.0;
            if (mode == InputScaling::kPerChannel) {
              a = static_cast<double>(alpha.at4(ni, ci, oy, ox));
            } else if (mode == InputScaling::kScalar) {
              a = static_cast<double>(alpha.at4(ni, 0, oy, ox));
            }
            acc += a * dot;
          }
          out.at4(ni, co, oy, ox) =
              static_cast<float>(acc * static_cast<double>(alpha_w[co]));
        }
  return out;
}

class ScalingModeTest : public ::testing::TestWithParam<InputScaling> {};

TEST_P(ScalingModeTest, FloatSimMatchesEq15Reference) {
  util::Rng rng(1);
  BinaryConv2d conv(3, 4, 3, 1, 1, GetParam(), rng);
  conv.set_training(true);
  const Tensor x = Tensor::normal({2, 3, 6, 6}, rng, 0.0f, 0.8f);
  const Tensor got = conv.forward(x);
  const Tensor want =
      reference_forward(x, conv.weight().value, conv.spec(), GetParam());
  EXPECT_TRUE(tensor::allclose(got, want, 1e-3))
      << "max diff " << tensor::max_abs_diff(got, want);
}

TEST_P(ScalingModeTest, PackedMatchesFloatSim) {
  util::Rng rng(2);
  BinaryConv2d conv(4, 5, 3, 2, 1, GetParam(), rng);
  const Tensor x = Tensor::normal({2, 4, 8, 8}, rng, 0.0f, 0.8f);
  conv.set_training(true);
  const Tensor float_out = conv.forward(x);
  conv.set_training(false);
  conv.set_backend(Backend::kPacked);
  const Tensor packed_out = conv.forward(x);
  EXPECT_TRUE(tensor::allclose(packed_out, float_out, 1e-3))
      << "max diff " << tensor::max_abs_diff(packed_out, float_out);
}

TEST_P(ScalingModeTest, OneByOneKernelAgrees) {
  util::Rng rng(3);
  BinaryConv2d conv(3, 2, 1, 2, 0, GetParam(), rng);
  const Tensor x = Tensor::normal({1, 3, 6, 6}, rng, 0.0f, 0.8f);
  conv.set_training(true);
  const Tensor float_out = conv.forward(x);
  conv.set_training(false);
  const Tensor packed_out = conv.forward(x);
  EXPECT_TRUE(tensor::allclose(packed_out, float_out, 1e-3));
}

INSTANTIATE_TEST_SUITE_P(Modes, ScalingModeTest,
                         ::testing::Values(InputScaling::kPerChannel,
                                           InputScaling::kScalar,
                                           InputScaling::kNone),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case InputScaling::kPerChannel:
                               return "PerChannel";
                             case InputScaling::kScalar:
                               return "Scalar";
                             default:
                               return "None";
                           }
                         });

TEST(BinaryConv, OutputInvariantToInputMagnitudeWithoutScaling) {
  // With kNone, only input signs matter: scaling the input leaves the
  // output unchanged — the defining property of binarized activations.
  util::Rng rng(4);
  BinaryConv2d conv(2, 3, 3, 1, 1, InputScaling::kNone, rng);
  conv.set_training(true);
  const Tensor x = Tensor::normal({1, 2, 5, 5}, rng, 0.0f, 1.0f);
  const Tensor scaled = tensor::scale(x, 7.5f);
  EXPECT_TRUE(
      tensor::allclose(conv.forward(x), conv.forward(scaled), 1e-4));
}

TEST(BinaryConv, WeightGradFollowsEq13Structure) {
  // Eq. 13: dl/dW = dl/dW~ * (1/n + alpha_W * 1_{|W|<1}). Verify the STE
  // part by comparing gradients at weights inside vs outside the clip
  // region: for |W| >= 1 the gradient collapses to the 1/n term.
  util::Rng rng(5);
  BinaryConv2d conv(1, 1, 3, 1, 1, InputScaling::kNone, rng);
  conv.set_training(true);
  // Put one weight far outside [-1, 1].
  conv.weight().value[0] = 5.0f;
  conv.weight().value[1] = 0.5f;
  const Tensor x = Tensor::normal({1, 1, 4, 4}, rng, 0.0f, 0.8f);
  const Tensor out = conv.forward(x);
  conv.zero_grad();
  conv.backward(Tensor::ones(out.shape()));
  // dl/dW~ for both weights has the same *form*; the saturated weight's
  // gradient must be the unsaturated one scaled by (1/n) /
  // (1/n + alpha_W) if dl/dW~ matched. Check the structural part: the
  // saturated weight still receives a nonzero (1/n) alpha-path gradient.
  EXPECT_NE(conv.weight().grad[0], 0.0f);
}

TEST(BinaryConv, InputGradZeroWhereSaturated) {
  // Eq. 10-11: no gradient flows to inputs with |x| >= 1.
  util::Rng rng(6);
  BinaryConv2d conv(1, 2, 3, 1, 1, InputScaling::kNone, rng);
  conv.set_training(true);
  Tensor x({1, 1, 3, 3}, 0.5f);
  x[4] = 3.0f;  // saturated centre
  const Tensor out = conv.forward(x);
  conv.zero_grad();
  const Tensor gx = conv.backward(Tensor::ones(out.shape()));
  EXPECT_EQ(gx[4], 0.0f);
  // At least one unsaturated input receives gradient.
  EXPECT_GT(tensor::l1_norm(gx), 0.0);
}

TEST(BinaryConv, PackedCacheInvalidatedByTraining) {
  util::Rng rng(7);
  BinaryConv2d conv(2, 2, 3, 1, 1, InputScaling::kScalar, rng);
  const Tensor x = Tensor::normal({1, 2, 4, 4}, rng, 0.0f, 0.8f);
  conv.set_training(false);
  const Tensor before = conv.forward(x);
  // Mutate weights as an optimizer step would (after a backward).
  conv.set_training(true);
  conv.forward(x);
  conv.backward(Tensor::ones(before.shape()));
  for (std::int64_t i = 0; i < conv.weight().value.numel(); ++i) {
    conv.weight().value[i] = -conv.weight().value[i];
  }
  conv.set_training(false);
  const Tensor after = conv.forward(x);
  EXPECT_GT(tensor::max_abs_diff(before, after), 1e-3)
      << "stale packed weights were reused";
}

TEST(BinaryConv, RedundantEvalCallsDoNotRepack) {
  // The scan path calls set_training(false) defensively before every batch.
  // A no-op mode call must not drop the packed-filter cache: over a long
  // scan that meant a full re-pack (and a retired snapshot) per batch.
  util::Rng rng(14);
  BinaryConv2d conv(2, 2, 3, 1, 1, InputScaling::kScalar, rng);
  const Tensor x = Tensor::normal({1, 2, 4, 4}, rng, 0.0f, 0.8f);
  conv.set_training(false);
  conv.forward(x);  // builds the packed cache

  obs::Counter& misses =
      obs::MetricsRegistry::global().counter("binary_conv.pack_cache.miss");
  obs::Counter& hits =
      obs::MetricsRegistry::global().counter("binary_conv.pack_cache.hit");
  const std::uint64_t misses_before = misses.value();
  const std::uint64_t hits_before = hits.value();
  const Tensor first = conv.forward(x);
  for (int batch = 0; batch < 5; ++batch) {
    conv.set_training(false);  // already eval: must be a no-op
    const Tensor out = conv.forward(x);
    EXPECT_EQ(tensor::max_abs_diff(out, first), 0.0);
  }
  EXPECT_EQ(misses.value(), misses_before) << "no-op set_training repacked";
  EXPECT_EQ(hits.value(), hits_before + 6);

  // A real transition still invalidates.
  conv.set_training(true);
  conv.set_training(false);
  conv.forward(x);
  EXPECT_EQ(misses.value(), misses_before + 1);
}

TEST(BinaryConv, ParameterCount) {
  util::Rng rng(8);
  BinaryConv2d conv(4, 8, 3, 1, 1, InputScaling::kPerChannel, rng);
  EXPECT_EQ(conv.parameter_count(), 8 * 4 * 3 * 3);
  EXPECT_EQ(conv.parameters().size(), 1u);  // no bias in binary conv
}

TEST(BinaryConvDeath, RejectsOversizedKernelForPackedPath) {
  util::Rng rng(9);
  EXPECT_DEATH(
      BinaryConv2d(1, 1, 9, 1, 4, InputScaling::kPerChannel, rng),
      "HOTSPOT_CHECK");
}

}  // namespace
}  // namespace hotspot::core
