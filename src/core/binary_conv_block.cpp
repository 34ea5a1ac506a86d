#include "core/binary_conv_block.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

namespace hotspot::core {
namespace {

// Order-preserving key: key(a) < key(b) iff a < b as floats, over all
// finite floats including both zeros (-0 keys just below +0). Negative
// floats have descending bit patterns, so they are bit-flipped; positive
// ones get the sign bit set to sort above them.
std::uint32_t float_key(float f) {
  const auto u = std::bit_cast<std::uint32_t>(f);
  return (u & 0x80000000u) ? ~u : (u | 0x80000000u);
}

float key_float(std::uint32_t k) {
  const std::uint32_t u = (k & 0x80000000u) ? (k ^ 0x80000000u) : ~k;
  return std::bit_cast<float>(u);
}

}  // namespace

std::optional<bitops::BinarizeThreshold> fold_bn_sign_threshold(
    float gamma, float beta, float mean, float inv_std) {
  if (!std::isfinite(gamma) || !std::isfinite(beta) || !std::isfinite(mean) ||
      !std::isfinite(inv_std) || inv_std <= 0.0f) {
    return std::nullopt;
  }
  constexpr float kInf = std::numeric_limits<float>::infinity();

  // gamma == 0 first: y = (+/-0) + beta, which compares like beta itself for
  // every x whose xhat stays finite. For |x| large enough that (x - mean)
  // overflows to inf, 0 * inf is NaN and the unfused bit goes false — a
  // pattern no single comparison can express, so the identity guarantee is
  // scoped to non-overflowing inputs (see DESIGN.md §14.2; activations sit
  // many orders of magnitude below FLT_MAX).
  if (gamma == 0.0f) {
    return bitops::BinarizeThreshold{beta >= 0.0f ? -kInf : kInf, false};
  }

  // With gamma != 0 every probe is NaN-free: xhat is finite or +/-inf, and
  // gamma*inf + finite beta stays inf. The predicate P(x) = (y(x) >= 0) is
  // therefore weakly monotone over the float order — constant, or one
  // false->true step (gamma > 0), or one true->false step (gamma < 0).
  const auto predicate = [&](float x) {
    return bn_eval(x, mean, inv_std, gamma, beta) >= 0.0f;
  };
  const bool p_lo = predicate(-FLT_MAX);
  const bool p_hi = predicate(FLT_MAX);
  if (p_lo == p_hi) {
    return bitops::BinarizeThreshold{p_lo ? -kInf : kInf, false};
  }

  // Find the smallest float (in total order) where P equals p_hi, keeping
  // P(lo) != p_hi and P(hi) == p_hi. The real-valued root of the affine,
  // mean - beta / (gamma * inv_std), lands within a few ulps of the float
  // transition, so the search gallops out from it to a bracket and bisects
  // that: a handful of probes instead of ~32 from the full float range,
  // which also keeps a bound near zero from probing through the slow
  // subnormal range. The steps double but stay below 2^31, because the
  // key range [key_min, key_max] is narrower than 2^32.
  const std::uint32_t key_min = float_key(-FLT_MAX);
  const std::uint32_t key_max = float_key(FLT_MAX);
  const double root =
      static_cast<double>(mean) -
      static_cast<double>(beta) /
          (static_cast<double>(gamma) * static_cast<double>(inv_std));
  const std::uint32_t start = float_key(static_cast<float>(
      std::clamp(root, -static_cast<double>(FLT_MAX),
                 static_cast<double>(FLT_MAX))));
  std::uint32_t lo = key_min;
  std::uint32_t hi = key_max;
  if (predicate(key_float(start)) == p_hi) {
    hi = start;
    for (std::uint32_t step = 1; hi - key_min > step; step *= 2) {
      if (predicate(key_float(hi - step)) != p_hi) {
        lo = hi - step;
        break;
      }
      hi -= step;
    }
  } else {
    lo = start;
    for (std::uint32_t step = 1; key_max - lo > step; step *= 2) {
      if (predicate(key_float(lo + step)) == p_hi) {
        hi = lo + step;
        break;
      }
      lo += step;
    }
  }
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (predicate(key_float(mid)) == p_hi) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  const float bound = key_float(hi);
  // Increasing: bit = (x >= bound). Decreasing: bit = (x < bound), i.e.
  // the same comparison flipped. Both forms behave correctly when bound is
  // a signed zero because -0 >= +0 and +0 >= -0 are both true in IEEE,
  // matching P(-0) == P(+0) (the affine maps both zeros to values of equal
  // sign-bit comparison).
  return bitops::BinarizeThreshold{bound, /*flip=*/p_lo};
}

BinaryConvBlock::BinaryConvBlock(std::int64_t in_channels,
                                 std::int64_t out_channels,
                                 std::int64_t kernel, std::int64_t stride,
                                 std::int64_t pad,
                                 bitops::InputScaling scaling, util::Rng& rng)
    : bn_(in_channels),
      conv_(in_channels, out_channels, kernel, stride, pad, scaling, rng) {}

tensor::Tensor BinaryConvBlock::forward(const Tensor& input) {
  if (training_ || conv_.backend() != Backend::kPacked) {
    return conv_.forward(bn_.forward(input));
  }
  const std::int64_t channels = bn_.channels();
  const Tensor inv_std = bn_.inference_inv_std();
  const float* mean = bn_.running_mean().data();
  const float* gamma = bn_.gamma().value.data();
  const float* beta = bn_.beta().value.data();
  std::vector<bitops::BinarizeThreshold> thresholds(
      static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    const auto t =
        fold_bn_sign_threshold(gamma[c], beta[c], mean[c], inv_std[c]);
    if (!t.has_value()) {
      return conv_.forward(bn_.forward(input));
    }
    thresholds[static_cast<std::size_t>(c)] = *t;
  }
  const BnFold fold{thresholds.data(),
                    bitops::ChannelAffine{mean, inv_std.data(), gamma, beta}};
  return conv_.forward_folded(input, fold);
}

tensor::Tensor BinaryConvBlock::backward(const Tensor& grad_output) {
  return bn_.backward(conv_.backward(grad_output));
}

std::vector<nn::Parameter*> BinaryConvBlock::parameters() {
  std::vector<nn::Parameter*> params = bn_.parameters();
  for (nn::Parameter* param : conv_.parameters()) {
    params.push_back(param);
  }
  return params;
}

std::string BinaryConvBlock::name() const {
  std::ostringstream out;
  out << "BinaryConvBlock(" << bn_.name() << " -> " << conv_.name() << ")";
  return out.str();
}

void BinaryConvBlock::set_training(bool training) {
  nn::Module::set_training(training);
  bn_.set_training(training);
  conv_.set_training(training);
}

void BinaryConvBlock::collect_state(const std::string& prefix,
                                    std::vector<nn::NamedTensor>& out) {
  bn_.collect_state(prefix + "0.", out);
  conv_.collect_state(prefix + "1.", out);
}

}  // namespace hotspot::core
