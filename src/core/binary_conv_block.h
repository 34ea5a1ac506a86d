// The paper's conv building block (Fig. 3): BatchNorm -> Binarize ->
// BinaryConv, as one module.
//
// Training and the float-sim backend run the two layers in sequence,
// conv.forward(bn.forward(x)). Packed inference folds the BatchNorm into
// the conv instead (DESIGN.md §14): on every call the block derives, from
// the BN's current parameters, one exact threshold per channel such that
// (x >= bound) != flip equals sign(BN(x)) for every finite x, and hands it
// to BinaryConv2d::forward_folded together with the BN affine for the
// alpha_T scales. The normalized tensor is never materialized, and the
// output is bit-identical to the unfused composition. Nothing is cached, so
// checkpoint loads, optimizer steps and direct edits of the BN statistics
// are always seen. A channel with a non-finite BN parameter has no
// threshold form; the block then runs unfused.
//
// State names are those of the two-layer Sequential the block replaces:
// "<prefix>0.*" for the BatchNorm, "<prefix>1.weight" for the conv.
#pragma once

#include <cstdint>
#include <optional>

#include "bitops/bit_planes.h"
#include "core/binary_conv.h"
#include "nn/batchnorm_layer.h"

namespace hotspot::core {

// y exactly as BatchNorm2d::forward computes it per element in eval mode
// (two float roundings for xhat, two more for the affine).
inline float bn_eval(float x, float mean, float inv_std, float gamma,
                     float beta) {
  const float xhat = (x - mean) * inv_std;
  return gamma * xhat + beta;
}

// Folds one channel's BN + sign into a threshold on the raw input.
//
// Every float operation in bn_eval is weakly monotone in x (inv_std > 0;
// gamma's sign sets the direction), so the bit as a function of x is a step
// over the float order. The bound is found by search over the total order
// of finite floats: from the real-valued root of the affine, gallop to a
// bracket and bisect it (a handful of probes). Each probe evaluates
// bn_eval itself, so the fold is exact rather than close. Negative gamma
// sets flip; a constant bit (gamma == 0, saturated statistics) gets an
// infinite bound.
// `inv_std` must be BatchNorm2d::inference_inv_std() for the channel.
// Returns nullopt when any parameter is non-finite or inv_std <= 0.
std::optional<bitops::BinarizeThreshold> fold_bn_sign_threshold(
    float gamma, float beta, float mean, float inv_std);

class BinaryConvBlock : public nn::Module {
 public:
  BinaryConvBlock(std::int64_t in_channels, std::int64_t out_channels,
                  std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                  bitops::InputScaling scaling, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override;
  void set_training(bool training) override;
  void collect_state(const std::string& prefix,
                     std::vector<nn::NamedTensor>& out) override;

  nn::BatchNorm2d& bn() { return bn_; }
  BinaryConv2d& conv() { return conv_; }

 private:
  nn::BatchNorm2d bn_;
  BinaryConv2d conv_;
};

}  // namespace hotspot::core
