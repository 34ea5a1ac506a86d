// The Fig. 3 conv block (core/binary_conv_block.h): its packed forward folds
// the BatchNorm into exact binarize thresholds, and the result must be
// bit-identical — equal float bit patterns, not allclose — to the unfused
// composition conv.forward(bn.forward(x)) for every XNOR kernel this
// machine can run, every input scaling and every pool width. The fold is
// derived per call, so it must track BN changes, and it must step aside for
// BN parameters it cannot represent.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bitops/kernels/xnor_kernel.h"
#include "core/binary_conv_block.h"
#include "core/brnn.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;

// Restores the dispatched kernel and the pool width when a test ends.
class SweepGuard {
 public:
  ~SweepGuard() {
    bitops::set_active_xnor_kernel(*kernel_);
    util::set_parallel_threads(threads_);
  }

 private:
  const bitops::XnorKernel* kernel_ = &bitops::active_xnor_kernel();
  int threads_ = util::parallel_threads();
};

std::vector<const bitops::XnorKernel*> runnable_kernels() {
  std::vector<const bitops::XnorKernel*> out;
  for (const bitops::XnorKernel* kernel : bitops::compiled_xnor_kernels()) {
    if (bitops::xnor_kernel_cpu_supported(*kernel)) {
      out.push_back(kernel);
    }
  }
  return out;
}

const bitops::InputScaling kScalings[] = {bitops::InputScaling::kPerChannel,
                                          bitops::InputScaling::kScalar,
                                          bitops::InputScaling::kNone};

// Bit patterns, so NaNs compare equal to themselves and -0 differs from +0.
void expect_bit_identical(const Tensor& got, const Tensor& want,
                          const std::string& context) {
  ASSERT_EQ(got.shape(), want.shape()) << context;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << context << " diverges at flat index " << i << ": " << got[i]
        << " vs " << want[i];
  }
}

Tensor unfused(BinaryConvBlock& block, const Tensor& x) {
  return block.conv().forward(block.bn().forward(x));
}

// BN parameters with every edge the fold handles: negative gamma (flipped
// comparison), zero gamma with either sign of beta (constant bit), and
// zero variance (inv_std = 1/sqrt(eps)).
void set_edge_case_bn(nn::BatchNorm2d& bn, util::Rng& rng) {
  for (std::int64_t c = 0; c < bn.channels(); ++c) {
    float gamma = static_cast<float>(rng.uniform(0.25, 2.0));
    if (c % 3 == 1) {
      gamma = -gamma;
    }
    if (c % 5 == 2) {
      gamma = 0.0f;
    }
    bn.gamma().value[c] = gamma;
    bn.beta().value[c] = static_cast<float>(rng.uniform(-0.5, 0.5));
    bn.mutable_running_mean()[c] = static_cast<float>(rng.uniform(-0.5, 0.5));
    bn.mutable_running_var()[c] =
        c % 4 == 3 ? 0.0f : static_cast<float>(rng.uniform(0.05, 2.0));
  }
}

std::unique_ptr<BinaryConvBlock> make_block(std::int64_t in,
                                            std::int64_t out,
                                            std::int64_t kernel,
                                            std::int64_t stride,
                                            std::int64_t pad,
                                            bitops::InputScaling scaling,
                                            util::Rng& rng) {
  auto block = std::make_unique<BinaryConvBlock>(in, out, kernel, stride, pad,
                                                 scaling, rng);
  set_edge_case_bn(block->bn(), rng);
  block->set_training(false);
  block->conv().set_backend(Backend::kPacked);
  return block;
}

struct Geometry {
  std::int64_t in, out, kernel, stride, pad;
};

TEST(BinaryConvBlock, FoldedForwardBitIdenticalAcrossKernelsScalingsWidths) {
  // 10 input channels: not a multiple of any kernel's word stride; the 1x1
  // stride-2 case is the projection shortcut.
  const Geometry geometries[] = {
      {10, 6, 3, 1, 1}, {10, 6, 3, 2, 1}, {10, 6, 1, 2, 0}, {1, 8, 3, 1, 1}};
  SweepGuard guard;
  util::Rng rng(2024);
  for (const bitops::InputScaling scaling : kScalings) {
    for (const Geometry& g : geometries) {
      auto block =
          make_block(g.in, g.out, g.kernel, g.stride, g.pad, scaling, rng);
      const Tensor x = Tensor::uniform({3, g.in, 11, 11}, rng, -1.5f, 1.5f);
      for (const bitops::XnorKernel* kernel : runnable_kernels()) {
        bitops::set_active_xnor_kernel(*kernel);
        for (const int threads : {1, 2, 4, 7}) {
          util::set_parallel_threads(threads);
          expect_bit_identical(
              block->forward(x), unfused(*block, x),
              std::string("scaling=") + bitops::to_string(scaling) +
                  " kernel=" + kernel->name + " k=" +
                  std::to_string(g.kernel) + " s=" + std::to_string(g.stride) +
                  " cin=" + std::to_string(g.in) +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(BinaryConvBlock, FoldTracksBatchNormChanges) {
  // Nothing is cached between calls: new running statistics (a checkpoint
  // load, a training step) and new affine parameters show up at once.
  util::Rng rng(5);
  for (const bitops::InputScaling scaling : kScalings) {
    auto block = make_block(6, 4, 3, 1, 1, scaling, rng);
    nn::BatchNorm2d& bn = block->bn();
    const Tensor x = Tensor::uniform({2, 6, 9, 9}, rng, -1.0f, 1.0f);
    const Tensor before = block->forward(x);
    expect_bit_identical(before, unfused(*block, x), "before the change");

    for (std::int64_t c = 0; c < 6; ++c) {
      bn.mutable_running_mean()[c] += 0.4f;
      bn.mutable_running_var()[c] = bn.running_var()[c] * 3.0f + 0.1f;
    }
    bn.gamma().value[0] = -bn.gamma().value[0] - 1.0f;
    bn.beta().value[1] += 0.75f;
    const Tensor after = block->forward(x);
    expect_bit_identical(after, unfused(*block, x),
                         std::string("after the change, scaling=") +
                             bitops::to_string(scaling));
    bool changed = false;
    for (std::int64_t i = 0; i < after.numel() && !changed; ++i) {
      changed = after[i] != before[i];
    }
    EXPECT_TRUE(changed) << "the BN change did not reach the output";
  }
}

TEST(BinaryConvBlock, NonFiniteBatchNormFallsBackToUnfused) {
  util::Rng rng(13);
  for (const bitops::InputScaling scaling : kScalings) {
    auto block = make_block(5, 4, 3, 1, 1, scaling, rng);
    block->bn().gamma().value[2] = std::numeric_limits<float>::quiet_NaN();
    const Tensor x = Tensor::uniform({2, 5, 8, 8}, rng, -1.0f, 1.0f);
    expect_bit_identical(block->forward(x), unfused(*block, x),
                         std::string("NaN gamma, scaling=") +
                             bitops::to_string(scaling));
  }
}

// Test-local reference walk of the model: the same modules, but every conv
// block evaluated unfused.
Tensor unfused_module(nn::Module& module, const Tensor& x);

Tensor unfused_sequential(nn::Sequential& seq, const Tensor& x) {
  Tensor current = x;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    current = unfused_module(seq.at(i), current);
  }
  return current;
}

Tensor unfused_module(nn::Module& module, const Tensor& x) {
  if (auto* block = dynamic_cast<BinaryConvBlock*>(&module)) {
    return unfused(*block, x);
  }
  if (auto* residual = dynamic_cast<nn::ResidualBlock*>(&module)) {
    auto& main_path = dynamic_cast<nn::Sequential&>(residual->main_path());
    Tensor out = unfused_sequential(main_path, x);
    const Tensor skip = residual->shortcut() != nullptr
                            ? unfused_module(*residual->shortcut(), x)
                            : x;
    for (std::int64_t i = 0; i < out.numel(); ++i) {
      out[i] += skip[i];
    }
    return out;
  }
  EXPECT_EQ(dynamic_cast<nn::Sequential*>(&module), nullptr)
      << "nested Sequential outside a residual block";
  return module.forward(x);
}

void add_gamma_edge_cases(nn::Module& module) {
  if (auto* block = dynamic_cast<BinaryConvBlock*>(&module)) {
    Tensor& gamma = block->bn().gamma().value;
    for (std::int64_t c = 0; c < gamma.numel(); ++c) {
      if (c % 7 == 6) {
        gamma[c] = 0.0f;
      } else if (c % 3 == 1) {
        gamma[c] = -gamma[c];
      }
    }
  } else if (auto* residual = dynamic_cast<nn::ResidualBlock*>(&module)) {
    auto& main_path = dynamic_cast<nn::Sequential&>(residual->main_path());
    for (std::size_t i = 0; i < main_path.size(); ++i) {
      add_gamma_edge_cases(main_path.at(i));
    }
    if (residual->shortcut() != nullptr) {
      add_gamma_edge_cases(*residual->shortcut());
    }
  }
}

// A model with trained running statistics, then BN edge cases mixed in:
// every third channel of each conv block gets a negated gamma, every
// seventh a zero gamma.
BrnnModel make_model(const BrnnConfig& config, unsigned seed,
                     std::int64_t train_batch) {
  util::Rng rng(seed);
  BrnnModel model(config, rng);
  model.set_training(true);
  model.forward(Tensor::uniform({train_batch, config.input_channels,
                                 config.image_size, config.image_size},
                                rng, 0.0f, 1.0f));
  for (std::size_t i = 0; i < model.net().size(); ++i) {
    add_gamma_edge_cases(model.net().at(i));
  }
  model.set_training(false);
  model.set_backend(Backend::kPacked);
  return model;
}

void expect_model_matches_unfused_walk(BrnnModel& model, const Tensor& x,
                                       const std::string& context) {
  const Tensor folded = model.forward(x);
  const Tensor reference = unfused_sequential(model.net(), x);
  expect_bit_identical(folded, reference, context);
}

class BinaryConvBlockModelTest
    : public ::testing::TestWithParam<bitops::InputScaling> {};

TEST_P(BinaryConvBlockModelTest, CompactModelBitIdenticalAcrossKernels) {
  BrnnConfig config = BrnnConfig::compact(32);
  config.scaling = GetParam();
  BrnnModel model = make_model(config, 11, 6);
  util::Rng data_rng(99);
  const Tensor x = Tensor::uniform({3, 1, 32, 32}, data_rng, 0.0f, 1.0f);

  SweepGuard guard;
  for (const bitops::XnorKernel* kernel : runnable_kernels()) {
    bitops::set_active_xnor_kernel(*kernel);
    expect_model_matches_unfused_walk(
        model, x,
        std::string("kernel=") + kernel->name +
            " scaling=" + bitops::to_string(config.scaling));
  }
}

INSTANTIATE_TEST_SUITE_P(AllScalings, BinaryConvBlockModelTest,
                         ::testing::ValuesIn(kScalings),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case bitops::InputScaling::kPerChannel:
                               return std::string("PerChannel");
                             case bitops::InputScaling::kScalar:
                               return std::string("Scalar");
                             case bitops::InputScaling::kNone:
                               return std::string("None");
                           }
                           return std::string("Unknown");
                         });

TEST(BinaryConvBlockModel, PaperModelBitIdentical) {
  const BrnnConfig config = BrnnConfig::paper();
  BrnnModel model = make_model(config, 41, 2);
  util::Rng data_rng(8);
  const Tensor x = Tensor::uniform(
      {3, config.input_channels, config.image_size, config.image_size},
      data_rng, 0.0f, 1.0f);
  expect_model_matches_unfused_walk(model, x, "paper config");
}

TEST(BinaryConvBlockModel, CompactStateNamesArePinned) {
  // The block replaced a Sequential(BatchNorm2d, BinaryConv2d); checkpoints
  // written before and after must name the same tensors.
  util::Rng rng(3);
  BrnnModel model(BrnnConfig::compact(32), rng);
  std::vector<nn::NamedTensor> state;
  model.collect_state("", state);
  std::vector<std::string> names;
  for (const nn::NamedTensor& entry : state) {
    names.push_back(entry.name);
  }
  const std::vector<std::string> expected = {
      "net.0.0.gamma",
      "net.0.0.beta",
      "net.0.0.running_mean",
      "net.0.0.running_var",
      "net.0.1.weight",
      "net.1.main.0.0.gamma",
      "net.1.main.0.0.beta",
      "net.1.main.0.0.running_mean",
      "net.1.main.0.0.running_var",
      "net.1.main.0.1.weight",
      "net.1.main.1.0.gamma",
      "net.1.main.1.0.beta",
      "net.1.main.1.0.running_mean",
      "net.1.main.1.0.running_var",
      "net.1.main.1.1.weight",
      "net.2.main.0.0.gamma",
      "net.2.main.0.0.beta",
      "net.2.main.0.0.running_mean",
      "net.2.main.0.0.running_var",
      "net.2.main.0.1.weight",
      "net.2.main.1.0.gamma",
      "net.2.main.1.0.beta",
      "net.2.main.1.0.running_mean",
      "net.2.main.1.0.running_var",
      "net.2.main.1.1.weight",
      "net.2.shortcut.0.gamma",
      "net.2.shortcut.0.beta",
      "net.2.shortcut.0.running_mean",
      "net.2.shortcut.0.running_var",
      "net.2.shortcut.1.weight",
      "net.3.main.0.0.gamma",
      "net.3.main.0.0.beta",
      "net.3.main.0.0.running_mean",
      "net.3.main.0.0.running_var",
      "net.3.main.0.1.weight",
      "net.3.main.1.0.gamma",
      "net.3.main.1.0.beta",
      "net.3.main.1.0.running_mean",
      "net.3.main.1.0.running_var",
      "net.3.main.1.1.weight",
      "net.3.shortcut.0.gamma",
      "net.3.shortcut.0.beta",
      "net.3.shortcut.0.running_mean",
      "net.3.shortcut.0.running_var",
      "net.3.shortcut.1.weight",
      "net.4.gamma",
      "net.4.beta",
      "net.4.running_mean",
      "net.4.running_var",
      "net.6.weight",
      "net.6.bias"
  };
  EXPECT_EQ(names, expected);
}

// ---- Exact threshold folding (DESIGN.md §14.2): the folded comparison must
// reproduce sign(BN(x)) bit-for-bit, including negative-gamma channels,
// zero/negative variance, and values straddling the bisected bound.


bool unfused_bit(float x, float gamma, float beta, float mean, float inv_std) {
  return bn_eval(x, mean, inv_std, gamma, beta) >= 0.0f;
}

// Probe values that stress a threshold: boundary neighbors, signed zeros,
// denormals, extremes, and a dense sweep.
std::vector<float> probes(float bound) {
  std::vector<float> xs = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      FLT_MIN,
      -FLT_MIN,
      FLT_MAX,
      -FLT_MAX,
      1.0f,
      -1.0f,
      3.25f,
      -17.5f,
  };
  for (float step = -2.0f; step <= 2.0f; step += 0.125f) {
    xs.push_back(step);
  }
  if (std::isfinite(bound)) {
    xs.push_back(bound);
    xs.push_back(std::nextafter(bound, -std::numeric_limits<float>::infinity()));
    xs.push_back(std::nextafter(bound, std::numeric_limits<float>::infinity()));
  }
  return xs;
}

void expect_fold_matches(float gamma, float beta, float mean, float inv_std) {
  const auto folded = fold_bn_sign_threshold(gamma, beta, mean, inv_std);
  ASSERT_TRUE(folded.has_value())
      << "gamma=" << gamma << " beta=" << beta << " mean=" << mean
      << " inv_std=" << inv_std;
  for (const float x : probes(folded->bound)) {
    EXPECT_EQ(bitops::apply(*folded, x),
              unfused_bit(x, gamma, beta, mean, inv_std))
        << "x=" << x << " gamma=" << gamma << " beta=" << beta
        << " mean=" << mean << " inv_std=" << inv_std
        << " bound=" << folded->bound << " flip=" << folded->flip;
  }
}

TEST(ThresholdFold, MatchesUnfusedAcrossParameterSweep) {
  const float gammas[] = {1.0f, -1.0f, 0.5f, -0.25f, 3.0f, 1e-3f, -1e-3f};
  const float betas[] = {0.0f, 0.7f, -0.7f, 5.0f, -5.0f};
  const float means[] = {0.0f, 0.3f, -2.0f, 13.0f};
  const float inv_stds[] = {1.0f, 0.01f, 7.0f, 1e4f};
  for (const float gamma : gammas) {
    for (const float beta : betas) {
      for (const float mean : means) {
        for (const float inv_std : inv_stds) {
          expect_fold_matches(gamma, beta, mean, inv_std);
        }
      }
    }
  }
}

TEST(ThresholdFold, MatchesUnfusedOnRandomParameters) {
  util::Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    const float gamma = static_cast<float>(rng.uniform(-4.0, 4.0));
    const float beta = static_cast<float>(rng.uniform(-4.0, 4.0));
    const float mean = static_cast<float>(rng.uniform(-8.0, 8.0));
    const float inv_std = static_cast<float>(rng.uniform(1e-4, 20.0));
    expect_fold_matches(gamma, beta, mean, inv_std);
  }
}

TEST(ThresholdFold, NegativeGammaFlipsComparisonDirection) {
  const auto folded = fold_bn_sign_threshold(-1.0f, 0.5f, 0.0f, 1.0f);
  ASSERT_TRUE(folded.has_value());
  EXPECT_TRUE(folded->flip);  // y decreasing in x: large x -> bit 0
  EXPECT_FALSE(bitops::apply(*folded, 100.0f));
  EXPECT_TRUE(bitops::apply(*folded, -100.0f));
}

TEST(ThresholdFold, ZeroGammaIsConstantBetaSign) {
  // gamma == 0: y = beta everywhere, bit is constant.
  const auto positive = fold_bn_sign_threshold(0.0f, 0.25f, 1.0f, 2.0f);
  ASSERT_TRUE(positive.has_value());
  for (const float x : probes(positive->bound)) {
    EXPECT_TRUE(bitops::apply(*positive, x)) << "x=" << x;
  }

  const auto zero_beta = fold_bn_sign_threshold(0.0f, 0.0f, -3.0f, 0.5f);
  ASSERT_TRUE(zero_beta.has_value());
  for (const float x : probes(zero_beta->bound)) {
    EXPECT_TRUE(bitops::apply(*zero_beta, x)) << "x=" << x;  // 0 >= 0
  }

  const auto negative = fold_bn_sign_threshold(0.0f, -0.25f, 0.0f, 1.0f);
  ASSERT_TRUE(negative.has_value());
  for (const float x : probes(negative->bound)) {
    EXPECT_FALSE(bitops::apply(*negative, x)) << "x=" << x;
  }
}

TEST(ThresholdFold, ZeroVarianceChannelStaysFiniteAndExact) {
  // A zero running variance clamps to inv_std = 1/sqrt(eps): huge but
  // finite, so the channel still folds and still matches the layer.
  const float inv_std = 1.0f / std::sqrt(1e-5f);
  expect_fold_matches(1.0f, -0.1f, 0.5f, inv_std);
  expect_fold_matches(-2.0f, 0.3f, -0.5f, inv_std);
}

TEST(ThresholdFold, NonFiniteParametersAreUnfoldable) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(fold_bn_sign_threshold(nan, 0.0f, 0.0f, 1.0f).has_value());
  EXPECT_FALSE(fold_bn_sign_threshold(1.0f, inf, 0.0f, 1.0f).has_value());
  EXPECT_FALSE(fold_bn_sign_threshold(1.0f, 0.0f, -inf, 1.0f).has_value());
  EXPECT_FALSE(fold_bn_sign_threshold(1.0f, 0.0f, 0.0f, nan).has_value());
  EXPECT_FALSE(fold_bn_sign_threshold(1.0f, 0.0f, 0.0f, 0.0f).has_value());
  EXPECT_FALSE(fold_bn_sign_threshold(1.0f, 0.0f, 0.0f, -1.0f).has_value());
}

}  // namespace
}  // namespace hotspot::core
