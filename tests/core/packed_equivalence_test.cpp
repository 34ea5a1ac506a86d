// Whole-model equivalence of the two execution paths: the packed
// XNOR-popcount deployment engine must produce the same logits (hence the
// same decisions) as the float-sim graph it was trained as. This is the
// contract that makes the Fig. 1 / Table 3 speedups a free lunch rather
// than an accuracy trade.
#include <gtest/gtest.h>

#include "core/brnn.h"
#include "tensor/tensor_ops.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;

class PackedEquivalenceTest
    : public ::testing::TestWithParam<bitops::InputScaling> {};

TEST_P(PackedEquivalenceTest, LogitsAgreeOnRandomInputs) {
  util::Rng rng(1);
  BrnnConfig config = BrnnConfig::compact(32);
  config.scaling = GetParam();
  BrnnModel model(config, rng);

  // Run a few training-mode forwards so batch-norm running statistics are
  // non-trivial.
  model.set_training(true);
  for (int i = 0; i < 3; ++i) {
    model.forward(Tensor::uniform({8, 1, 32, 32}, rng, 0.0f, 1.0f));
  }
  model.set_training(false);

  const Tensor x = Tensor::uniform({16, 1, 32, 32}, rng, 0.0f, 1.0f);
  model.set_backend(Backend::kFloatSim);
  const Tensor float_logits = model.forward(x);
  model.set_backend(Backend::kPacked);
  const Tensor packed_logits = model.forward(x);

  EXPECT_TRUE(tensor::allclose(packed_logits, float_logits, 1e-2))
      << "max diff " << tensor::max_abs_diff(packed_logits, float_logits);
}

TEST_P(PackedEquivalenceTest, DecisionsIdentical) {
  util::Rng rng(2);
  BrnnConfig config = BrnnConfig::compact(32);
  config.scaling = GetParam();
  BrnnModel model(config, rng);
  model.set_training(true);
  model.forward(Tensor::uniform({8, 1, 32, 32}, rng, 0.0f, 1.0f));
  model.set_training(false);

  const Tensor x = Tensor::uniform({32, 1, 32, 32}, rng, 0.0f, 1.0f);
  model.set_backend(Backend::kFloatSim);
  const auto float_labels = model.predict(x);
  model.set_backend(Backend::kPacked);
  const auto packed_labels = model.predict(x);
  // Logit agreement to 1e-2 can still flip a knife-edge argmax; allow at
  // most one flip in 32.
  int flips = 0;
  for (std::size_t i = 0; i < float_labels.size(); ++i) {
    flips += float_labels[i] != packed_labels[i] ? 1 : 0;
  }
  EXPECT_LE(flips, 1);
}

INSTANTIATE_TEST_SUITE_P(Modes, PackedEquivalenceTest,
                         ::testing::Values(bitops::InputScaling::kPerChannel,
                                           bitops::InputScaling::kScalar,
                                           bitops::InputScaling::kNone),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case bitops::InputScaling::kPerChannel:
                               return "PerChannel";
                             case bitops::InputScaling::kScalar:
                               return "Scalar";
                             default:
                               return "None";
                           }
                         });

TEST(PackedEquivalence, BinaryLayoutInputs) {
  // The real use case: strictly binary {0,1} clip images.
  util::Rng rng(3);
  BrnnModel model(BrnnConfig::compact(32), rng);
  model.set_training(true);
  Tensor x({8, 1, 32, 32});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  }
  model.forward(x);
  model.set_training(false);
  model.set_backend(Backend::kFloatSim);
  const Tensor float_logits = model.forward(x);
  model.set_backend(Backend::kPacked);
  const Tensor packed_logits = model.forward(x);
  EXPECT_TRUE(tensor::allclose(packed_logits, float_logits, 1e-2));
}

}  // namespace
}  // namespace hotspot::core
