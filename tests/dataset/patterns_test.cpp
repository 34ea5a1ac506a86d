#include "dataset/patterns.h"

#include <gtest/gtest.h>

namespace hotspot::dataset {
namespace {

PatternParams test_params() {
  PatternParams params;
  params.clip_nm = 1024;
  params.min_width = 80;
  params.max_width = 288;
  params.min_space = 96;
  params.max_space = 448;
  return params;
}

class FamilyParamTest : public ::testing::TestWithParam<Family> {};

TEST_P(FamilyParamTest, GeometryStaysInsideClip) {
  const PatternParams params = test_params();
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  for (int trial = 0; trial < 50; ++trial) {
    const layout::Pattern pattern =
        generate_pattern(GetParam(), params, rng);
    for (const auto& rect : pattern.rects()) {
      EXPECT_GE(rect.x0, 0);
      EXPECT_GE(rect.y0, 0);
      EXPECT_LE(rect.x1, params.clip_nm);
      EXPECT_LE(rect.y1, params.clip_nm);
      EXPECT_FALSE(rect.empty());
    }
  }
}

TEST_P(FamilyParamTest, CoordinatesOnManufacturingGrid) {
  const PatternParams params = test_params();
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  for (int trial = 0; trial < 20; ++trial) {
    const layout::Pattern pattern =
        generate_pattern(GetParam(), params, rng);
    for (const auto& rect : pattern.rects()) {
      // Clamping to the clip boundary keeps grid alignment because the clip
      // size is itself a grid multiple.
      EXPECT_EQ(rect.x0 % params.grid_nm, 0);
      EXPECT_EQ(rect.y0 % params.grid_nm, 0);
    }
  }
}

TEST_P(FamilyParamTest, UsuallyNonEmpty) {
  const PatternParams params = test_params();
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
  int non_empty = 0;
  for (int trial = 0; trial < 30; ++trial) {
    non_empty +=
        generate_pattern(GetParam(), params, rng).empty() ? 0 : 1;
  }
  EXPECT_GE(non_empty, 25);
}

TEST_P(FamilyParamTest, Deterministic) {
  const PatternParams params = test_params();
  util::Rng a(42);
  util::Rng b(42);
  const auto pa = generate_pattern(GetParam(), params, a);
  const auto pb = generate_pattern(GetParam(), params, b);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa.rects()[i], pb.rects()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyParamTest,
    ::testing::Values(Family::kDenseLines, Family::kTipToTip, Family::kJog,
                      Family::kContacts, Family::kComb, Family::kTJunction),
    [](const auto& param_info) {
      std::string name = to_string(param_info.param);
      for (auto& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name;
    });

TEST(Patterns, DenseLinesCoverSubstantialArea) {
  const PatternParams params = test_params();
  util::Rng rng(9);
  double total_ratio = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const layout::Pattern pattern = dense_lines(params, rng);
    std::int64_t area = 0;
    for (const auto& rect : pattern.rects()) {
      area += rect.area();
    }
    total_ratio += static_cast<double>(area) /
                   static_cast<double>(params.clip_nm * params.clip_nm);
  }
  // Line gratings should fill a meaningful fraction of the clip on average.
  EXPECT_GT(total_ratio / trials, 0.1);
  EXPECT_LT(total_ratio / trials, 0.9);
}

TEST(Patterns, TJunctionHasBarAndStem) {
  const PatternParams params = test_params();
  util::Rng rng(10);
  const layout::Pattern pattern = t_junction(params, rng);
  // Always a bar plus at least one stem; the runner can fall outside the
  // clip and be clamped away.
  EXPECT_GE(pattern.size(), 2u);
}

}  // namespace
}  // namespace hotspot::dataset
