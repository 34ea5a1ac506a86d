#include "layout/raster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace hotspot::layout {
namespace {

using tensor::Tensor;

TEST(RasterizeCoverage, FullRectFullCoverage) {
  Pattern pattern({Rect{0, 0, 100, 100}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 4);
  for (std::int64_t i = 0; i < raster.numel(); ++i) {
    EXPECT_NEAR(raster[i], 1.0f, 1e-6);
  }
}

TEST(RasterizeCoverage, HalfCoveredPixel) {
  // Rect covers the left half of a 1-pixel window.
  Pattern pattern({Rect{0, 0, 50, 100}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 1);
  EXPECT_NEAR(raster[0], 0.5f, 1e-6);
}

TEST(RasterizeCoverage, ExactAreaFractions) {
  // 25x25 rect in a 100x100 window at grid 2: only the top-left pixel (50nm
  // cells) sees it, covering a quarter.
  Pattern pattern({Rect{0, 0, 25, 25}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 2);
  EXPECT_NEAR(raster.at2(0, 0), 0.25f, 1e-6);
  EXPECT_NEAR(raster.at2(0, 1), 0.0f, 1e-6);
}

TEST(RasterizeCoverage, OverlappingRectsSaturate) {
  Pattern pattern({Rect{0, 0, 100, 100}, Rect{0, 0, 100, 100}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 2);
  EXPECT_LE(raster.max(), 1.0f);
}

TEST(RasterizeCoverage, GeometryOutsideWindowIgnored) {
  Pattern pattern({Rect{200, 200, 300, 300}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 4);
  EXPECT_EQ(raster.max(), 0.0f);
}

TEST(RasterizeBinary, ThresholdAtHalf) {
  Pattern pattern({Rect{0, 0, 60, 100}});  // 60% of the single pixel
  const Tensor binary = rasterize_binary(pattern, Rect{0, 0, 100, 100}, 1);
  EXPECT_EQ(binary[0], 1.0f);
  Pattern thin({Rect{0, 0, 40, 100}});  // 40%
  EXPECT_EQ(rasterize_binary(thin, Rect{0, 0, 100, 100}, 1)[0], 0.0f);
}

// The per-pixel loop rasterize_coverage ran before the rasterizer computed
// column overlaps once per rect: every pixel of every rect recomputes both
// overlaps. Kept here as the bit-identity oracle.
std::vector<float> per_pixel_coverage(const Pattern& pattern,
                                      const Rect& window, std::int64_t grid) {
  std::vector<float> raster(static_cast<std::size_t>(grid * grid), 0.0f);
  const double px_w = static_cast<double>(window.width()) /
                      static_cast<double>(grid);
  const double px_h = static_cast<double>(window.height()) /
                      static_cast<double>(grid);
  const double px_area = px_w * px_h;
  for (const Rect& rect : pattern.rects()) {
    const Rect cut = intersect(rect, window);
    if (cut.empty()) {
      continue;
    }
    const auto px0 = static_cast<std::int64_t>(
        (static_cast<double>(cut.x0 - window.x0)) / px_w);
    const auto px1 = std::min<std::int64_t>(
        grid - 1, static_cast<std::int64_t>(
                      (static_cast<double>(cut.x1 - window.x0) - 1e-9) / px_w));
    const auto py0 = static_cast<std::int64_t>(
        (static_cast<double>(cut.y0 - window.y0)) / px_h);
    const auto py1 = std::min<std::int64_t>(
        grid - 1, static_cast<std::int64_t>(
                      (static_cast<double>(cut.y1 - window.y0) - 1e-9) / px_h));
    for (std::int64_t py = py0; py <= py1; ++py) {
      const double cell_y0 = static_cast<double>(window.y0) +
                             static_cast<double>(py) * px_h;
      const double cell_y1 = cell_y0 + px_h;
      const double oy = std::min(cell_y1, static_cast<double>(cut.y1)) -
                        std::max(cell_y0, static_cast<double>(cut.y0));
      if (oy <= 0.0) {
        continue;
      }
      for (std::int64_t px = px0; px <= px1; ++px) {
        const double cell_x0 = static_cast<double>(window.x0) +
                               static_cast<double>(px) * px_w;
        const double cell_x1 = cell_x0 + px_w;
        const double ox = std::min(cell_x1, static_cast<double>(cut.x1)) -
                          std::max(cell_x0, static_cast<double>(cut.x0));
        if (ox <= 0.0) {
          continue;
        }
        float& pixel = raster[static_cast<std::size_t>(py * grid + px)];
        pixel = std::min(1.0f, pixel + static_cast<float>(ox * oy / px_area));
      }
    }
  }
  return raster;
}

// Random rects around `window`: overlapping ones, ones crossing the window
// edge or lying outside it, and 1 nm slivers in both directions.
Pattern random_pattern(util::Rng& rng, const Rect& window, int count) {
  const std::int64_t w = window.width();
  const std::int64_t h = window.height();
  Pattern pattern;
  for (int i = 0; i < count; ++i) {
    const std::int64_t x0 = window.x0 + rng.uniform_int(-w / 4, w);
    const std::int64_t y0 = window.y0 + rng.uniform_int(-h / 4, h);
    std::int64_t rw = rng.uniform_int(1, w / 2);
    std::int64_t rh = rng.uniform_int(1, h / 2);
    switch (i % 5) {
      case 0:
        rw = 1;  // vertical sliver
        break;
      case 1:
        rh = 1;  // horizontal sliver
        break;
      default:
        break;
    }
    pattern.add(Rect{x0, y0, x0 + rw, y0 + rh});
  }
  return pattern;
}

void expect_bit_identical(const Tensor& actual,
                          const std::vector<float>& expected,
                          const char* what) {
  ASSERT_EQ(static_cast<std::size_t>(actual.numel()), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(actual.data()[i]),
              std::bit_cast<std::uint32_t>(expected[i]))
        << what << " pixel " << i;
  }
}

struct RasterCase {
  std::int64_t grid;
  Rect window;
};

// The hoisted rasterizer writes the same float bits as the per-pixel loop,
// for coverage and binary output alike, including windows whose edge is
// not a multiple of the grid and windows away from the origin.
TEST(RasterizeCoverage, BitIdenticalToPerPixelLoop) {
  const std::vector<RasterCase> cases = {
      {1, Rect{0, 0, 1000, 1000}},      {7, Rect{0, 0, 997, 997}},
      {7, Rect{-300, 50, 697, 1047}},   {32, Rect{0, 0, 1000, 1000}},
      {32, Rect{1200, 800, 2224, 1824}}, {33, Rect{0, 0, 1024, 1024}},
      {128, Rect{0, 0, 1024, 1024}},    {128, Rect{0, 0, 1000, 1000}},
  };
  util::Rng rng(2024);
  for (const RasterCase& c : cases) {
    for (int trial = 0; trial < 8; ++trial) {
      const Pattern pattern = random_pattern(rng, c.window, 1 + trial * 6);
      const std::vector<float> expected =
          per_pixel_coverage(pattern, c.window, c.grid);
      expect_bit_identical(rasterize_coverage(pattern, c.window, c.grid),
                           expected, "coverage");
      std::vector<float> binary = expected;
      for (float& pixel : binary) {
        pixel = pixel >= 0.5f ? 1.0f : 0.0f;
      }
      expect_bit_identical(rasterize_binary(pattern, c.window, c.grid),
                           binary, "binary");
      // The core overwrites a dirty caller buffer completely.
      std::vector<float> reused(static_cast<std::size_t>(c.grid * c.grid),
                                7.0f);
      rasterize_coverage_into(pattern.rects(), c.window, c.grid,
                              reused.data());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(reused[i]),
                  std::bit_cast<std::uint32_t>(expected[i]))
            << "into pixel " << i;
      }
    }
  }
}

TEST(Downsample, MajorityVotePerBlock) {
  Tensor image({4, 4});
  // Fill the top-left 2x2 block fully and one pixel of the top-right.
  image.at2(0, 0) = image.at2(0, 1) = image.at2(1, 0) = image.at2(1, 1) = 1.0f;
  image.at2(0, 2) = 1.0f;
  const Tensor small = downsample_binary(image, 2);
  EXPECT_EQ(small.at2(0, 0), 1.0f);
  EXPECT_EQ(small.at2(0, 1), 0.0f);  // 1 of 4 < 0.5
}

TEST(Downsample, RequiresDivisibleSize) {
  EXPECT_DEATH(downsample_binary(Tensor({5, 5}), 2), "HOTSPOT_CHECK");
}

TEST(Flips, InvolutionsAndMirroring) {
  Tensor image({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor h = flip_horizontal(image);
  EXPECT_EQ(h.at2(0, 0), 3.0f);
  EXPECT_EQ(h.at2(1, 2), 4.0f);
  EXPECT_TRUE(tensor::allclose(flip_horizontal(h), image, 0.0));
  const Tensor v = flip_vertical(image);
  EXPECT_EQ(v.at2(0, 0), 4.0f);
  EXPECT_TRUE(tensor::allclose(flip_vertical(v), image, 0.0));
}

}  // namespace
}  // namespace hotspot::layout
