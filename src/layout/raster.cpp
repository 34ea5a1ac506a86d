#include "layout/raster.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace hotspot::layout {

void rasterize_coverage_into(std::span<const Rect> rects, const Rect& window,
                             std::int64_t grid, float* out) {
  HOTSPOT_CHECK_GT(grid, 0);
  HOTSPOT_CHECK(!window.empty()) << "window " << to_string(window);
  std::fill(out, out + grid * grid, 0.0f);
  const double px_w = static_cast<double>(window.width()) /
                      static_cast<double>(grid);
  const double px_h = static_cast<double>(window.height()) /
                      static_cast<double>(grid);
  const double px_area = px_w * px_h;
  // A column's overlap with a rect does not depend on the row, so it is
  // computed once per (rect, column) instead of once per pixel. A column
  // that does not overlap stores 0: its pixels then add exactly 0.0f, and
  // since every pixel stays in [0, 1], min(1, p + 0.0f) == p bit for bit —
  // the same as skipping it, but without a branch in the pixel loop.
  std::vector<double> column_overlap(static_cast<std::size_t>(grid));
  for (const Rect& rect : rects) {
    const Rect cut = intersect(rect, window);
    if (cut.empty()) {
      continue;
    }
    // Pixel index range the rect can touch.
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
    for (std::int64_t px = px0; px <= px1; ++px) {
      const double cell_x0 = static_cast<double>(window.x0) +
                             static_cast<double>(px) * px_w;
      const double cell_x1 = cell_x0 + px_w;
      const double ox = std::min(cell_x1, static_cast<double>(cut.x1)) -
                        std::max(cell_x0, static_cast<double>(cut.x0));
      column_overlap[static_cast<std::size_t>(px - px0)] =
          ox > 0.0 ? ox : 0.0;
    }
    const std::int64_t columns = px1 - px0 + 1;
    for (std::int64_t py = py0; py <= py1; ++py) {
      const double cell_y0 = static_cast<double>(window.y0) +
                             static_cast<double>(py) * px_h;
      const double cell_y1 = cell_y0 + px_h;
      const double oy = std::min(cell_y1, static_cast<double>(cut.y1)) -
                        std::max(cell_y0, static_cast<double>(cut.y0));
      if (oy <= 0.0) {
        continue;
      }
      float* row = out + py * grid + px0;
      for (std::int64_t i = 0; i < columns; ++i) {
        row[i] = std::min(
            1.0f, row[i] + static_cast<float>(
                               column_overlap[static_cast<std::size_t>(i)] *
                               oy / px_area));
      }
    }
  }
}

tensor::Tensor rasterize_coverage(const Pattern& pattern, const Rect& window,
                                  std::int64_t grid) {
  HOTSPOT_CHECK_GT(grid, 0);
  tensor::Tensor raster({grid, grid});
  rasterize_coverage_into(pattern.rects(), window, grid, raster.data());
  return raster;
}

tensor::Tensor rasterize_binary(const Pattern& pattern, const Rect& window,
                                std::int64_t grid) {
  tensor::Tensor coverage = rasterize_coverage(pattern, window, grid);
  for (std::int64_t i = 0; i < coverage.numel(); ++i) {
    coverage[i] = coverage[i] >= 0.5f ? 1.0f : 0.0f;
  }
  return coverage;
}

tensor::Tensor downsample_binary(const tensor::Tensor& image,
                                 std::int64_t target) {
  HOTSPOT_CHECK_EQ(image.rank(), 2);
  HOTSPOT_CHECK_GT(target, 0);
  const std::int64_t h = image.dim(0);
  const std::int64_t w = image.dim(1);
  HOTSPOT_CHECK_EQ(h % target, 0)
      << "height " << h << " not divisible by " << target;
  HOTSPOT_CHECK_EQ(w % target, 0)
      << "width " << w << " not divisible by " << target;
  const std::int64_t by = h / target;
  const std::int64_t bx = w / target;
  const auto block = static_cast<float>(by * bx);
  tensor::Tensor out({target, target});
  for (std::int64_t ty = 0; ty < target; ++ty) {
    for (std::int64_t tx = 0; tx < target; ++tx) {
      float total = 0.0f;
      for (std::int64_t y = 0; y < by; ++y) {
        for (std::int64_t x = 0; x < bx; ++x) {
          total += image.at2(ty * by + y, tx * bx + x);
        }
      }
      out.at2(ty, tx) = (total / block) >= 0.5f ? 1.0f : 0.0f;
    }
  }
  return out;
}

tensor::Tensor flip_horizontal(const tensor::Tensor& image) {
  HOTSPOT_CHECK_EQ(image.rank(), 2);
  const std::int64_t h = image.dim(0);
  const std::int64_t w = image.dim(1);
  tensor::Tensor out({h, w});
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      out.at2(y, x) = image.at2(y, w - 1 - x);
    }
  }
  return out;
}

tensor::Tensor flip_vertical(const tensor::Tensor& image) {
  HOTSPOT_CHECK_EQ(image.rank(), 2);
  const std::int64_t h = image.dim(0);
  const std::int64_t w = image.dim(1);
  tensor::Tensor out({h, w});
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      out.at2(y, x) = image.at2(h - 1 - y, x);
    }
  }
  return out;
}

}  // namespace hotspot::layout
