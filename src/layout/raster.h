// Rasterization of Manhattan patterns to pixel grids, plus the image-level
// preprocessing of Sec. 3.4.1 (down-sampling and flips).
#pragma once

#include <span>

#include "layout/geometry.h"
#include "tensor/tensor.h"

namespace hotspot::layout {

// The one rasterizer: writes the area-coverage raster of `rects` over
// `window` into out[0, grid * grid) (row-major, overwritten). Each pixel
// holds the covered area fraction, accumulated in rect order and clamped
// at 1. Every raster in the repo (coverage, binary, clips, the scan
// producer) comes from here; `out` is caller-owned so a hot loop can reuse
// it.
void rasterize_coverage_into(std::span<const Rect> rects, const Rect& window,
                             std::int64_t grid, float* out);

// Rasterizes `pattern` over `window` onto a grid x grid raster. Each pixel
// holds the covered area fraction in [0,1] (exact, by rect/pixel
// intersection), which the lithography model consumes directly.
tensor::Tensor rasterize_coverage(const Pattern& pattern, const Rect& window,
                                  std::int64_t grid);

// Coverage raster thresholded at 0.5 into a binary {0,1} image.
tensor::Tensor rasterize_binary(const Pattern& pattern, const Rect& window,
                                std::int64_t grid);

// Box down-sampling of a [H,W] image to [target,target]; H and W must be
// multiples of target. Averages then thresholds at 0.5, keeping the result
// binary (the paper feeds down-sampled binary images directly).
tensor::Tensor downsample_binary(const tensor::Tensor& image,
                                 std::int64_t target);

// Horizontal / vertical mirror of a [H,W] image (training augmentation).
tensor::Tensor flip_horizontal(const tensor::Tensor& image);
tensor::Tensor flip_vertical(const tensor::Tensor& image);

}  // namespace hotspot::layout
