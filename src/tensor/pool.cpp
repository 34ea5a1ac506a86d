#include "tensor/pool.h"

#include <algorithm>

#include "util/parallel.h"

namespace hotspot::tensor {
namespace {

std::int64_t pool_out_extent(std::int64_t in, const PoolSpec& spec) {
  HOTSPOT_CHECK_GT(spec.stride, 0);
  HOTSPOT_CHECK_GT(spec.window, 0);
  if (in < spec.window) {
    return in > 0 ? 1 : 0;
  }
  return (in - spec.window) / spec.stride + 1;
}

}  // namespace

Tensor avg_pool2d(const Tensor& input, const PoolSpec& spec) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t out_h = pool_out_extent(h, spec);
  const std::int64_t out_w = pool_out_extent(w, spec);
  Tensor out({n, c, out_h, out_w});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const std::int64_t y0 = oy * spec.stride;
          const std::int64_t x0 = ox * spec.stride;
          const std::int64_t y1 = std::min(y0 + spec.window, h);
          const std::int64_t x1 = std::min(x0 + spec.window, w);
          double acc = 0.0;
          for (std::int64_t y = y0; y < y1; ++y) {
            for (std::int64_t x = x0; x < x1; ++x) {
              acc += static_cast<double>(input.at4(ni, ci, y, x));
            }
          }
          const auto count = static_cast<double>((y1 - y0) * (x1 - x0));
          out.at4(ni, ci, oy, ox) = static_cast<float>(acc / count);
        }
      }
    }
  }
  return out;
}

Tensor avg_pool2d_backward(const Tensor& grad_output, const Shape& input_shape,
                           const PoolSpec& spec) {
  HOTSPOT_CHECK_EQ(grad_output.rank(), 4);
  Tensor grad_input(input_shape);
  const std::int64_t n = input_shape[0];
  const std::int64_t c = input_shape[1];
  const std::int64_t h = input_shape[2];
  const std::int64_t w = input_shape[3];
  const std::int64_t out_h = grad_output.dim(2);
  const std::int64_t out_w = grad_output.dim(3);
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const std::int64_t y0 = oy * spec.stride;
          const std::int64_t x0 = ox * spec.stride;
          const std::int64_t y1 = std::min(y0 + spec.window, h);
          const std::int64_t x1 = std::min(x0 + spec.window, w);
          const float share =
              grad_output.at4(ni, ci, oy, ox) /
              static_cast<float>((y1 - y0) * (x1 - x0));
          for (std::int64_t y = y0; y < y1; ++y) {
            for (std::int64_t x = x0; x < x1; ++x) {
              grad_input.at4(ni, ci, y, x) += share;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

Tensor max_pool2d(const Tensor& input, const PoolSpec& spec, Tensor* argmax) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t out_h = pool_out_extent(h, spec);
  const std::int64_t out_w = pool_out_extent(w, spec);
  Tensor out({n, c, out_h, out_w});
  if (argmax != nullptr) {
    *argmax = Tensor({n, c, out_h, out_w});
  }
  // One (sample, channel) plane per index: disjoint output and argmax
  // slices, each scanned in the same window order as a serial loop.
  const std::int64_t grain = util::grain_for_work(h * w);
  util::parallel_for(0, n * c, grain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t index = lo; index < hi; ++index) {
      const float* plane = input.data() + index * h * w;
      float* dst = out.data() + index * out_h * out_w;
      float* dst_arg =
          argmax != nullptr ? argmax->data() + index * out_h * out_w : nullptr;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const std::int64_t y0 = oy * spec.stride;
          const std::int64_t x0 = ox * spec.stride;
          const std::int64_t y1 = std::min(y0 + spec.window, h);
          const std::int64_t x1 = std::min(x0 + spec.window, w);
          float best = plane[y0 * w + x0];
          std::int64_t best_index = y0 * w + x0;
          for (std::int64_t y = y0; y < y1; ++y) {
            for (std::int64_t x = x0; x < x1; ++x) {
              const float value = plane[y * w + x];
              if (value > best) {
                best = value;
                best_index = y * w + x;
              }
            }
          }
          dst[oy * out_w + ox] = best;
          if (dst_arg != nullptr) {
            dst_arg[oy * out_w + ox] = static_cast<float>(best_index);
          }
        }
      }
    }
  });
  return out;
}

Tensor max_pool2d_backward(const Tensor& grad_output, const Tensor& argmax,
                           const Shape& input_shape, const PoolSpec&) {
  HOTSPOT_CHECK(grad_output.same_shape(argmax))
      << "argmax must come from the matching forward call";
  Tensor grad_input(input_shape);
  const std::int64_t n = grad_output.dim(0);
  const std::int64_t c = grad_output.dim(1);
  const std::int64_t out_h = grad_output.dim(2);
  const std::int64_t out_w = grad_output.dim(3);
  const std::int64_t w = input_shape[3];
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const auto flat =
              static_cast<std::int64_t>(argmax.at4(ni, ci, oy, ox));
          grad_input.at4(ni, ci, flat / w, flat % w) +=
              grad_output.at4(ni, ci, oy, ox);
        }
      }
    }
  }
  return grad_input;
}

Tensor global_avg_pool(const Tensor& input) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t hw = input.dim(2) * input.dim(3);
  HOTSPOT_CHECK_GT(hw, 0);
  Tensor out({n, c});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float* plane = input.data() + (ni * c + ci) * hw;
      double acc = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) {
        acc += static_cast<double>(plane[i]);
      }
      out.at2(ni, ci) = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
  return out;
}

Tensor global_avg_pool_backward(const Tensor& grad_output,
                                const Shape& input_shape) {
  HOTSPOT_CHECK_EQ(grad_output.rank(), 2);
  Tensor grad_input(input_shape);
  const std::int64_t n = input_shape[0];
  const std::int64_t c = input_shape[1];
  const std::int64_t hw = input_shape[2] * input_shape[3];
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float share =
          grad_output.at2(ni, ci) / static_cast<float>(hw);
      float* plane = grad_input.data() + (ni * c + ci) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        plane[i] = share;
      }
    }
  }
  return grad_input;
}

}  // namespace hotspot::tensor
