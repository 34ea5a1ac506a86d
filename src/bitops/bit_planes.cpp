#include "bitops/bit_planes.h"

#include "util/parallel.h"

namespace hotspot::bitops {

BitPlanes::BitPlanes(const tensor::Tensor& input)
    : BitPlanes(input, nullptr) {}

BitPlanes::BitPlanes(const tensor::Tensor& input,
                     const BinarizeThreshold* thresholds)
    : n_(input.dim(0)),
      c_(input.dim(1)),
      h_(input.dim(2)),
      w_(input.dim(3)),
      row_words_((input.dim(3) + 63) >> 6),
      words_(static_cast<std::size_t>(n_ * c_ * h_ * row_words_), 0) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t planes = n_ * c_;
  util::parallel_for(
      0, planes, util::grain_for_work(h_ * w_),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t plane = lo; plane < hi; ++plane) {
          const float* src = input.data() + plane * h_ * w_;
          std::uint64_t* dst = words_.data() + plane * h_ * row_words_;
          // Hoist the channel's rule out of the pixel loop; the sign rule
          // is the threshold rule at {bound = 0, flip = false}
          // ((v >= 0) != false), so both paths binarize identically when
          // the bound is zero.
          const BinarizeThreshold t = thresholds != nullptr
                                          ? thresholds[plane % c_]
                                          : BinarizeThreshold{};
          const float bound = t.bound;
          const std::uint64_t flip = t.flip ? 1u : 0u;
          for (std::int64_t y = 0; y < h_;
               ++y, src += w_, dst += row_words_) {
            for (std::int64_t x = 0; x < w_; ++x) {
              dst[x >> 6] |=
                  (std::uint64_t{src[x] >= bound} ^ flip) << (x & 63);
            }
          }
        }
      });
}

}  // namespace hotspot::bitops
