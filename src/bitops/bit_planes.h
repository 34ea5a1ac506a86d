// Per-(sample, channel) activation bit planes and binarize thresholds.
//
// A BitPlanes holds one bitmap row per (n*C + c, y) of an NCHW tensor with
// bit x describing input[n,c,y,x]; bits at x >= W are zero. The packers in
// xnor_gemm.h assemble conv patch words from these bitmaps with shifts
// instead of kh*kw float loads per output position, so every input float is
// read exactly once during packing.
//
// Two binarization rules produce the bits:
//   - sign:      bit = (v >= 0), matching tensor::sign (sign(0) = +1);
//   - threshold: bit = (v >= bound) != flip, one BinarizeThreshold per
//     channel. This is how the conv block's BN->Binarize fold consumes a
//     batch-norm: instead of materializing y = gamma*xhat + beta and taking
//     sign(y), the fold computes a per-channel bound on the *raw* input
//     such that the comparison gives the same bit for every finite float
//     (core/binary_conv_block.h derives the bound by bisection; flip is set
//     for negative-gamma channels, where y is a decreasing function of x).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace hotspot::bitops {

// bit(v) = (v >= bound) != flip. The default is the sign rule. A constant
// channel is expressed with an infinite bound: bound = -inf always fires,
// bound = +inf never does (for finite v).
struct BinarizeThreshold {
  float bound = 0.0f;
  bool flip = false;
};

inline bool apply(const BinarizeThreshold& t, float v) {
  return (v >= t.bound) != t.flip;
}

class BitPlanes {
 public:
  BitPlanes() = default;

  // Sign rule: bit = (v >= 0).
  explicit BitPlanes(const tensor::Tensor& input);

  // Threshold rule: `thresholds` has one entry per channel (input.dim(1)).
  BitPlanes(const tensor::Tensor& input, const BinarizeThreshold* thresholds);

  std::int64_t batch() const { return n_; }
  std::int64_t channels() const { return c_; }
  std::int64_t height() const { return h_; }
  std::int64_t width() const { return w_; }
  std::int64_t row_words() const { return row_words_; }

  // Bitmap row y of plane (n*channels + c); caller guarantees bounds.
  const std::uint64_t* row(std::int64_t plane, std::int64_t y) const {
    return words_.data() + (plane * h_ + y) * row_words_;
  }

  bool get(std::int64_t n, std::int64_t c, std::int64_t y,
           std::int64_t x) const {
    return (row(n * c_ + c, y)[x >> 6] >> (x & 63)) & 1u;
  }

  // kw bits of bitmap row `bm` starting at column ix0 (bit i = column
  // ix0 + i); columns outside [0, w) read as zero (padding is -1 -> bit 0).
  // Requires ix0 > -64 (pad < 64). A window that starts at or right of the
  // last word (a 1x1 conv's pad column when w is a multiple of 64) reads
  // nothing from `bm`.
  std::uint64_t window_bits(const std::uint64_t* bm, std::int64_t ix0,
                            std::int64_t kw) const {
    std::uint64_t v;
    if (ix0 >= 0) {
      const std::int64_t wi = ix0 >> 6;
      if (wi >= row_words_) {
        return 0;
      }
      const int off = static_cast<int>(ix0 & 63);
      v = bm[wi] >> off;
      if (off != 0 && wi + 1 < row_words_) {
        v |= bm[wi + 1] << (64 - off);
      }
    } else {
      v = bm[0] << -ix0;  // low -ix0 bits are left-padding zeros
    }
    return kw < 64 ? v & ((std::uint64_t{1} << kw) - 1) : v;
  }

 private:
  std::int64_t n_ = 0;
  std::int64_t c_ = 0;
  std::int64_t h_ = 0;
  std::int64_t w_ = 0;
  std::int64_t row_words_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hotspot::bitops
