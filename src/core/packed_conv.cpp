#include "core/packed_conv.h"

#include <algorithm>
#include <vector>

#include "util/parallel.h"

namespace hotspot::core {
namespace {

// Shape of one output row's tile build. Passed by value so the hot loops
// hold it in registers: stores into the uint64 tile could otherwise alias
// the int64 fields and force a reload after every word.
struct RowTileShape {
  std::int64_t cin;
  std::int64_t h;
  std::int64_t kh;
  std::int64_t kw;
  std::int64_t stride;
  std::int64_t pad;
  std::int64_t out_h;
  std::int64_t out_w;
  std::int64_t shifted_words;  // words per re-based bitmap row
  std::uint64_t window_mask;   // low kw bits
};

// Writes bitmap row `bm` (row_words words, zero past the image width)
// shifted left by `pad` bits into out[0..out_words): bit q of the result is
// bit q - pad of the row, zero where that is outside the row.
void shift_row(const std::uint64_t* bm, std::int64_t row_words,
               std::int64_t pad, std::uint64_t* out, std::int64_t out_words) {
  std::uint64_t carry = 0;
  for (std::int64_t j = 0; j < out_words; ++j) {
    const std::uint64_t word = j < row_words ? bm[j] : 0;
    out[j] = pad == 0 ? word : (word << pad) | carry;
    carry = pad == 0 ? 0 : word >> (64 - pad);
  }
}

// Builds the tile of output row (ni, oy): for each output position ox,
// tile_bits[ox * cin + ci] is channel ci's kh*kw patch word (bit
// ky*kw + kx = input (iy0 + ky, ix0 + kx), zero outside the image) and
// tile_alpha[ox * cin + ci] its alpha_T. `shifted` is scratch for the
// kh re-based bitmap rows of every channel.
void build_row_tile(const RowTileShape g, const bitops::BitPlanes& planes,
                    const float* alpha_t, std::int64_t ni, std::int64_t oy,
                    std::uint64_t* shifted, std::uint64_t* tile_bits,
                    float* tile_alpha) {
  // Re-base the kh input rows of every channel to the padded frame (bit q
  // is input column q - pad), so window ox starts at bit ox * stride >= 0.
  const std::int64_t iy0 = oy * g.stride - g.pad;
  for (std::int64_t ci = 0; ci < g.cin; ++ci) {
    const std::int64_t plane = ni * g.cin + ci;
    for (std::int64_t ky = 0; ky < g.kh; ++ky) {
      const std::int64_t iy = iy0 + ky;
      std::uint64_t* dst = shifted + (ci * g.kh + ky) * g.shifted_words;
      // Rows outside the image stay zero (padding is -1 -> bit 0).
      if (iy < 0 || iy >= g.h) {
        std::fill(dst, dst + g.shifted_words, std::uint64_t{0});
      } else {
        shift_row(planes.row(plane, iy), planes.row_words(), g.pad, dst,
                  g.shifted_words);
      }
    }
    const float* asrc = alpha_t + (plane * g.out_h + oy) * g.out_w;
    float* alpha = tile_alpha + ci;
    for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
      alpha[ox * g.cin] = asrc[ox];
    }
  }
  for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
    const std::int64_t q = ox * g.stride;
    const int off = static_cast<int>(q & 63);
    const std::uint64_t* src = shifted + (q >> 6);
    std::uint64_t* bits = tile_bits + ox * g.cin;
    for (std::int64_t ci = 0; ci < g.cin; ++ci) {
      std::uint64_t word = 0;
      for (std::int64_t ky = 0; ky < g.kh; ++ky) {
        // (x << 1) << (63 - off) is x << (64 - off) without the undefined
        // 64-bit shift at off == 0; the trailing zero word of each
        // re-based row makes src[1] always readable.
        const std::uint64_t window =
            ((src[0] >> off) | ((src[1] << 1) << (63 - off))) &
            g.window_mask;
        word |= window << (ky * g.kw);
        src += g.shifted_words;
      }
      bits[ci] = word;
    }
  }
}

}  // namespace

void direct_conv_per_channel(const bitops::XnorKernel& kern,
                             const bitops::BitPlanes& planes,
                             const tensor::ConvSpec& spec,
                             const bitops::BitMatrix& filters,
                             const tensor::Tensor& alpha_t,
                             const tensor::Tensor& alpha_w,
                             tensor::Tensor& output) {
  const std::int64_t n = planes.batch();
  const std::int64_t cin = planes.channels();
  const std::int64_t kh = spec.kernel_h;
  const std::int64_t kw = spec.kernel_w;
  const std::int64_t out_channels = filters.rows();
  const std::int64_t out_h = output.dim(2);
  const std::int64_t out_w = output.dim(3);
  const std::int64_t positions = out_h * out_w;
  HOTSPOT_CHECK_LE(kh * kw, 64) << "channel-blocked conv needs kh*kw <= 64";
  HOTSPOT_CHECK_LT(spec.pad, 64) << "bit-plane window shift";
  HOTSPOT_CHECK_EQ(filters.words_per_row(), cin);
  HOTSPOT_CHECK_EQ(output.dim(0), n);
  HOTSPOT_CHECK_EQ(output.dim(1), out_channels);
  HOTSPOT_CHECK_EQ(out_h, tensor::conv_out_extent(planes.height(), kh,
                                                  spec.stride, spec.pad));
  HOTSPOT_CHECK_EQ(out_w, tensor::conv_out_extent(planes.width(), kw,
                                                  spec.stride, spec.pad));
  HOTSPOT_CHECK_EQ(alpha_t.numel(), n * cin * positions);
  HOTSPOT_CHECK_EQ(alpha_w.numel(), out_channels);
  const RowTileShape shape{
      cin,
      planes.height(),
      kh,
      kw,
      spec.stride,
      spec.pad,
      out_h,
      out_w,
      // One trailing zero word covers the straddle read of the last window.
      ((planes.width() + 2 * spec.pad + 63) >> 6) + 1,
      kw < 64 ? (std::uint64_t{1} << kw) - 1 : ~std::uint64_t{0},
  };
  const auto kkf = static_cast<float>(kh * kw);
  const float* aw = alpha_w.data();
  util::parallel_for(
      0, n * out_h, util::grain_for_work(out_w * out_channels * cin),
      [&](std::int64_t lo, std::int64_t hi) {
        // Per-chunk scratch, reused row after row.
        std::vector<std::uint64_t> tile_bits(
            static_cast<std::size_t>(out_w * cin), 0);
        std::vector<float> tile_alpha(static_cast<std::size_t>(out_w * cin),
                                      0.0f);
        std::vector<std::uint64_t> shifted(
            static_cast<std::size_t>(cin * kh * shape.shifted_words), 0);
        for (std::int64_t row = lo; row < hi; ++row) {
          const std::int64_t ni = row / out_h;
          const std::int64_t oy = row % out_h;
          build_row_tile(shape, planes, alpha_t.data(), ni, oy,
                         shifted.data(), tile_bits.data(), tile_alpha.data());
          float* out_row =
              output.data() + ni * out_channels * positions + oy * out_w;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::uint64_t* prow = tile_bits.data() + ox * cin;
            const float* arow = tile_alpha.data() + ox * cin;
            float* out_base = out_row + ox;
            // Four filters per kernel call: the patch words and scales are
            // loaded once per channel block and feed four independent
            // accumulator chains (bit-identical to four weighted_sum calls
            // by the kernel contract).
            std::int64_t co = 0;
            for (; co + 4 <= out_channels; co += 4) {
              float quad[4];
              kern.weighted_sum_x4(prow, filters.row(co), filters.row(co + 1),
                                   filters.row(co + 2), filters.row(co + 3),
                                   arow, cin, kkf, quad);
              out_base[co * positions] = quad[0] * aw[co];
              out_base[(co + 1) * positions] = quad[1] * aw[co + 1];
              out_base[(co + 2) * positions] = quad[2] * aw[co + 2];
              out_base[(co + 3) * positions] = quad[3] * aw[co + 3];
            }
            for (; co < out_channels; ++co) {
              const float acc = kern.weighted_sum(prow, filters.row(co), arow,
                                                  cin, kkf);
              out_base[co * positions] = acc * aw[co];
            }
          }
        }
      });
}

void packed_conv_epilogue(const tensor::Tensor& counts,
                          const tensor::Tensor& alpha_w,
                          const tensor::Tensor* post_alpha,
                          std::int64_t out_channels, tensor::Tensor& output) {
  const std::int64_t n = output.dim(0);
  const std::int64_t out_h = output.dim(2);
  const std::int64_t out_w = output.dim(3);
  const std::int64_t positions = out_h * out_w;
  HOTSPOT_CHECK_EQ(counts.dim(0), n * positions);
  HOTSPOT_CHECK_EQ(counts.dim(1), out_channels);
  util::parallel_for(0, n * positions, /*grain=*/64, [&](std::int64_t lo,
                                                         std::int64_t hi) {
    for (std::int64_t row = lo; row < hi; ++row) {
      const std::int64_t ni = row / positions;
      const std::int64_t p = row % positions;
      // post = 1.0f multiplies exactly, so the no-scaling path matches a
      // hypothetical two-factor epilogue bit-for-bit.
      const float post =
          post_alpha != nullptr ? post_alpha->at4(ni, 0, p / out_w, p % out_w)
                                : 1.0f;
      const float* src = counts.data() + row * out_channels;
      float* dst = output.data() + ni * out_channels * positions + p;
      for (std::int64_t co = 0; co < out_channels; ++co) {
        dst[co * positions] = src[co] * alpha_w[co] * post;
      }
    }
  });
}

}  // namespace hotspot::core
