// AVX2 kernel: 256-bit XOR + vpshufb nibble-LUT popcount (Mula's
// algorithm), accumulated through vpsadbw into four 64-bit lane sums per
// 256-bit block. Compiled with -mavx2 on its own (this file only); never
// executed unless cpuid reports AVX2 (kernels/dispatch.cpp), so the rest of
// the binary stays portable.
//
// Bit-exactness: integer primitives are exact by construction; weighted_sum
// realizes the canonical 8-lane order of xnor_kernel.h with one vector
// multiply + add per 8-channel block (-ffp-contract=off keeps them two
// rounded operations), a masked vector block for the partial tail, and the
// fixed reduction tree evaluated in registers.
#include "bitops/kernels/xnor_kernel.h"

#if defined(HOTSPOT_XNOR_AVX2)

#include <immintrin.h>

#include <bit>

namespace hotspot::bitops {
namespace {

// Per-64-bit-lane popcount of a 256-bit register: nibble LUT via vpshufb,
// byte sums horizontally folded by vpsadbw against zero.
inline __m256i popcount_epi64(__m256i x) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(x, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline __m256i load256(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline std::int64_t reduce_epi64(__m256i v) {
  const __m128i folded = _mm_add_epi64(_mm256_castsi256_si128(v),
                                       _mm256_extracti128_si256(v, 1));
  return _mm_cvtsi128_si64(folded) + _mm_extract_epi64(folded, 1);
}

std::int64_t avx2_xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t words) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    acc = _mm256_add_epi64(
        acc, popcount_epi64(_mm256_xor_si256(load256(a + w), load256(b + w))));
  }
  std::int64_t mismatches = reduce_epi64(acc);
  for (; w < words; ++w) {
    mismatches += std::popcount(a[w] ^ b[w]);
  }
  return mismatches;
}

void avx2_xor_popcount_2x4(const std::uint64_t* a0, const std::uint64_t* a1,
                           const std::uint64_t* b0, const std::uint64_t* b1,
                           const std::uint64_t* b2, const std::uint64_t* b3,
                           std::int64_t words, std::int64_t acc[8]) {
  __m256i acc00 = _mm256_setzero_si256(), acc01 = _mm256_setzero_si256();
  __m256i acc02 = _mm256_setzero_si256(), acc03 = _mm256_setzero_si256();
  __m256i acc10 = _mm256_setzero_si256(), acc11 = _mm256_setzero_si256();
  __m256i acc12 = _mm256_setzero_si256(), acc13 = _mm256_setzero_si256();
  std::int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i av0 = load256(a0 + w);
    const __m256i av1 = load256(a1 + w);
    const __m256i bv0 = load256(b0 + w);
    const __m256i bv1 = load256(b1 + w);
    const __m256i bv2 = load256(b2 + w);
    const __m256i bv3 = load256(b3 + w);
    acc00 = _mm256_add_epi64(acc00, popcount_epi64(_mm256_xor_si256(av0, bv0)));
    acc01 = _mm256_add_epi64(acc01, popcount_epi64(_mm256_xor_si256(av0, bv1)));
    acc02 = _mm256_add_epi64(acc02, popcount_epi64(_mm256_xor_si256(av0, bv2)));
    acc03 = _mm256_add_epi64(acc03, popcount_epi64(_mm256_xor_si256(av0, bv3)));
    acc10 = _mm256_add_epi64(acc10, popcount_epi64(_mm256_xor_si256(av1, bv0)));
    acc11 = _mm256_add_epi64(acc11, popcount_epi64(_mm256_xor_si256(av1, bv1)));
    acc12 = _mm256_add_epi64(acc12, popcount_epi64(_mm256_xor_si256(av1, bv2)));
    acc13 = _mm256_add_epi64(acc13, popcount_epi64(_mm256_xor_si256(av1, bv3)));
  }
  acc[0] += reduce_epi64(acc00);
  acc[1] += reduce_epi64(acc01);
  acc[2] += reduce_epi64(acc02);
  acc[3] += reduce_epi64(acc03);
  acc[4] += reduce_epi64(acc10);
  acc[5] += reduce_epi64(acc11);
  acc[6] += reduce_epi64(acc12);
  acc[7] += reduce_epi64(acc13);
  for (; w < words; ++w) {
    const std::uint64_t aw0 = a0[w];
    const std::uint64_t aw1 = a1[w];
    acc[0] += std::popcount(aw0 ^ b0[w]);
    acc[1] += std::popcount(aw0 ^ b1[w]);
    acc[2] += std::popcount(aw0 ^ b2[w]);
    acc[3] += std::popcount(aw0 ^ b3[w]);
    acc[4] += std::popcount(aw1 ^ b0[w]);
    acc[5] += std::popcount(aw1 ^ b1[w]);
    acc[6] += std::popcount(aw1 ^ b2[w]);
    acc[7] += std::popcount(aw1 ^ b3[w]);
  }
}

// One 8-channel block as two 256-bit halves, gathered to 8 x i32 counts.
inline __m256 counts8_ps(__m256i counts_lo, __m256i counts_hi) {
  // vpsadbw counts are <= 64, so the high 32 bits of each are zero.
  const __m256i take_low32 = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256i low = _mm256_permutevar8x32_epi32(counts_lo, take_low32);
  const __m256i high = _mm256_permutevar8x32_epi32(counts_hi, take_low32);
  return _mm256_cvtepi32_ps(_mm256_blend_epi32(low, high, 0xF0));
}

// lanes += alpha * (dot_bits - 2 * popcount(a ^ b)) for one 8-channel
// block given as (lo, hi) word halves: an explicit mul + add per lane, the
// canonical two roundings.
inline __m256 accumulate(__m256 lanes, __m256i a_lo, __m256i a_hi,
                         __m256i b_lo, __m256i b_hi, __m256 alphav,
                         __m256 bits) {
  const __m256 mismatches =
      counts8_ps(popcount_epi64(_mm256_xor_si256(a_lo, b_lo)),
                 popcount_epi64(_mm256_xor_si256(a_hi, b_hi)));
  return _mm256_add_ps(
      lanes, _mm256_mul_ps(alphav, _mm256_sub_ps(
                                       bits, _mm256_add_ps(mismatches,
                                                           mismatches))));
}

// Canonical tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) in registers.
// Float addition is commutative, so each pairwise vector sum is bit-for-bit
// its scalar counterpart whichever operand sits in which lane.
inline float reduce_canonical(__m256 lanes) {
  const __m256 pairs = _mm256_add_ps(lanes, _mm256_permute_ps(lanes, 0xB1));
  const __m256 quads = _mm256_add_ps(pairs, _mm256_permute_ps(pairs, 0x4E));
  return _mm_cvtss_f32(_mm_add_ss(_mm256_castps256_ps128(quads),
                                  _mm256_extractf128_ps(quads, 1)));
}

// Load masks for the partial last block of `remaining` (< 8) channels: the
// partial block runs as one more vector block with masked-off lanes loaded
// as zero words and zero alpha. Each such lane adds 0 * dot_bits = +0.0f,
// which leaves it unchanged: a lane starts at +0.0f and can never become
// -0.0f (x + -0.0f and x + (-x) round to +0.0f), so the result equals the
// canonical partial block that skips those lanes.
struct TailMasks {
  __m256i words_lo;  // 64-bit lanes 0..3
  __m256i words_hi;  // 64-bit lanes 4..7
  __m256i floats;    // 32-bit lanes 0..7
};

inline TailMasks tail_masks(std::int64_t remaining) {
  const __m256i r64 = _mm256_set1_epi64x(remaining);
  const auto r32 = _mm256_set1_epi32(static_cast<int>(remaining));
  return {_mm256_cmpgt_epi64(r64, _mm256_setr_epi64x(0, 1, 2, 3)),
          _mm256_cmpgt_epi64(r64, _mm256_setr_epi64x(4, 5, 6, 7)),
          _mm256_cmpgt_epi32(r32, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))};
}

inline __m256i maskload(const std::uint64_t* p, __m256i mask) {
  return _mm256_maskload_epi64(reinterpret_cast<const long long*>(p), mask);
}

float avx2_weighted_sum(const std::uint64_t* a, const std::uint64_t* b,
                        const float* alpha, std::int64_t channels,
                        float dot_bits) {
  __m256 lanes = _mm256_setzero_ps();
  const __m256 bits = _mm256_set1_ps(dot_bits);
  std::int64_t c = 0;
  for (; c + 8 <= channels; c += 8) {
    lanes = accumulate(lanes, load256(a + c), load256(a + c + 4),
                       load256(b + c), load256(b + c + 4),
                       _mm256_loadu_ps(alpha + c), bits);
  }
  if (c < channels) {
    const TailMasks m = tail_masks(channels - c);
    lanes = accumulate(lanes, maskload(a + c, m.words_lo),
                       maskload(a + c + 4, m.words_hi),
                       maskload(b + c, m.words_lo),
                       maskload(b + c + 4, m.words_hi),
                       _mm256_maskload_ps(alpha + c, m.floats), bits);
  }
  return reduce_canonical(lanes);
}

// Four filters per call: shared a/alpha loads, four independent lane
// chains; each chain is the canonical order, so out[f] is bit-for-bit the
// single-filter avx2_weighted_sum result.
void avx2_weighted_sum_x4(const std::uint64_t* a, const std::uint64_t* b0,
                          const std::uint64_t* b1, const std::uint64_t* b2,
                          const std::uint64_t* b3, const float* alpha,
                          std::int64_t channels, float dot_bits,
                          float out[4]) {
  __m256 lanes0 = _mm256_setzero_ps(), lanes1 = _mm256_setzero_ps();
  __m256 lanes2 = _mm256_setzero_ps(), lanes3 = _mm256_setzero_ps();
  const __m256 bits = _mm256_set1_ps(dot_bits);
  std::int64_t c = 0;
  for (; c + 8 <= channels; c += 8) {
    const __m256i a_lo = load256(a + c);
    const __m256i a_hi = load256(a + c + 4);
    const __m256 alphav = _mm256_loadu_ps(alpha + c);
    lanes0 = accumulate(lanes0, a_lo, a_hi, load256(b0 + c),
                        load256(b0 + c + 4), alphav, bits);
    lanes1 = accumulate(lanes1, a_lo, a_hi, load256(b1 + c),
                        load256(b1 + c + 4), alphav, bits);
    lanes2 = accumulate(lanes2, a_lo, a_hi, load256(b2 + c),
                        load256(b2 + c + 4), alphav, bits);
    lanes3 = accumulate(lanes3, a_lo, a_hi, load256(b3 + c),
                        load256(b3 + c + 4), alphav, bits);
  }
  if (c < channels) {
    const TailMasks m = tail_masks(channels - c);
    const __m256i a_lo = maskload(a + c, m.words_lo);
    const __m256i a_hi = maskload(a + c + 4, m.words_hi);
    const __m256 alphav = _mm256_maskload_ps(alpha + c, m.floats);
    lanes0 = accumulate(lanes0, a_lo, a_hi, maskload(b0 + c, m.words_lo),
                        maskload(b0 + c + 4, m.words_hi), alphav, bits);
    lanes1 = accumulate(lanes1, a_lo, a_hi, maskload(b1 + c, m.words_lo),
                        maskload(b1 + c + 4, m.words_hi), alphav, bits);
    lanes2 = accumulate(lanes2, a_lo, a_hi, maskload(b2 + c, m.words_lo),
                        maskload(b2 + c + 4, m.words_hi), alphav, bits);
    lanes3 = accumulate(lanes3, a_lo, a_hi, maskload(b3 + c, m.words_lo),
                        maskload(b3 + c + 4, m.words_hi), alphav, bits);
  }
  out[0] = reduce_canonical(lanes0);
  out[1] = reduce_canonical(lanes1);
  out[2] = reduce_canonical(lanes2);
  out[3] = reduce_canonical(lanes3);
}

}  // namespace

const XnorKernel& xnor_kernel_avx2() {
  static const XnorKernel kernel{
      "avx2", "binary_conv.gemm.avx2",
      /*simd_bits=*/256,
      /*word_multiple=*/4, avx2_xor_popcount,
      avx2_xor_popcount_2x4, avx2_weighted_sum,
      avx2_weighted_sum_x4,
  };
  return kernel;
}

}  // namespace hotspot::bitops

#endif  // HOTSPOT_XNOR_AVX2
