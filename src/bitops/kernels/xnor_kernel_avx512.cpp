// AVX-512 kernel: 512-bit XOR + native per-qword popcount (VPOPCNTDQ).
// Requires AVX512F + AVX512DQ (vcvtqq2ps for weighted_sum) + VPOPCNTDQ;
// kernels/dispatch.cpp checks all three before this kernel is ever called.
// Compiled with -mavx512f -mavx512dq -mavx512vpopcntdq on this file only.
//
// Bit-exactness: integer primitives are exact; weighted_sum realizes the
// canonical 8-lane order of xnor_kernel.h — one 512-bit block is exactly one
// 8-channel canonical block, converted to 8 floats and accumulated with an
// explicit mul + add (-ffp-contract=off) into the same 8 lanes. The partial
// last block and the reduction tree also stay in registers (see
// tail_mask and reduce_canonical).
#include "bitops/kernels/xnor_kernel.h"

#if defined(HOTSPOT_XNOR_AVX512)

#include <immintrin.h>

#include <bit>

namespace hotspot::bitops {
namespace {

inline __m512i load512(const std::uint64_t* p) {
  return _mm512_loadu_si512(static_cast<const void*>(p));
}

std::int64_t avx512_xor_popcount(const std::uint64_t* a,
                                 const std::uint64_t* b, std::int64_t words) {
  __m512i acc = _mm512_setzero_si512();
  std::int64_t w = 0;
  for (; w + 8 <= words; w += 8) {
    acc = _mm512_add_epi64(
        acc,
        _mm512_popcnt_epi64(_mm512_xor_si512(load512(a + w), load512(b + w))));
  }
  std::int64_t mismatches = _mm512_reduce_add_epi64(acc);
  for (; w < words; ++w) {
    mismatches += std::popcount(a[w] ^ b[w]);
  }
  return mismatches;
}

void avx512_xor_popcount_2x4(const std::uint64_t* a0, const std::uint64_t* a1,
                             const std::uint64_t* b0, const std::uint64_t* b1,
                             const std::uint64_t* b2, const std::uint64_t* b3,
                             std::int64_t words, std::int64_t acc[8]) {
  __m512i acc00 = _mm512_setzero_si512(), acc01 = _mm512_setzero_si512();
  __m512i acc02 = _mm512_setzero_si512(), acc03 = _mm512_setzero_si512();
  __m512i acc10 = _mm512_setzero_si512(), acc11 = _mm512_setzero_si512();
  __m512i acc12 = _mm512_setzero_si512(), acc13 = _mm512_setzero_si512();
  std::int64_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i av0 = load512(a0 + w);
    const __m512i av1 = load512(a1 + w);
    const __m512i bv0 = load512(b0 + w);
    const __m512i bv1 = load512(b1 + w);
    const __m512i bv2 = load512(b2 + w);
    const __m512i bv3 = load512(b3 + w);
    acc00 = _mm512_add_epi64(
        acc00, _mm512_popcnt_epi64(_mm512_xor_si512(av0, bv0)));
    acc01 = _mm512_add_epi64(
        acc01, _mm512_popcnt_epi64(_mm512_xor_si512(av0, bv1)));
    acc02 = _mm512_add_epi64(
        acc02, _mm512_popcnt_epi64(_mm512_xor_si512(av0, bv2)));
    acc03 = _mm512_add_epi64(
        acc03, _mm512_popcnt_epi64(_mm512_xor_si512(av0, bv3)));
    acc10 = _mm512_add_epi64(
        acc10, _mm512_popcnt_epi64(_mm512_xor_si512(av1, bv0)));
    acc11 = _mm512_add_epi64(
        acc11, _mm512_popcnt_epi64(_mm512_xor_si512(av1, bv1)));
    acc12 = _mm512_add_epi64(
        acc12, _mm512_popcnt_epi64(_mm512_xor_si512(av1, bv2)));
    acc13 = _mm512_add_epi64(
        acc13, _mm512_popcnt_epi64(_mm512_xor_si512(av1, bv3)));
  }
  acc[0] += _mm512_reduce_add_epi64(acc00);
  acc[1] += _mm512_reduce_add_epi64(acc01);
  acc[2] += _mm512_reduce_add_epi64(acc02);
  acc[3] += _mm512_reduce_add_epi64(acc03);
  acc[4] += _mm512_reduce_add_epi64(acc10);
  acc[5] += _mm512_reduce_add_epi64(acc11);
  acc[6] += _mm512_reduce_add_epi64(acc12);
  acc[7] += _mm512_reduce_add_epi64(acc13);
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

// Canonical tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) in registers.
// Float addition is commutative, so each pairwise vector sum is bit-for-bit
// its scalar counterpart whichever operand sits in which lane.
inline float reduce_canonical(__m256 lanes) {
  const __m256 pairs = _mm256_add_ps(lanes, _mm256_permute_ps(lanes, 0xB1));
  const __m256 quads = _mm256_add_ps(pairs, _mm256_permute_ps(pairs, 0x4E));
  return _mm_cvtss_f32(_mm_add_ss(_mm256_castps256_ps128(quads),
                                  _mm256_extractf128_ps(quads, 1)));
}

// lanes += alpha * (dot_bits - 2 * popcount(a ^ b)) for one 8-channel
// block: an explicit mul + add per lane, the canonical two roundings.
inline __m256 accumulate(__m256 lanes, __m512i av, __m512i bv, __m256 alphav,
                         __m256 bits) {
  const __m256 mismatches =
      _mm512_cvtepi64_ps(_mm512_popcnt_epi64(_mm512_xor_si512(av, bv)));
  return _mm256_add_ps(
      lanes, _mm256_mul_ps(alphav, _mm256_sub_ps(
                                       bits, _mm256_add_ps(mismatches,
                                                           mismatches))));
}

// The partial last block runs as one more vector block with masked-off
// lanes loaded as zero words and zero alpha. Each such lane adds
// 0 * dot_bits = +0.0f, which leaves it unchanged: a lane starts at +0.0f
// and can never become -0.0f (x + -0.0f and x + (-x) round to +0.0f), so
// the result equals the canonical partial block that skips those lanes.
inline __mmask8 tail_mask(std::int64_t remaining) {
  return static_cast<__mmask8>((1u << remaining) - 1);
}

float avx512_weighted_sum(const std::uint64_t* a, const std::uint64_t* b,
                          const float* alpha, std::int64_t channels,
                          float dot_bits) {
  __m256 lanes = _mm256_setzero_ps();
  const __m256 bits = _mm256_set1_ps(dot_bits);
  std::int64_t c = 0;
  for (; c + 8 <= channels; c += 8) {
    lanes = accumulate(lanes, load512(a + c), load512(b + c),
                       _mm256_loadu_ps(alpha + c), bits);
  }
  if (c < channels) {
    const __mmask8 m = tail_mask(channels - c);
    lanes = accumulate(
        lanes, _mm512_maskz_loadu_epi64(m, a + c),
        _mm512_maskz_loadu_epi64(m, b + c),
        _mm512_castps512_ps256(_mm512_maskz_loadu_ps(m, alpha + c)), bits);
  }
  return reduce_canonical(lanes);
}

// Four filters per call: one shared (a XOR-side, alpha) load per 8-channel
// block feeding four independent lane-accumulator chains. Each chain
// realizes the same canonical order as avx512_weighted_sum, so out[f] is
// bit-for-bit what the single-filter form returns.
void avx512_weighted_sum_x4(const std::uint64_t* a, const std::uint64_t* b0,
                            const std::uint64_t* b1, const std::uint64_t* b2,
                            const std::uint64_t* b3, const float* alpha,
                            std::int64_t channels, float dot_bits,
                            float out[4]) {
  __m256 lanes0 = _mm256_setzero_ps(), lanes1 = _mm256_setzero_ps();
  __m256 lanes2 = _mm256_setzero_ps(), lanes3 = _mm256_setzero_ps();
  const __m256 bits = _mm256_set1_ps(dot_bits);
  std::int64_t c = 0;
  for (; c + 8 <= channels; c += 8) {
    const __m512i av = load512(a + c);
    const __m256 alphav = _mm256_loadu_ps(alpha + c);
    lanes0 = accumulate(lanes0, av, load512(b0 + c), alphav, bits);
    lanes1 = accumulate(lanes1, av, load512(b1 + c), alphav, bits);
    lanes2 = accumulate(lanes2, av, load512(b2 + c), alphav, bits);
    lanes3 = accumulate(lanes3, av, load512(b3 + c), alphav, bits);
  }
  if (c < channels) {
    const __mmask8 m = tail_mask(channels - c);
    const __m512i av = _mm512_maskz_loadu_epi64(m, a + c);
    const __m256 alphav =
        _mm512_castps512_ps256(_mm512_maskz_loadu_ps(m, alpha + c));
    lanes0 = accumulate(lanes0, av, _mm512_maskz_loadu_epi64(m, b0 + c),
                        alphav, bits);
    lanes1 = accumulate(lanes1, av, _mm512_maskz_loadu_epi64(m, b1 + c),
                        alphav, bits);
    lanes2 = accumulate(lanes2, av, _mm512_maskz_loadu_epi64(m, b2 + c),
                        alphav, bits);
    lanes3 = accumulate(lanes3, av, _mm512_maskz_loadu_epi64(m, b3 + c),
                        alphav, bits);
  }
  out[0] = reduce_canonical(lanes0);
  out[1] = reduce_canonical(lanes1);
  out[2] = reduce_canonical(lanes2);
  out[3] = reduce_canonical(lanes3);
}

}  // namespace

const XnorKernel& xnor_kernel_avx512() {
  static const XnorKernel kernel{
      "avx512", "binary_conv.gemm.avx512",
      /*simd_bits=*/512,
      /*word_multiple=*/8, avx512_xor_popcount,
      avx512_xor_popcount_2x4, avx512_weighted_sum,
      avx512_weighted_sum_x4,
  };
  return kernel;
}

}  // namespace hotspot::bitops

#endif  // HOTSPOT_XNOR_AVX512
