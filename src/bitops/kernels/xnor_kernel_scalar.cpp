// Scalar reference kernel: one uint64 word per step, std::popcount.
//
// This is the always-available fallback and the bit-exactness reference for
// the SIMD kernels, so the canonical weighted order (xnor_kernel.h) is
// spelled out here in its plainest form. Compiled with -ffp-contract=off
// (src/bitops/CMakeLists.txt) so the multiply-add stays two rounded
// operations, matching the vector kernels' explicit mul + add.
#include <bit>

#include "bitops/kernels/xnor_kernel.h"

namespace hotspot::bitops {
namespace {

std::int64_t scalar_xor_popcount(const std::uint64_t* a,
                                 const std::uint64_t* b, std::int64_t words) {
  std::int64_t mismatches = 0;
  for (std::int64_t w = 0; w < words; ++w) {
    mismatches += std::popcount(a[w] ^ b[w]);
  }
  return mismatches;
}

void scalar_xor_popcount_2x4(const std::uint64_t* a0, const std::uint64_t* a1,
                             const std::uint64_t* b0, const std::uint64_t* b1,
                             const std::uint64_t* b2, const std::uint64_t* b3,
                             std::int64_t words, std::int64_t acc[8]) {
  std::int64_t acc00 = 0, acc01 = 0, acc02 = 0, acc03 = 0;
  std::int64_t acc10 = 0, acc11 = 0, acc12 = 0, acc13 = 0;
  for (std::int64_t w = 0; w < words; ++w) {
    const std::uint64_t aw0 = a0[w];
    const std::uint64_t aw1 = a1[w];
    const std::uint64_t bw0 = b0[w];
    const std::uint64_t bw1 = b1[w];
    const std::uint64_t bw2 = b2[w];
    const std::uint64_t bw3 = b3[w];
    acc00 += std::popcount(aw0 ^ bw0);
    acc01 += std::popcount(aw0 ^ bw1);
    acc02 += std::popcount(aw0 ^ bw2);
    acc03 += std::popcount(aw0 ^ bw3);
    acc10 += std::popcount(aw1 ^ bw0);
    acc11 += std::popcount(aw1 ^ bw1);
    acc12 += std::popcount(aw1 ^ bw2);
    acc13 += std::popcount(aw1 ^ bw3);
  }
  acc[0] += acc00;
  acc[1] += acc01;
  acc[2] += acc02;
  acc[3] += acc03;
  acc[4] += acc10;
  acc[5] += acc11;
  acc[6] += acc12;
  acc[7] += acc13;
}

float scalar_weighted_sum(const std::uint64_t* a, const std::uint64_t* b,
                          const float* alpha, std::int64_t channels,
                          float dot_bits) {
  // Canonical weighted order: channel c feeds lane c % 8, full blocks of 8
  // first, then the partial tail block, then the fixed reduction tree.
  float lanes[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  std::int64_t c = 0;
  for (; c + 8 <= channels; c += 8) {
    for (int lane = 0; lane < 8; ++lane) {
      const auto mismatches =
          static_cast<float>(std::popcount(a[c + lane] ^ b[c + lane]));
      lanes[lane] += alpha[c + lane] * (dot_bits - 2.0f * mismatches);
    }
  }
  for (int lane = 0; c + lane < channels; ++lane) {
    const auto mismatches =
        static_cast<float>(std::popcount(a[c + lane] ^ b[c + lane]));
    lanes[lane] += alpha[c + lane] * (dot_bits - 2.0f * mismatches);
  }
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

// The reference batch is literally four reference calls, so the x4 contract
// (bit-for-bit equal to four weighted_sum calls) holds by definition.
void scalar_weighted_sum_x4(const std::uint64_t* a, const std::uint64_t* b0,
                            const std::uint64_t* b1, const std::uint64_t* b2,
                            const std::uint64_t* b3, const float* alpha,
                            std::int64_t channels, float dot_bits,
                            float out[4]) {
  out[0] = scalar_weighted_sum(a, b0, alpha, channels, dot_bits);
  out[1] = scalar_weighted_sum(a, b1, alpha, channels, dot_bits);
  out[2] = scalar_weighted_sum(a, b2, alpha, channels, dot_bits);
  out[3] = scalar_weighted_sum(a, b3, alpha, channels, dot_bits);
}

}  // namespace

const XnorKernel& xnor_kernel_scalar() {
  static const XnorKernel kernel{
      "scalar", "binary_conv.gemm.scalar",
      /*simd_bits=*/64,
      /*word_multiple=*/1, scalar_xor_popcount,
      scalar_xor_popcount_2x4, scalar_weighted_sum,
      scalar_weighted_sum_x4,
  };
  return kernel;
}

}  // namespace hotspot::bitops
