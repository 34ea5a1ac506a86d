// Identity of the direct per-channel XNOR convolution (core/packed_conv.h)
// against a materialized oracle: the channel-blocked patch matrix from
// bitops::pack_patches_channel_blocked, reduced position by position with
// the kernel's own weighted_sum and scaled by alpha_W. The direct primitive
// never builds that matrix, so this pins its tile assembly (window
// extraction, padding, stride, words that straddle bitmap words) to the
// canonical result, for every kernel the CPU runs and at several pool
// widths.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitops/bit_planes.h"
#include "bitops/kernels/xnor_kernel.h"
#include "bitops/scaling.h"
#include "bitops/xnor_gemm.h"
#include "core/packed_conv.h"
#include "tensor/conv.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;

const std::vector<int> kThreadCounts{1, 2, 4, 7};

struct Case {
  std::int64_t batch;
  std::int64_t cin;
  std::int64_t h;
  std::int64_t w;
  std::int64_t k;
  std::int64_t stride;
  std::int64_t pad;

  std::string label() const {
    return "n" + std::to_string(batch) + " cin" + std::to_string(cin) + " " +
           std::to_string(h) + "x" + std::to_string(w) + " k" +
           std::to_string(k) + " s" + std::to_string(stride) + " p" +
           std::to_string(pad);
  }
};

constexpr std::int64_t kOutChannels = 6;  // one x4 group plus a remainder

// Restores the pool width and the active kernel; filters are packed under
// the active kernel's row padding, so the sweep switches it per kernel.
class DirectConvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::set_parallel_threads(previous_threads_);
    bitops::set_active_xnor_kernel(*previous_kernel_);
  }
  int previous_threads_ = util::parallel_threads();
  const bitops::XnorKernel* previous_kernel_ = &bitops::active_xnor_kernel();
};

std::vector<Case> sweep() {
  std::vector<Case> cases;
  // Odd sizes, a width past one bitmap word, a width of exactly one word
  // (a 1x1 pad column then starts on the word boundary), and a shape tall
  // enough that batch 5 splits into several row chunks.
  const std::int64_t extents[][2] = {{7, 9}, {5, 67}, {3, 64}, {33, 67}};
  for (const std::int64_t batch : {1, 5}) {
    for (const std::int64_t cin : {1, 3, 8, 16, 17}) {
      for (const auto& hw : extents) {
        for (const std::int64_t k : {1, 3}) {
          for (const std::int64_t stride : {1, 2}) {
            for (const std::int64_t pad : {0, 1}) {
              cases.push_back({batch, cin, hw[0], hw[1], k, stride, pad});
            }
          }
        }
      }
    }
  }
  return cases;
}

struct Operands {
  Tensor input;
  bitops::BitPlanes planes;
  bitops::BitMatrix filters;
  Tensor alpha_t;
  Tensor alpha_w;
  tensor::ConvSpec spec;
  std::int64_t out_h = 0;
  std::int64_t out_w = 0;
};

// Packs under the active kernel.
Operands make_operands(const Case& c, std::uint64_t seed) {
  util::Rng rng(seed);
  Operands op;
  op.input = Tensor::uniform({c.batch, c.cin, c.h, c.w}, rng, -1.0f, 1.0f);
  // Exact zeros binarize to +1 (sign(0) = +1).
  for (std::int64_t i = 0; i < op.input.numel(); i += 7) {
    op.input[i] = 0.0f;
  }
  const Tensor weight =
      Tensor::uniform({kOutChannels, c.cin, c.k, c.k}, rng, -1.0f, 1.0f);
  op.spec = tensor::ConvSpec{c.k, c.k, c.stride, c.pad};
  op.planes = bitops::BitPlanes(op.input);
  op.filters = bitops::pack_filters_channel_blocked(weight);
  op.alpha_t = bitops::input_scales_per_channel(op.input, op.spec);
  op.alpha_w = bitops::weight_scales(weight);
  op.out_h = tensor::conv_out_extent(c.h, c.k, c.stride, c.pad);
  op.out_w = tensor::conv_out_extent(c.w, c.k, c.stride, c.pad);
  return op;
}

// Materialized reference: one patch-matrix row per output position, one
// weighted_sum per (position, filter) over the real channel count.
Tensor oracle(const bitops::XnorKernel& kern, const Case& c,
              const Operands& op) {
  const bitops::BitMatrix patches =
      bitops::pack_patches_channel_blocked(op.planes, op.spec);
  const std::int64_t positions = op.out_h * op.out_w;
  const auto kkf = static_cast<float>(c.k * c.k);
  Tensor out({c.batch, kOutChannels, op.out_h, op.out_w});
  std::vector<float> alpha(static_cast<std::size_t>(c.cin));
  for (std::int64_t ni = 0; ni < c.batch; ++ni) {
    for (std::int64_t p = 0; p < positions; ++p) {
      for (std::int64_t ci = 0; ci < c.cin; ++ci) {
        alpha[static_cast<std::size_t>(ci)] =
            op.alpha_t[(ni * c.cin + ci) * positions + p];
      }
      const std::uint64_t* row = patches.row(ni * positions + p);
      for (std::int64_t co = 0; co < kOutChannels; ++co) {
        out[(ni * kOutChannels + co) * positions + p] =
            kern.weighted_sum(row, op.filters.row(co), alpha.data(), c.cin,
                              kkf) *
            op.alpha_w[co];
      }
    }
  }
  return out;
}

TEST_F(DirectConvTest, BitIdenticalToMaterializedOracle) {
  const std::vector<Case> cases = sweep();
  for (const bitops::XnorKernel* kern : bitops::compiled_xnor_kernels()) {
    if (!bitops::xnor_kernel_cpu_supported(*kern)) {
      continue;
    }
    bitops::set_active_xnor_kernel(*kern);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      const Operands op = make_operands(c, 100 + i);
      util::set_parallel_threads(1);
      const Tensor expected = oracle(*kern, c, op);
      for (const int threads : kThreadCounts) {
        util::set_parallel_threads(threads);
        Tensor got({c.batch, kOutChannels, op.out_h, op.out_w});
        direct_conv_per_channel(*kern, op.planes, op.spec, op.filters,
                                op.alpha_t, op.alpha_w, got);
        for (std::int64_t j = 0; j < got.numel(); ++j) {
          ASSERT_EQ(got[j], expected[j])
              << kern->name << " " << c.label() << " threads=" << threads
              << " index=" << j;
        }
      }
    }
  }
}

TEST(DirectConvWindow, PadColumnOnWordBoundaryReadsZero) {
  // A 1x1 window at column w == 64 lies wholly in the right padding and
  // starts on a bitmap word boundary past the row's last word; it must read
  // as padding (bit 0), not as the next row's first word.
  Tensor input({1, 1, 2, 64}, 1.0f);
  const bitops::BitPlanes planes(input);
  EXPECT_EQ(planes.window_bits(planes.row(0, 0), 64, 1), 0u);
  EXPECT_EQ(planes.window_bits(planes.row(0, 0), 63, 1), 1u);
  const bitops::BitMatrix patches = bitops::pack_patches_channel_blocked(
      planes, tensor::ConvSpec{1, 1, 1, 1});
  // Output row 1 (image row 0), last column: the pad column.
  EXPECT_EQ(patches.row(1 * 66 + 65)[0], 0u);
  EXPECT_EQ(patches.row(1 * 66 + 64)[0], 1u);
}

}  // namespace
}  // namespace hotspot::core
