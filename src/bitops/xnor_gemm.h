// Binarized GEMM and the packed binary convolution primitive.
#pragma once

#include "bitops/bit_matrix.h"
#include "bitops/bit_planes.h"
#include "tensor/conv.h"

namespace hotspot::bitops {

// C[i][j] = +/-1 inner product of a.row(i) and b.row(j); a is [m,k] bits,
// b is [n,k] bits, result is [m,n] float (integer-valued).
tensor::Tensor xnor_gemm(const BitMatrix& a, const BitMatrix& b);

// Packs the im2col patches of sign(input) (padding = -1) for the given conv
// spec. Rows are output positions (n*outH*outW), columns are Cin*kh*kw bits.
BitMatrix pack_patches(const tensor::Tensor& input,
                       const tensor::ConvSpec& spec);

// Same patch assembly from pre-binarized planes. The tensor overload above
// is pack_patches(BitPlanes(input), spec); a conv with a folded BatchNorm
// passes planes binarized with per-channel thresholds instead.
BitMatrix pack_patches(const BitPlanes& planes, const tensor::ConvSpec& spec);

// Packs conv weights [Cout,Cin,kh,kw] into rows of Cin*kh*kw bits.
BitMatrix pack_filters(const tensor::Tensor& weight);

// Channel-blocked layout of the per-channel scaling mode (Eq. 14): each
// input channel's kh*kw patch bits occupy their own 64-bit word, so a
// per-channel +/-1 dot is one XOR + popcount. Requires kh*kw <= 64.
// pack_filters_channel_blocked packs the weights the per-channel conv
// runs on. The patch packers materialize the whole patch matrix (rows are
// output positions, row r holds Cin words); inference never does that
// (core::direct_conv_per_channel builds one output row at a time), so they
// serve as the test oracle for the direct conv and as a bench stage.
BitMatrix pack_patches_channel_blocked(const tensor::Tensor& input,
                                       const tensor::ConvSpec& spec);
BitMatrix pack_patches_channel_blocked(const BitPlanes& planes,
                                       const tensor::ConvSpec& spec);
BitMatrix pack_filters_channel_blocked(const tensor::Tensor& weight);

// Dense binary convolution: counts[n, Cout, outH, outW] of +/-1 products
// over the whole patch (no scaling applied). Equivalent to
// conv2d(sign(input), sign(weight)) with -1 padding.
tensor::Tensor binary_conv_counts(const tensor::Tensor& input,
                                  const tensor::Tensor& weight,
                                  const tensor::ConvSpec& spec);

}  // namespace hotspot::bitops
