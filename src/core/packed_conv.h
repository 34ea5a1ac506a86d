// Shared inner loops of the packed XNOR-popcount convolution.
//
// BinaryConv2d::forward_packed runs these after its pack stage, with or
// without a folded BatchNorm, so the folded and unfused forwards share every
// float operation after binarization. The float accumulation order inside
// is pinned by the XnorKernel contract (kernels/xnor_kernel.h), so outputs
// are also identical across scalar/AVX2/AVX-512.
#pragma once

#include "bitops/bit_matrix.h"
#include "bitops/bit_planes.h"
#include "bitops/kernels/xnor_kernel.h"
#include "tensor/conv.h"
#include "tensor/tensor.h"

namespace hotspot::core {

// Per-channel-scaled direct convolution (Eq. 14/15), straight from the
// activation bit planes: no patch matrix is materialized. The work runs in
// parallel over (sample, output row). For each row it builds an L1-resident
// tile: per output position, one channel-blocked patch word per input
// channel (the kh window groups of kw bits, cut from the input bitmap rows
// re-based to the padded frame) and the matching alpha_T values. The
// kernel's weighted_sum_x4 then runs across the tile, four filters per
// call, and the alpha_W epilogue scales each sum. `filters` is the
// channel-blocked filter matrix (one word per input channel), `alpha_t` is
// [N,Cin,outH,outW], `alpha_w` is [Cout]. Writes [N,Cout,outH,outW] into
// `output`, allocated by the caller.
void direct_conv_per_channel(const bitops::XnorKernel& kern,
                             const bitops::BitPlanes& planes,
                             const tensor::ConvSpec& spec,
                             const bitops::BitMatrix& filters,
                             const tensor::Tensor& alpha_t,
                             const tensor::Tensor& alpha_w,
                             tensor::Tensor& output);

// Epilogue of the dense-layout path: scatters GEMM counts
// [N*positions, Cout] into NCHW and applies dst = count * alpha_w[co] *
// post, where post is the scalar-mode alpha map [N,1,outH,outW] or 1
// (pass post_alpha = nullptr). kNone callers pass nullptr.
void packed_conv_epilogue(const tensor::Tensor& counts,
                          const tensor::Tensor& alpha_w,
                          const tensor::Tensor* post_alpha,
                          std::int64_t out_channels, tensor::Tensor& output);

}  // namespace hotspot::core
