// The binarized residual network architecture of Fig. 2.
//
// Every convolution block is BatchNorm -> Binarize -> BinaryConv (Fig. 3),
// one BinaryConvBlock each; packed inference folds the BN into the conv's
// binarize step (core/binary_conv_block.h). Residual blocks use two 3x3
// binary conv blocks on the main path and a 1x1 binary conv block on the
// shortcut wherever shapes change. The paper's full
// network is 12 weight layers: stem conv + 5 residual blocks (2 convs each)
// + the fully connected classifier head.
#pragma once

#include "core/binary_conv_block.h"
#include "nn/batchnorm_layer.h"
#include "nn/linear_layer.h"
#include "nn/sequential.h"

namespace hotspot::core {

struct BrnnConfig {
  std::int64_t image_size = 128;
  std::int64_t input_channels = 1;
  std::int64_t stem_filters = 16;
  std::int64_t stem_stride = 2;
  bool stem_pool = true;  // 2x2 max pool after the stem (ResNet-style)
  // One residual block per entry; "the deeper a layer is, the more filters
  // it contains" (Sec. 3.1).
  std::vector<std::int64_t> block_filters{16, 32, 64, 128, 256};
  std::vector<std::int64_t> block_strides{1, 2, 2, 2, 2};
  bitops::InputScaling scaling = bitops::InputScaling::kPerChannel;

  // The paper's 12-layer network for 128x128 clips.
  static BrnnConfig paper();
  // A reduced instance for CI-scale experiments (8 weight layers); same
  // block structure, fewer stages/filters, sized for `image_size` inputs.
  static BrnnConfig compact(std::int64_t image_size);

  // Weight layers: stem + 2 per block (+1 per projection shortcut counts as
  // part of its block in the paper's "12 layers" figure, which counts only
  // the main path) + fc.
  std::int64_t main_path_layer_count() const {
    return 1 + 2 * static_cast<std::int64_t>(block_filters.size()) + 1;
  }
};

class BrnnModel : public nn::Module {
 public:
  BrnnModel(const BrnnConfig& config, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override;
  void set_training(bool training) override;
  void collect_state(const std::string& prefix,
                     std::vector<nn::NamedTensor>& out) override;

  // Switches every binary convolution between the float-sim and packed
  // XNOR-popcount inference paths.
  void set_backend(Backend backend);

  const BrnnConfig& config() const { return config_; }
  nn::Sequential& net() { return net_; }
  const std::vector<BinaryConv2d*>& binary_convs() const {
    return binary_convs_;
  }

  // Per-layer description lines of the top-level graph.
  std::vector<std::string> architecture() const { return net_.layer_names(); }

  // Stable per-layer trace-span labels ("brnn.layer.stem", ...), parallel
  // to the top-level modules of net(); forward() opens one span per entry.
  const std::vector<std::string>& layer_labels() const {
    return layer_labels_;
  }

  // Convenience: argmax labels for an image batch (eval mode must be set by
  // the caller).
  std::vector<int> predict(const Tensor& images);

  // Zeroes every binary convolution's roofline sample counter. Pair with
  // obs::reset_spans() so build_roofline() joins matching windows.
  void reset_profile();

 private:
  // Builds a BN -> BinaryConv block with the given geometry, registering
  // the conv for backend switching under the given roofline span label
  // ("brnn.conv.stem", "brnn.conv.block<i>{a,b,sc}").
  nn::ModulePtr conv_block(std::int64_t in, std::int64_t out,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad, const std::string& label,
                           util::Rng& rng);

  BrnnConfig config_;
  nn::Sequential net_;
  std::vector<BinaryConv2d*> binary_convs_;
  std::vector<std::string> layer_labels_;
};

}  // namespace hotspot::core
