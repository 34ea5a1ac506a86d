// offline_paper128: the paper's 12-layer network on 128x128 clips through
// BrnnModel::predict in batches of 64 (Table 3's batch runtime).
#include <algorithm>
#include <cstdio>

#include "bitops/kernels/xnor_kernel.h"
#include "inputs.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace hs = hotspot;

namespace {

constexpr std::int64_t kImage = 128;
constexpr std::int64_t kBatch = 64;
constexpr std::int64_t kDistinctBatches = 4;
constexpr int kOverheadBatches = 6;

}  // namespace

Result run_offline_paper128(const Options& options) {
  const hs::core::BrnnConfig config = hs::core::BrnnConfig::paper();
  hs::util::Rng rng(options.seed);
  const hs::tensor::Tensor clips =
      make_clips(rng, kBatch * kDistinctBatches, kImage);
  const std::string checkpoint = options.work_dir + "/paper128.hspt";
  write_seeded_checkpoint(config, options.seed * 2654435761u + 1, clips,
                          checkpoint);

  // Set-up: checkpoint load plus the first forward, which packs the filters.
  std::unique_ptr<hs::core::BrnnModel> model;
  const hs::tensor::Tensor first_clip = slice_rows(clips, 0, 1);
  EndToEnd e2e;
  e2e.setup_s = median_setup_seconds(kSetupRepeats, [&] {
    model = load_model(config, checkpoint);
    model->predict(first_clip);
  });

  // Exact reference: logits under the scalar XNOR kernel, before timing.
  std::vector<hs::tensor::Tensor> batches;
  std::vector<hs::tensor::Tensor> reference_logits;
  std::vector<std::vector<int>> reference_labels;
  std::vector<int> all_labels;
  const hs::bitops::XnorKernel& active = hs::bitops::active_xnor_kernel();
  hs::bitops::set_active_xnor_kernel(hs::bitops::xnor_kernel_scalar());
  for (std::int64_t b = 0; b < kDistinctBatches; ++b) {
    batches.push_back(slice_rows(clips, b * kBatch, kBatch));
    reference_logits.push_back(model->forward(batches.back()));
    reference_labels.push_back(argmax_labels(reference_logits.back()));
    all_labels.insert(all_labels.end(), reference_labels.back().begin(),
                      reference_labels.back().end());
  }
  hs::bitops::set_active_xnor_kernel(active);
  model->predict(first_clip);  // re-pack for the default kernel, untimed
  require_both_classes(all_labels, "offline_paper128");

  const double density = pixel_density(clips);
  std::printf("%s\n", JsonFields()
                          .str("workload", "offline_paper128")
                          .num("input.clips", static_cast<double>(clips.dim(0)))
                          .num("input.clip_density", density)
                          .num("input.batch", kBatch)
                          .num("input.hotspot_share",
                               static_cast<double>(std::count(
                                   all_labels.begin(), all_labels.end(), 1)) /
                                   static_cast<double>(all_labels.size()))
                          .json()
                          .c_str());

  Result result;
  const auto check = [&](const std::vector<int>& got,
                         const std::vector<int>& want) {
    const std::int64_t bad = count_label_mismatches(got, want);
    result.attempted += static_cast<std::int64_t>(want.size());
    result.failed += bad;
    result.mismatches += bad;
  };
  const Clock::time_point measure_start = Clock::now();
  LayerMetrics layers;

  if (!options.trace) {
    // Throughput phase: batches of 64 for the whole run. Each clip is one
    // window, and max_rps is the rate of predict calls.
    const double budget = throughput_budget(options, measure_start);
    std::int64_t b = 0;
    const RateSummary rate = block_rate(budget, [&] {
      check(model->predict(batches[b % kDistinctBatches]),
            reference_labels[b % kDistinctBatches]);
      ++b;
      return kBatch;
    });
    e2e.clips_per_s = rate.per_s;
    e2e.windows_per_s = rate.per_s;
    e2e.max_rps = rate.per_s / kBatch;
    e2e.cpu_ms_per_item = rate.cpu_ms_per_item;
    std::printf("%s\n", JsonFields()
                            .num("blocks", kRateBlocks)
                            .num("quiet_blocks", rate.quiet_blocks)
                            .json()
                            .c_str());
  } else {
    // Tracing overhead: the same batches untraced through predict, then
    // traced (program spans on, per-layer timing in the benchmark).
    const Clock::time_point plain_start = Clock::now();
    for (int b = 0; b < kOverheadBatches; ++b) {
      check(model->predict(batches[b % kDistinctBatches]),
            reference_labels[b % kDistinctBatches]);
    }
    const double plain = seconds_between(plain_start, Clock::now());
    hs::obs::set_trace_enabled(true);
    LayerMetrics probe;
    const Clock::time_point traced_start = Clock::now();
    for (int b = 0; b < kOverheadBatches; ++b) {
      check(argmax_labels(timed_layer_forward(
                *model, batches[b % kDistinctBatches], probe)),
            reference_labels[b % kDistinctBatches]);
    }
    const double traced = seconds_between(traced_start, Clock::now());
    layers.set("trace.overhead_share", traced / plain - 1.0);

    // Traced throughput phase.
    hs::obs::reset_spans();
    const double budget = throughput_budget(options, measure_start);
    double infer = 0.0;
    std::int64_t calls = 0;
    const double wall = block_rate(budget, [&] {
                          const std::int64_t b = calls % kDistinctBatches;
                          const Clock::time_point call = Clock::now();
                          const std::vector<int> labels = argmax_labels(
                              timed_layer_forward(*model, batches[b], layers));
                          infer += seconds_between(call, Clock::now());
                          ++calls;
                          check(labels, reference_labels[b]);
                          return kBatch;
                        }).wall_s;
    hs::obs::set_trace_enabled(false);
    double layer_sum = 0.0;
    for (const std::string& label : model->layer_labels()) {
      layer_sum += layers.get(core_layer_metric(label));
    }
    layers.set("core.infer_s", infer);
    layers.set("core.infer_calls", static_cast<double>(calls));
    layers.set("core.clips_per_call", static_cast<double>(kBatch));
    layers.set("core.unattributed_s", infer - layer_sum);
    read_bitops_spans(config, calls * kBatch, layers);
    layers.set("unattributed_s", wall - infer);
    layers.set("unattributed_share", (wall - infer) / wall);
  }

  // Bit-exact logits against the scalar reference, on the default kernel.
  for (std::int64_t b = 0; b < kDistinctBatches; ++b) {
    const std::int64_t bad = count_logit_mismatches(
        model->forward(batches[b]), reference_logits[b]);
    result.attempted += kBatch;
    result.failed += bad;
    result.mismatches += bad;
  }

  e2e.peak_rss_mb = peak_rss_mib();
  if (options.trace) {
    layers.set("input.clip_density", density);
    layers.set("input.distinct_rasters", static_cast<double>(clips.dim(0)));
    layers.set("input.mean_clips_per_request", static_cast<double>(kBatch));
    layers.set("failed_share", static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted));
    layers.report(result);
  } else {
    e2e.report(result);
  }
  return result;
}

}  // namespace perfbench
