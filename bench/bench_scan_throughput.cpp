// Scan-throughput benchmark: eager extract-then-predict vs the streaming
// scan pipeline (src/scan/) on a tiled chip.
//
// A chip built by repeating one pattern tile is the dedup cache's best
// case — and the realistic one: production layouts are dominated by
// repeated standard cells. The streaming path should (a) produce
// bit-identical labels to the eager path, (b) scan >= 1.5x more windows
// per second thanks to dedup + pipelining, and (c) hold a bounded working
// set instead of materializing every clip up front (reported here as a
// byte-count proxy, not RSS, so the number is deterministic).
//
//   ./bench/bench_scan_throughput [--quick]
//
// --quick runs the CI-sized 4x4 chip only; the default also runs 8x8.
// Each path repeats until it has run for kMinPathSeconds and reports its
// median repetition, so even the 16-window quick chip times a fraction of
// a second of work instead of one sub-millisecond scan. Emits
// BENCH_scan.json.
#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/brnn.h"
#include "core/trainer.h"
#include "dataset/generator.h"
#include "dataset/patterns.h"
#include "layout/clip.h"
#include "scan/pipeline.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace hotspot;

// Minimum wall time each path repeats for before its median is taken.
constexpr double kMinPathSeconds = 0.2;

// Runs `once` (which returns the seconds it measured) until the budget is
// spent, at least once; returns the median sample and the repeat count.
template <typename Fn>
std::pair<double, long> median_until_budget(Fn&& once) {
  std::vector<double> samples;
  const util::Stopwatch budget;
  do {
    samples.push_back(once());
  } while (budget.seconds() < kMinPathSeconds);
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], static_cast<long>(samples.size())};
}

// One tile repeated tiles x tiles: the repeated-standard-cell layout shape.
layout::Pattern build_tiled_chip(const dataset::PatternParams& params,
                                 int tiles_per_side) {
  util::Rng rng(4242);
  const layout::Pattern tile =
      dataset::generate_pattern(dataset::Family::kDenseLines, params, rng);
  layout::Pattern chip;
  for (int ty = 0; ty < tiles_per_side; ++ty) {
    for (int tx = 0; tx < tiles_per_side; ++tx) {
      layout::Pattern copy = tile;
      copy.translate(tx * params.clip_nm, ty * params.clip_nm);
      for (const auto& rect : copy.rects()) {
        chip.add(rect);
      }
    }
  }
  return chip;
}

struct RunResult {
  int tiles = 0;
  long windows = 0;
  long unique_windows = 0;
  double dedup_hit_rate = 0.0;
  double eager_seconds = 0.0;      // median repetition
  double streaming_seconds = 0.0;  // median repetition
  long eager_repeats = 0;
  long streaming_repeats = 0;
  double speedup = 0.0;
  long eager_bytes_proxy = 0;
  long streaming_bytes_proxy = 0;
  bool labels_match = false;
};

RunResult run_scan(core::BrnnModel& model, const dataset::PatternParams& params,
                   std::int64_t image_size, int tiles) {
  RunResult run;
  run.tiles = tiles;
  const layout::Pattern chip = build_tiled_chip(params, tiles);

  // Eager path: materialize every clip, build a dataset, one predict().
  std::vector<int> eager_labels;
  std::tie(run.eager_seconds, run.eager_repeats) = median_until_budget([&] {
    const util::Stopwatch eager_timer;
    const auto eager_clips =
        layout::extract_clips(chip, params.clip_nm, params.clip_nm);
    dataset::HotspotDataset windows;
    windows.reserve(eager_clips.size());
    for (const auto& clip : eager_clips) {
      windows.add(dataset::ClipSample::from_image(
          clip.binary(image_size), 0, dataset::Family::kDenseLines));
    }
    eager_labels = core::predict_labels(model, windows, 64);
    return eager_timer.seconds();
  });
  const auto clips =
      layout::extract_clips(chip, params.clip_nm, params.clip_nm);
  run.windows = static_cast<long>(clips.size());

  // Eager working set: every clip's rects plus the whole dataset's pixels
  // are alive at once before predict() starts, plus one inference batch
  // tensor while it runs.
  const long pixels = static_cast<long>(image_size * image_size);
  long eager_bytes = 0;
  for (const auto& clip : clips) {
    eager_bytes += static_cast<long>(clip.pattern.size() *
                                     sizeof(layout::Rect));
  }
  eager_bytes += static_cast<long>(clips.size()) * pixels;
  eager_bytes += std::min<long>(64, static_cast<long>(clips.size())) *
                 pixels * static_cast<long>(sizeof(float));
  run.eager_bytes_proxy = eager_bytes;

  // Streaming path: lazy windows, dedup, double-buffered batches.
  scan::ScanConfig config;
  config.window_nm = params.clip_nm;
  config.grid = image_size;
  scan::ScanPipeline pipeline(
      config, [&](const tensor::Tensor& images) {
        return model.predict(images);
      });
  scan::ScanResult result;
  run.labels_match = true;
  std::tie(run.streaming_seconds, run.streaming_repeats) =
      median_until_budget([&] {
        result = pipeline.scan(chip);
        run.labels_match = run.labels_match && result.labels == eager_labels;
        return result.stats.total_seconds;
      });
  run.unique_windows = static_cast<long>(result.stats.unique_windows);
  run.dedup_hit_rate = result.stats.dedup_hit_rate();
  run.speedup = run.streaming_seconds > 0.0
                    ? run.eager_seconds / run.streaming_seconds
                    : 0.0;

  // Streaming working set: two in-flight batches (double buffer, each at
  // most batch_size *distinct* rasters), the dedup cache's distinct
  // rasters, and the per-window entry/label maps.
  const long batch_fill =
      std::min<long>(config.batch_size, std::max<long>(run.unique_windows, 1));
  run.streaming_bytes_proxy =
      2L * batch_fill * pixels * static_cast<long>(sizeof(float)) +
      run.unique_windows * pixels +
      run.windows * static_cast<long>(sizeof(std::int64_t) + sizeof(int));
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  hotspot::bench::print_header(
      "Scan throughput: streaming (dedup + pipelined batching) vs eager",
      "full-chip deployment sweeps every clip window (Sec. 1, Eq. 3)");

  const std::int64_t image_size = hotspot::bench::bench_image_size();
  const hotspot::dataset::BenchmarkConfig config =
      hotspot::dataset::iccad2012_config(0.01, image_size);

  // An untrained model classifies exactly like a trained one for timing
  // purposes; skipping training keeps the bench about the scan path.
  hotspot::util::Rng rng(7);
  hotspot::core::BrnnModel model(
      hotspot::core::BrnnConfig::compact(image_size), rng);
  model.set_training(false);
  model.set_backend(hotspot::core::Backend::kPacked);
  // Warm up: packs the weights so neither path pays it inside the timer.
  model.forward(hotspot::tensor::Tensor({1, 1, image_size, image_size}));

  std::vector<int> sizes{4};
  if (!quick) {
    sizes.push_back(8);
  }
  hotspot::util::Table table(
      {"tiles", "windows", "unique", "hit rate", "eager s", "stream s",
       "speedup", "match"});
  std::vector<hotspot::bench::JsonObject> runs;
  bool all_match = true;
  for (const int tiles : sizes) {
    const RunResult run =
        run_scan(model, config.pattern, image_size, tiles);
    all_match = all_match && run.labels_match;
    table.add_row({std::to_string(run.tiles) + "x" + std::to_string(run.tiles),
                   std::to_string(run.windows),
                   std::to_string(run.unique_windows),
                   hotspot::util::format_double(100.0 * run.dedup_hit_rate, 1)
                       + "%",
                   hotspot::util::format_double(run.eager_seconds, 3),
                   hotspot::util::format_double(run.streaming_seconds, 3),
                   hotspot::util::format_double(run.speedup, 2) + "x",
                   run.labels_match ? "yes" : "NO"});
    hotspot::bench::JsonObject entry;
    entry.set("tiles", run.tiles)
        .set("windows", run.windows)
        .set("unique_windows", run.unique_windows)
        .set("dedup_hit_rate", run.dedup_hit_rate)
        .set("eager_seconds", run.eager_seconds)
        .set("streaming_seconds", run.streaming_seconds)
        .set("eager_repeats", run.eager_repeats)
        .set("streaming_repeats", run.streaming_repeats)
        .set("eager_windows_per_sec",
             run.eager_seconds > 0.0
                 ? static_cast<double>(run.windows) / run.eager_seconds
                 : 0.0)
        .set("streaming_windows_per_sec",
             run.streaming_seconds > 0.0
                 ? static_cast<double>(run.windows) / run.streaming_seconds
                 : 0.0)
        .set("speedup", run.speedup)
        .set("eager_bytes_proxy", run.eager_bytes_proxy)
        .set("streaming_bytes_proxy", run.streaming_bytes_proxy)
        .set("labels_match", run.labels_match);
    runs.push_back(entry);
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nStreaming labels %s the eager baseline.\n",
              all_match ? "bit-identically match" : "DIVERGE FROM");

  hotspot::bench::JsonObject result;
  result.set("bench", "scan_throughput")
      .set("image_size", static_cast<long>(image_size))
      .set("quick", quick)
      .set("labels_match", all_match)
      .set_raw("runs", hotspot::bench::json_array(runs));
  hotspot::bench::write_json_result("BENCH_scan.json", result);
  return all_match ? 0 : 1;
}
