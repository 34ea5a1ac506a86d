// scan_tiled: the compact network at 32 px behind ScanPipeline::scan with
// its default configuration, over a chip tiled from a small standard-cell
// library. Window streaming, rasterization and dedup carry the load; the
// classifier sees only the few distinct cell rasters.
#include <cstdio>
#include <cstring>

#include "inputs.h"
#include "layout/clip.h"
#include "obs/trace.h"
#include "scan/pipeline.h"
#include "scan/window_stream.h"
#include "workloads.h"

namespace perfbench {

namespace hs = hotspot;

namespace {

constexpr std::int64_t kGrid = 32;
constexpr int kLibrarySize = 16;
constexpr std::uint64_t kLibrarySeed = 0x5ce11;
constexpr std::int64_t kChipTiles = 128;
constexpr int kOverheadScans = 4;

std::vector<int> expected_labels(const TiledChip& chip,
                                 const std::vector<int>& cell_labels) {
  std::vector<int> labels;
  for (const int cell : chip.cell_of_tile) {
    labels.push_back(cell_labels[static_cast<std::size_t>(cell)]);
  }
  return labels;
}

}  // namespace

Result run_scan_tiled(const Options& options) {
  const hs::core::BrnnConfig config = hs::core::BrnnConfig::compact(kGrid);
  // One fixed cell library, as a design keeps one, so the chips' geometry
  // load is the same for every seed; the seed places the cells.
  hs::util::Rng library_rng(kLibrarySeed);
  const std::vector<hs::layout::Pattern> cells =
      make_cell_library(library_rng, kLibrarySize);
  hs::util::Rng rng(options.seed);
  const TiledChip chip = make_tiled_chip(cells, rng, kChipTiles);

  hs::tensor::Tensor cell_images({kLibrarySize, 1, kGrid, kGrid});
  for (int c = 0; c < kLibrarySize; ++c) {
    const hs::tensor::Tensor raster =
        hs::layout::Clip{cells[static_cast<std::size_t>(c)], kClipNm}
            .binary(kGrid);
    std::memcpy(cell_images.data() + c * kGrid * kGrid, raster.data(),
                sizeof(float) * kGrid * kGrid);
  }
  const std::string checkpoint = options.work_dir + "/compact32_scan.hspt";
  write_seeded_checkpoint(config, options.seed * 2654435761u + 2, cell_images,
                          checkpoint);

  LayerMetrics layers;
  double classifier_s = 0.0;
  std::int64_t classifier_calls = 0;
  std::int64_t classifier_clips = 0;
  bool traced = false;
  std::unique_ptr<hs::core::BrnnModel> model;
  const hs::scan::ScanPipeline::BatchClassifier classify =
      [&](const hs::tensor::Tensor& images) {
        const Clock::time_point start = Clock::now();
        std::vector<int> labels =
            traced ? argmax_labels(timed_layer_forward(*model, images, layers))
                   : model->predict(images);
        classifier_s += seconds_between(start, Clock::now());
        ++classifier_calls;
        classifier_clips += images.dim(0);
        return labels;
      };
  hs::scan::ScanConfig scan_config;
  scan_config.window_nm = kClipNm;  // every other field at its default
  const hs::tensor::Tensor first_cell = slice_rows(cell_images, 0, 1);
  EndToEnd e2e;
  e2e.setup_s = median_setup_seconds(kSetupRepeats, [&] {
    model = load_model(config, checkpoint);
    model->predict(first_cell);
  });
  hs::scan::ScanPipeline pipeline(scan_config, classify);

  // Reference: a direct predict on each library cell's own raster.
  const std::vector<int> cell_labels = model->predict(cell_images);
  const std::vector<int> expected = expected_labels(chip, cell_labels);
  require_both_classes(expected, "scan_tiled");

  double density = 0.0;
  for (const int cell : chip.cell_of_tile) {
    density += pixel_density(slice_rows(cell_images, cell, 1));
  }
  density /= static_cast<double>(chip.cell_of_tile.size());
  const double windows_per_scan = static_cast<double>(expected.size());
  const double distinct = chip.distinct_cells_used();
  std::printf(
      "%s\n",
      JsonFields()
          .str("workload", "scan_tiled")
          .num("input.chip_tiles_per_side", kChipTiles)
          .num("input.windows_per_scan", windows_per_scan)
          .num("input.library_cells", kLibrarySize)
          .num("input.distinct_rasters", distinct)
          .num("input.dedup_hit_share", 1.0 - distinct / windows_per_scan)
          .num("input.clip_density", density)
          .json()
          .c_str());

  Result result;
  hs::scan::ScanStats totals;
  const auto scan_and_check = [&] {
    const hs::scan::ScanResult scanned = pipeline.scan(chip.chip);
    const std::int64_t bad = count_label_mismatches(scanned.labels, expected);
    const auto lost = static_cast<std::int64_t>(
        scanned.quarantined_windows.size());
    result.attempted += static_cast<std::int64_t>(expected.size());
    result.mismatches += bad;
    result.failed += std::max(bad, lost);
    const hs::scan::ScanStats& s = scanned.stats;
    totals.windows += s.windows;
    totals.unique_windows += s.unique_windows;
    totals.dedup_hits += s.dedup_hits;
    totals.batches += s.batches;
    totals.retries += s.retries;
    totals.quarantined += s.quarantined;
    totals.raster_seconds += s.raster_seconds;
    totals.total_seconds += s.total_seconds;
    return s.windows;
  };
  const Clock::time_point measure_start = Clock::now();

  if (!options.trace) {
    // Whole-chip scans for the whole run. Each window is one clip, and
    // max_rps is the rate of whole-chip scans.
    const double budget = throughput_budget(options, measure_start);
    const RateSummary rate = block_rate(budget, scan_and_check);
    e2e.windows_per_s = rate.per_s;
    e2e.clips_per_s = rate.per_s;
    e2e.max_rps = rate.per_s / windows_per_scan;
    e2e.cpu_ms_per_item = rate.cpu_ms_per_item;
    std::printf("%s\n", JsonFields()
                            .num("blocks", kRateBlocks)
                            .num("quiet_blocks", rate.quiet_blocks)
                            .json()
                            .c_str());
  } else {
    // Tracing overhead: whole-chip scans untraced, then traced.
    const Clock::time_point plain_start = Clock::now();
    for (int i = 0; i < kOverheadScans; ++i) {
      scan_and_check();
    }
    const double plain = seconds_between(plain_start, Clock::now());
    traced = true;
    hs::obs::set_trace_enabled(true);
    const Clock::time_point traced_start = Clock::now();
    for (int i = 0; i < kOverheadScans; ++i) {
      scan_and_check();
    }
    const double traced_wall = seconds_between(traced_start, Clock::now());
    layers = LayerMetrics();
    layers.set("trace.overhead_share", traced_wall / plain - 1.0);

    // Layout layer alone: materialize and rasterize every window once.
    {
      hs::scan::ClipWindowStream stream(chip.chip, kClipNm, kClipNm);
      hs::scan::WindowRef ref;
      const Clock::time_point start = Clock::now();
      while (stream.next(ref)) {
        stream.materialize(ref).binary(kGrid);
      }
      const double wall = seconds_between(start, Clock::now());
      layers.set("layout.raster_us_per_window",
                 wall * 1e6 / static_cast<double>(stream.window_count()));
    }

    // Traced throughput phase.
    hs::obs::reset_spans();
    totals = hs::scan::ScanStats();
    classifier_s = 0.0;
    classifier_calls = 0;
    classifier_clips = 0;
    const double budget = throughput_budget(options, measure_start);
    const double wall = block_rate(budget, scan_and_check).wall_s;
    hs::obs::set_trace_enabled(false);
    double layer_sum = 0.0;
    for (const std::string& label : model->layer_labels()) {
      layer_sum += layers.get(core_layer_metric(label));
    }
    layers.set("core.infer_s", classifier_s);
    layers.set("core.infer_calls", static_cast<double>(classifier_calls));
    layers.set("core.clips_per_call",
               classifier_calls > 0 ? static_cast<double>(classifier_clips) /
                                          static_cast<double>(classifier_calls)
                                    : 0.0);
    layers.set("core.unattributed_s", classifier_s - layer_sum);
    read_bitops_spans(config, classifier_clips, layers);
    layers.set("scan.windows", static_cast<double>(totals.windows));
    layers.set("scan.unique_windows",
               static_cast<double>(totals.unique_windows));
    layers.set("scan.dedup_hit_rate", totals.dedup_hit_rate());
    layers.set("scan.batches", static_cast<double>(totals.batches));
    layers.set("scan.batch_fill",
               totals.batches > 0
                   ? static_cast<double>(totals.unique_windows) /
                         static_cast<double>(totals.batches *
                                             scan_config.batch_size)
                   : 0.0);
    layers.set("scan.retries", static_cast<double>(totals.retries));
    layers.set("scan.quarantined", static_cast<double>(totals.quarantined));
    layers.set("scan.producer_s", totals.raster_seconds);
    layers.set("scan.classifier_s", classifier_s);
    layers.set("scan.consumer_wait_s", totals.total_seconds - classifier_s);
    layers.set("unattributed_s", wall - totals.total_seconds);
    layers.set("unattributed_share", (wall - totals.total_seconds) / wall);
    layers.set("input.clip_density", density);
    layers.set("input.distinct_rasters", distinct);
    layers.set("input.dedup_hit_share", 1.0 - distinct / windows_per_scan);
    layers.set("input.mean_clips_per_request",
               classifier_calls > 0 ? static_cast<double>(classifier_clips) /
                                          static_cast<double>(classifier_calls)
                                    : 0.0);
  }

  e2e.peak_rss_mb = peak_rss_mib();
  if (options.trace) {
    layers.set("failed_share", static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted));
    layers.report(result);
  } else {
    e2e.report(result);
  }
  return result;
}

}  // namespace perfbench
