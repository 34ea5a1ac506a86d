// Seeded input generation. Every input the benchmark feeds the program is
// a pure function of the workload seed: layout clips drawn from the dataset
// pattern families, a standard-cell tile library and the chip tiled from
// it, and the open-loop request schedule with its size mix. Generation is
// never timed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layout/geometry.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace perfbench {

// Layout clips edge length; the dataset families' native clip size.
inline constexpr std::int64_t kClipNm = 1024;

// `count` binary clips of `grid` x `grid` pixels, cycling through every
// dataset pattern family. Returns [count, 1, grid, grid].
hotspot::tensor::Tensor make_clips(hotspot::util::Rng& rng, std::int64_t count,
                                   std::int64_t grid);

// Share of set pixels over a {0,1} image batch.
double pixel_density(const hotspot::tensor::Tensor& images);

// Rows [begin, begin + count) of a [n, 1, g, g] batch.
hotspot::tensor::Tensor slice_rows(const hotspot::tensor::Tensor& images,
                                   std::int64_t begin, std::int64_t count);

// Rows `ids` of a [n, 1, g, g] batch, in order.
hotspot::tensor::Tensor gather_rows(const hotspot::tensor::Tensor& images,
                                    const std::vector<int>& ids);

// A library of `size` standard cells. Each cell is a kClipNm square with
// full-width power rails on its bottom and top edges and a dataset-family
// pattern between them.
std::vector<hotspot::layout::Pattern> make_cell_library(
    hotspot::util::Rng& rng, int size);

// A chip of `tiles` x `tiles` cells from `cells`; tile (ix, iy) holds cell
// cell_of_tile[iy * tiles + ix] and covers [ix, ix+1) x [iy, iy+1) tiles.
// The rails anchor the chip's bounding box at the origin, so a scan with
// window = stride = kClipNm sees exactly one cell per window.
struct TiledChip {
  std::int64_t tiles = 0;  // tiles per side
  std::vector<int> cell_of_tile;
  hotspot::layout::Pattern chip;
  int distinct_cells_used() const;
};

// Every cell is placed equally often (up to one, lowest indices first) and
// `rng` shuffles the placement, so the chip's geometry load and its
// distinct-raster count do not depend on the seed.
TiledChip make_tiled_chip(const std::vector<hotspot::layout::Pattern>& cells,
                          hotspot::util::Rng& rng, std::int64_t tiles);

// One open-loop request: due time from its phase start, and the clip-pool
// rows it asks about.
struct Request {
  double due_s = 0.0;
  std::vector<int> clip_ids;
};

// A fixed-rate phase of the open-loop schedule: exactly
// round(rate * duration) requests, whose arrival times are a Poisson
// process conditioned on that count (sorted uniform times). One request in
// each run of kBulkEvery consecutive ones, at a random place in the run, is
// a bulk request of kBulkClips clips; the rest are interactive requests of
// 1..4 clips. Spreading the bulk requests this way keeps their share at
// 1 / kBulkEvery in every stretch of the schedule, so a phase's load does
// not hinge on how the seed happens to cluster them.
struct Phase {
  std::string name;
  double rate = 0.0;        // requests per second offered
  double duration_s = 0.0;
  std::vector<Request> requests;
  std::int64_t clips() const;
  std::int64_t bulk_requests() const;
};

inline constexpr int kBulkClips = 32;
inline constexpr std::size_t kBulkEvery = 5;

Phase make_phase(hotspot::util::Rng& rng, const std::string& name, double rate,
                 double duration_s, int pool_size);

}  // namespace perfbench
