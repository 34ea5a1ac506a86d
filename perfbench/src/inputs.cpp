#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "dataset/patterns.h"
#include "layout/raster.h"

namespace perfbench {

namespace hs = hotspot;

namespace {

constexpr std::int64_t kRailNm = 64;
constexpr std::int64_t kRailGapNm = 32;

hs::dataset::Family family_for(std::int64_t index) {
  return static_cast<hs::dataset::Family>(index % hs::dataset::kFamilyCount);
}

}  // namespace

hs::tensor::Tensor make_clips(hs::util::Rng& rng, std::int64_t count,
                              std::int64_t grid) {
  hs::dataset::PatternParams params;
  params.clip_nm = kClipNm;
  const hs::layout::Rect window{0, 0, kClipNm, kClipNm};
  const std::int64_t pixels = grid * grid;
  hs::tensor::Tensor images({count, 1, grid, grid});
  for (std::int64_t i = 0; i < count; ++i) {
    const hs::layout::Pattern pattern =
        hs::dataset::generate_pattern(family_for(i), params, rng);
    const hs::tensor::Tensor raster =
        hs::layout::rasterize_binary(pattern, window, grid);
    std::memcpy(images.data() + i * pixels, raster.data(),
                sizeof(float) * static_cast<std::size_t>(pixels));
  }
  return images;
}

double pixel_density(const hs::tensor::Tensor& images) {
  double set = 0.0;
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    set += images[i] != 0.0f ? 1.0 : 0.0;
  }
  return images.numel() == 0 ? 0.0 : set / static_cast<double>(images.numel());
}

hs::tensor::Tensor slice_rows(const hs::tensor::Tensor& images,
                              std::int64_t begin, std::int64_t count) {
  const std::int64_t row = images.numel() / images.dim(0);
  hs::tensor::Tensor out({count, images.dim(1), images.dim(2), images.dim(3)});
  std::memcpy(out.data(), images.data() + begin * row,
              sizeof(float) * static_cast<std::size_t>(count * row));
  return out;
}

hs::tensor::Tensor gather_rows(const hs::tensor::Tensor& images,
                               const std::vector<int>& ids) {
  const std::int64_t row = images.numel() / images.dim(0);
  const auto count = static_cast<std::int64_t>(ids.size());
  hs::tensor::Tensor out({count, images.dim(1), images.dim(2), images.dim(3)});
  for (std::int64_t i = 0; i < count; ++i) {
    std::memcpy(out.data() + i * row,
                images.data() + static_cast<std::int64_t>(ids[i]) * row,
                sizeof(float) * static_cast<std::size_t>(row));
  }
  return out;
}

int TiledChip::distinct_cells_used() const {
  return static_cast<int>(
      std::set<int>(cell_of_tile.begin(), cell_of_tile.end()).size());
}

std::vector<hs::layout::Pattern> make_cell_library(hs::util::Rng& rng,
                                                   int size) {
  hs::dataset::PatternParams params;
  params.clip_nm = kClipNm;
  const hs::layout::Rect band{0, kRailNm + kRailGapNm, kClipNm,
                              kClipNm - kRailNm - kRailGapNm};
  std::vector<hs::layout::Pattern> cells;
  for (int c = 0; c < size; ++c) {
    hs::layout::Pattern cell;
    cell.add({0, 0, kClipNm, kRailNm});
    cell.add({0, kClipNm - kRailNm, kClipNm, kClipNm});
    const hs::layout::Pattern body =
        hs::dataset::generate_pattern(family_for(c), params, rng)
            .clipped_to(band);
    for (hs::layout::Rect rect : body.rects()) {
      rect.y0 += band.y0;
      rect.y1 += band.y0;
      cell.add(rect);
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

TiledChip make_tiled_chip(const std::vector<hs::layout::Pattern>& cells,
                          hs::util::Rng& rng, std::int64_t tiles) {
  TiledChip chip;
  chip.tiles = tiles;
  for (std::int64_t t = 0; t < tiles * tiles; ++t) {
    chip.cell_of_tile.push_back(
        static_cast<int>(t % static_cast<std::int64_t>(cells.size())));
  }
  rng.shuffle(chip.cell_of_tile);
  for (std::int64_t iy = 0; iy < tiles; ++iy) {
    for (std::int64_t ix = 0; ix < tiles; ++ix) {
      const hs::layout::Pattern& cell = cells[static_cast<std::size_t>(
          chip.cell_of_tile[static_cast<std::size_t>(iy * tiles + ix)])];
      for (hs::layout::Rect rect : cell.rects()) {
        rect.x0 += ix * kClipNm;
        rect.x1 += ix * kClipNm;
        rect.y0 += iy * kClipNm;
        rect.y1 += iy * kClipNm;
        chip.chip.add(rect);
      }
    }
  }
  return chip;
}

std::int64_t Phase::clips() const {
  std::int64_t total = 0;
  for (const Request& request : requests) {
    total += static_cast<std::int64_t>(request.clip_ids.size());
  }
  return total;
}

std::int64_t Phase::bulk_requests() const {
  std::int64_t bulk = 0;
  for (const Request& request : requests) {
    bulk += request.clip_ids.size() == kBulkClips ? 1 : 0;
  }
  return bulk;
}

Phase make_phase(hs::util::Rng& rng, const std::string& name, double rate,
                 double duration_s, int pool_size) {
  Phase phase;
  phase.name = name;
  phase.rate = rate;
  phase.duration_s = duration_s;
  const auto count = static_cast<std::size_t>(std::llround(rate * duration_s));
  std::vector<double> arrivals(count);
  for (double& t : arrivals) {
    t = rng.uniform(0.0, duration_s);
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::vector<int> sizes(count);
  for (int& size : sizes) {
    size = static_cast<int>(rng.uniform_int(1, 4));
  }
  for (std::size_t group = 0; (group + 1) * kBulkEvery <= count; ++group) {
    sizes[group * kBulkEvery + static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(kBulkEvery) -
                                          1))] = kBulkClips;
  }
  for (std::size_t i = 0; i < count; ++i) {
    Request request;
    request.due_s = arrivals[i];
    for (int k = 0; k < sizes[i]; ++k) {
      request.clip_ids.push_back(
          static_cast<int>(rng.uniform_int(0, pool_size - 1)));
    }
    phase.requests.push_back(std::move(request));
  }
  return phase;
}

}  // namespace perfbench
