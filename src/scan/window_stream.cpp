#include "scan/window_stream.h"

#include <algorithm>
#include <array>

#include "util/check.h"

namespace hotspot::scan {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

ClipWindowStream::ClipWindowStream(const layout::Pattern& full,
                                   std::int64_t size_nm, std::int64_t step_nm)
    : full_(&full), size_nm_(size_nm), step_nm_(step_nm) {
  HOTSPOT_CHECK_GT(size_nm, 0);
  HOTSPOT_CHECK_GT(step_nm, 0);
  HOTSPOT_CHECK_LE(step_nm, size_nm)
      << "step larger than the window edge leaves uncovered stripes "
         "between windows";
  if (full.empty()) {
    return;
  }
  const layout::Rect box = full.bounding_box();
  origin_x_ = box.x0;
  origin_y_ = box.y0;
  // Same grid as layout::extract_clips: one window per step until the
  // position passes the bounding box edge.
  cols_ = ceil_div(box.x1 - box.x0, step_nm_);
  rows_ = ceil_div(box.y1 - box.y0, step_nm_);

  // Bucket the rects by size_nm-edge cells so one window materialization
  // only visits candidates, not the whole chip: count per cell, prefix-sum
  // into offsets, then fill in rect order so every cell lists ascending
  // indices.
  cell_cols_ = ceil_div(box.x1 - box.x0, size_nm_);
  cell_rows_ = ceil_div(box.y1 - box.y0, size_nm_);
  const auto cell_count = static_cast<std::size_t>(cell_cols_ * cell_rows_);
  const auto& rects = full.rects();
  const auto for_each_cell = [&](const layout::Rect& rect, auto&& visit) {
    const std::int64_t cx0 = (rect.x0 - origin_x_) / size_nm_;
    const std::int64_t cx1 = (rect.x1 - 1 - origin_x_) / size_nm_;
    const std::int64_t cy0 = (rect.y0 - origin_y_) / size_nm_;
    const std::int64_t cy1 = (rect.y1 - 1 - origin_y_) / size_nm_;
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
        visit(static_cast<std::size_t>(cy * cell_cols_ + cx));
      }
    }
  };
  cell_begin_.assign(cell_count + 1, 0);
  for (const layout::Rect& rect : rects) {
    for_each_cell(rect, [&](std::size_t cell) { ++cell_begin_[cell + 1]; });
  }
  for (std::size_t c = 0; c < cell_count; ++c) {
    cell_begin_[c + 1] += cell_begin_[c];
  }
  cell_rects_.resize(static_cast<std::size_t>(cell_begin_.back()));
  std::vector<std::int64_t> fill(cell_begin_.begin(), cell_begin_.end() - 1);
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(rects.size()); ++i) {
    for_each_cell(rects[static_cast<std::size_t>(i)], [&](std::size_t cell) {
      cell_rects_[static_cast<std::size_t>(fill[cell]++)] = i;
    });
  }
}

WindowRef ClipWindowStream::window_at(std::int64_t index) const {
  HOTSPOT_CHECK(index >= 0 && index < window_count())
      << "window index " << index << " out of range for " << window_count();
  WindowRef ref;
  ref.index = index;
  ref.ix = index % cols_;
  ref.iy = index / cols_;
  const std::int64_t x = origin_x_ + ref.ix * step_nm_;
  const std::int64_t y = origin_y_ + ref.iy * step_nm_;
  ref.window = layout::Rect{x, y, x + size_nm_, y + size_nm_};
  return ref;
}

bool ClipWindowStream::next(WindowRef& out) {
  if (cursor_ >= window_count()) {
    return false;
  }
  out = window_at(cursor_);
  ++cursor_;
  return true;
}

layout::Clip ClipWindowStream::materialize(const WindowRef& ref) const {
  std::vector<layout::Rect> rects;
  clip_into(ref, rects);
  return layout::Clip{layout::Pattern(std::move(rects)), size_nm_};
}

void ClipWindowStream::clip_into(const WindowRef& ref,
                                 std::vector<layout::Rect>& out) const {
  out.clear();
  const auto& rects = full_->rects();
  const auto emit = [&](std::int64_t i) {
    layout::Rect cut =
        layout::intersect(rects[static_cast<std::size_t>(i)], ref.window);
    if (!cut.empty()) {
      cut.x0 -= ref.window.x0;
      cut.x1 -= ref.window.x0;
      cut.y0 -= ref.window.y0;
      cut.y1 -= ref.window.y0;
      out.push_back(cut);
    }
  };
  // The cells the window overlaps: at most 2x2, since cell edge = window
  // edge.
  const std::int64_t cx0 =
      std::max<std::int64_t>(0, (ref.window.x0 - origin_x_) / size_nm_);
  const std::int64_t cx1 = std::min<std::int64_t>(
      cell_cols_ - 1, (ref.window.x1 - 1 - origin_x_) / size_nm_);
  const std::int64_t cy0 =
      std::max<std::int64_t>(0, (ref.window.y0 - origin_y_) / size_nm_);
  const std::int64_t cy1 = std::min<std::int64_t>(
      cell_rows_ - 1, (ref.window.y1 - 1 - origin_y_) / size_nm_);
  HOTSPOT_CHECK_LE((cx1 - cx0 + 1) * (cy1 - cy0 + 1), 4);
  std::array<const std::int64_t*, 4> head{};
  std::array<const std::int64_t*, 4> tail{};
  std::size_t lists = 0;
  for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      const auto cell = static_cast<std::size_t>(cy * cell_cols_ + cx);
      head[lists] = cell_rects_.data() + cell_begin_[cell];
      tail[lists] = cell_rects_.data() + cell_begin_[cell + 1];
      ++lists;
    }
  }
  // Merge the ascending lists, emitting a rect shared by several cells
  // once: the candidates come out in insertion order, as clipped_to visits
  // them.
  for (;;) {
    std::int64_t next = -1;
    for (std::size_t l = 0; l < lists; ++l) {
      if (head[l] != tail[l] && (next < 0 || *head[l] < next)) {
        next = *head[l];
      }
    }
    if (next < 0) {
      return;
    }
    emit(next);
    for (std::size_t l = 0; l < lists; ++l) {
      if (head[l] != tail[l] && *head[l] == next) {
        ++head[l];
      }
    }
  }
}

}  // namespace hotspot::scan
