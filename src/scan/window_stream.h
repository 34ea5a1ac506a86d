// Lazy clip-window iteration for full-chip scans (DESIGN.md §11).
//
// `layout::extract_clips` materializes every window's clipped geometry up
// front — O(windows × rects) memory on a real chip. ClipWindowStream walks
// the same window grid (identical positions, identical scan order) but
// materializes one window's geometry on demand, so a scan holds O(batch)
// windows alive instead of the whole chip.
//
// A flat bucket index over the chip's rects (cell edge = window edge, one
// CSR array built by count, prefix sum and fill) makes each
// materialization touch only the rects that can intersect the window,
// instead of every rect on the chip. A window overlaps at most 2×2 cells;
// their ascending index lists are merged, so candidates are visited in
// insertion order and the produced rects are bit-identical — same rects,
// same order — to Pattern::clipped_to over the full rect list.
#pragma once

#include <cstdint>
#include <vector>

#include "layout/clip.h"
#include "layout/geometry.h"

namespace hotspot::scan {

// One window position in the scan grid.
struct WindowRef {
  std::int64_t index = 0;  // scan order: iy * cols + ix
  std::int64_t ix = 0;     // column in the window grid
  std::int64_t iy = 0;     // row in the window grid
  layout::Rect window;     // absolute chip coordinates
};

class ClipWindowStream {
 public:
  // Walks size_nm x size_nm windows over `full`'s bounding box with the
  // given step. Requires step_nm <= size_nm (a larger step would leave
  // uncovered stripes, the same contract as layout::extract_clips). The
  // pattern must outlive the stream.
  ClipWindowStream(const layout::Pattern& full, std::int64_t size_nm,
                   std::int64_t step_nm);

  std::int64_t cols() const { return cols_; }
  std::int64_t rows() const { return rows_; }
  std::int64_t window_count() const { return cols_ * rows_; }
  // Bounding-box origin the window grid is anchored at.
  std::int64_t origin_x() const { return origin_x_; }
  std::int64_t origin_y() const { return origin_y_; }
  std::int64_t size_nm() const { return size_nm_; }
  std::int64_t step_nm() const { return step_nm_; }

  // Advances to the next window in scan order (row-major, x fastest).
  // Returns false when the grid is exhausted.
  bool next(WindowRef& out);

  // Restarts the scan from the first window.
  void reset() { cursor_ = 0; }

  // Window geometry for an arbitrary grid index (0 <= index < count).
  WindowRef window_at(std::int64_t index) const;

  // Clipped geometry of one window, translated to the window's local frame.
  // Bit-identical to full.clipped_to(ref.window) wrapped in a Clip.
  layout::Clip materialize(const WindowRef& ref) const;

  // The rects materialize() returns, written into `out` (cleared first) so
  // a hot loop can reuse one buffer. Reads only the stream's immutable
  // index, so concurrent calls with distinct `out` buffers are safe.
  void clip_into(const WindowRef& ref, std::vector<layout::Rect>& out) const;

 private:
  const layout::Pattern* full_;
  std::int64_t size_nm_;
  std::int64_t step_nm_;
  std::int64_t origin_x_ = 0;
  std::int64_t origin_y_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t rows_ = 0;
  std::int64_t cursor_ = 0;

  // Bucket index, cell edge = size_nm, anchored at the bounding-box
  // origin: the rects of cell c are cell_rects_[cell_begin_[c],
  // cell_begin_[c + 1]), in ascending (insertion) order.
  std::int64_t cell_cols_ = 0;
  std::int64_t cell_rows_ = 0;
  std::vector<std::int64_t> cell_begin_;
  std::vector<std::int64_t> cell_rects_;
};

}  // namespace hotspot::scan
