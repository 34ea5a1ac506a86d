#include "scan/window_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "layout/clip.h"
#include "util/rng.h"

namespace hotspot::scan {
namespace {

using layout::Pattern;
using layout::Rect;

// The stream must walk exactly the grid extract_clips materializes, and
// each materialized window must hold bit-identical geometry (same rects,
// same order) — the scan subsystem's equivalence contract.
TEST(ClipWindowStream, MatchesExtractClips) {
  Pattern chip({Rect{0, 0, 700, 300}, Rect{1200, 100, 2600, 900},
                Rect{400, 1400, 500, 2100}, Rect{2500, 2000, 2600, 2100}});
  const std::int64_t size = 1000;
  const std::int64_t step = 500;  // overlapping scan
  const auto eager = layout::extract_clips(chip, size, step);

  ClipWindowStream stream(chip, size, step);
  ASSERT_EQ(static_cast<std::size_t>(stream.window_count()), eager.size());
  WindowRef ref;
  std::int64_t count = 0;
  while (stream.next(ref)) {
    const layout::Clip streamed = stream.materialize(ref);
    ASSERT_LT(static_cast<std::size_t>(ref.index), eager.size());
    EXPECT_EQ(streamed.pattern.rects(),
              eager[static_cast<std::size_t>(ref.index)].pattern.rects())
        << "window " << ref.index;
    EXPECT_EQ(streamed.size_nm, size);
    ++count;
  }
  EXPECT_EQ(count, stream.window_count());
}

// With stride < window, windows lie in 1, 2 or 4 bucket cells (cell edge =
// window edge). Rects spanning several cells sit in each of their lists;
// the merged gather must still yield every rect once, in insertion order,
// exactly as Pattern::clipped_to does — through materialize and through a
// reused clip_into buffer alike.
TEST(ClipWindowStream, MaterializeMatchesClippedToAcrossBucketCells) {
  util::Rng rng(31);
  Pattern chip;
  for (int i = 0; i < 400; ++i) {
    const std::int64_t x0 = rng.uniform_int(0, 4800);
    const std::int64_t y0 = rng.uniform_int(0, 3800);
    const std::int64_t w = i % 7 == 0 ? rng.uniform_int(900, 2500)
                                      : rng.uniform_int(1, 300);
    const std::int64_t h = i % 11 == 0 ? rng.uniform_int(900, 2500)
                                       : rng.uniform_int(1, 300);
    chip.add(Rect{x0, y0, x0 + w, y0 + h});
  }
  const std::int64_t size = 1000;
  ClipWindowStream stream(chip, size, 300);
  const Rect box = chip.bounding_box();
  std::set<std::int64_t> cells_seen;
  std::vector<Rect> reused;
  WindowRef ref;
  while (stream.next(ref)) {
    const auto span = [&](std::int64_t lo, std::int64_t hi,
                          std::int64_t origin, std::int64_t cells) {
      const std::int64_t first = (lo - origin) / size;
      const std::int64_t last =
          std::min<std::int64_t>(cells - 1, (hi - 1 - origin) / size);
      return last - first + 1;
    };
    const std::int64_t cells =
        span(ref.window.x0, ref.window.x1, box.x0,
             (box.x1 - box.x0 + size - 1) / size) *
        span(ref.window.y0, ref.window.y1, box.y0,
             (box.y1 - box.y0 + size - 1) / size);
    cells_seen.insert(cells);
    const std::vector<Rect> expected = chip.clipped_to(ref.window).rects();
    EXPECT_EQ(stream.materialize(ref).pattern.rects(), expected)
        << "window " << ref.index << " in " << cells << " cells";
    stream.clip_into(ref, reused);
    EXPECT_EQ(reused, expected) << "window " << ref.index;
  }
  EXPECT_EQ(cells_seen, (std::set<std::int64_t>{1, 2, 4}));
}

TEST(ClipWindowStream, ScanOrderIsRowMajor) {
  Pattern chip({Rect{0, 0, 2000, 1000}});
  ClipWindowStream stream(chip, 1000, 1000);
  EXPECT_EQ(stream.cols(), 2);
  EXPECT_EQ(stream.rows(), 1);
  WindowRef first;
  WindowRef second;
  ASSERT_TRUE(stream.next(first));
  ASSERT_TRUE(stream.next(second));
  EXPECT_EQ(first.index, 0);
  EXPECT_EQ(first.window, (Rect{0, 0, 1000, 1000}));
  EXPECT_EQ(second.index, 1);
  EXPECT_EQ(second.window, (Rect{1000, 0, 2000, 1000}));
  WindowRef none;
  EXPECT_FALSE(stream.next(none));
  stream.reset();
  ASSERT_TRUE(stream.next(none));
  EXPECT_EQ(none.index, 0);
}

TEST(ClipWindowStream, OriginFollowsBoundingBox) {
  Pattern chip({Rect{1200, 200, 1400, 400}});
  ClipWindowStream stream(chip, 1000, 1000);
  EXPECT_EQ(stream.origin_x(), 1200);
  EXPECT_EQ(stream.origin_y(), 200);
  EXPECT_EQ(stream.window_count(), 1);
  WindowRef ref;
  ASSERT_TRUE(stream.next(ref));
  const layout::Clip clip = stream.materialize(ref);
  EXPECT_EQ(clip.pattern.rects()[0], (Rect{0, 0, 200, 200}));
}

TEST(ClipWindowStream, EmptyPatternYieldsNoWindows) {
  Pattern empty;
  ClipWindowStream stream(empty, 1000, 1000);
  EXPECT_EQ(stream.window_count(), 0);
  WindowRef ref;
  EXPECT_FALSE(stream.next(ref));
}

TEST(ClipWindowStream, StepLargerThanSizeRejected) {
  Pattern chip({Rect{0, 0, 3000, 1000}});
  EXPECT_DEATH(ClipWindowStream(chip, 1000, 1500), "HOTSPOT_CHECK");
}

TEST(ClipWindowStream, WindowAtRandomAccessAgreesWithScanOrder) {
  Pattern chip({Rect{0, 0, 2500, 1500}});
  ClipWindowStream stream(chip, 1000, 500);
  WindowRef ref;
  while (stream.next(ref)) {
    const WindowRef direct = stream.window_at(ref.index);
    EXPECT_EQ(direct.window, ref.window);
    EXPECT_EQ(direct.ix, ref.ix);
    EXPECT_EQ(direct.iy, ref.iy);
  }
}

}  // namespace
}  // namespace hotspot::scan
