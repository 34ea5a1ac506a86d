// Persistent thread pool with a deterministic parallel_for.
//
// Partitioning is a pure function of (range, grain) — never of the thread
// count — so a loop body that writes disjoint outputs per index (or reduces
// entirely within one index) produces bit-identical results at any thread
// count. Chunks are handed to threads dynamically for load balance; only the
// *assignment* varies between runs, never the chunk boundaries or the
// iteration order inside a chunk.
//
// The pool is process-global and lazy: no threads are spawned until the
// first parallel_for that could use more than one, so single-threaded
// configurations pay nothing. The worker count defaults to the hardware
// concurrency and can be overridden with the HOTSPOT_NUM_THREADS environment
// variable or set_parallel_threads() at runtime (benches sweep it).
//
// Nested parallel_for calls (a loop body calling a parallel kernel) execute
// the inner loop inline on the calling worker, so composition is safe and
// still deterministic.
#pragma once

#include <cstdint>
#include <functional>

namespace hotspot::util {

// Loop body: processes the half-open index range [chunk_begin, chunk_end).
using ParallelChunkFn = std::function<void(std::int64_t, std::int64_t)>;

// Number of threads the pool is configured to use (>= 1).
int parallel_threads();

// Sanity cap on any configured thread count. Far above any real machine
// this code targets, but low enough that an overflowed or fat-fingered
// HOTSPOT_NUM_THREADS can never ask the pool to spawn millions of workers.
inline constexpr int kMaxThreadCount = 1024;

// Strict parse of a thread count (the HOTSPOT_NUM_THREADS format, shared
// by the serve CLI's --threads flag): a plain base-10 integer in
// [1, kMaxThreadCount] with no trailing junk. Returns false — without
// writing *out — on garbage, overflow (ERANGE or > INT_MAX; the strtol
// result is range-checked, never truncated), zero/negative values, or
// anything over the cap. `out` may be null to validate only.
bool parse_thread_count_strict(const char* text, int* out);

// Resolves HOTSPOT_NUM_THREADS the way the pool's first use does: unset or
// empty falls back to the hardware concurrency; anything else must satisfy
// parse_thread_count_strict or the process prints the offending value and
// exits 2, matching the other strict env validations (HOTSPOT_SIMD,
// HOTSPOT_BENCH_SCALE). Exposed so tests can probe the exit path without
// constructing a pool.
int resolve_threads_from_env();

// Reconfigures the pool to `threads` (clamped to >= 1). Must not be called
// from inside a parallel region. Overrides HOTSPOT_NUM_THREADS.
void set_parallel_threads(int threads);

// Splits [begin, end) into chunks of at least `grain` indices and runs
// `fn(chunk_begin, chunk_end)` over every chunk, using the calling thread
// plus the pool workers. Runs inline when the range is small, the pool has
// one thread, or the caller is already inside a parallel region. Exceptions
// thrown by `fn` are rethrown (first one wins) on the calling thread after
// the loop completes.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const ParallelChunkFn& fn);

// Number of parallel_for calls so far, process-wide, that handed chunks to
// the pool; calls that ran inline are not counted. Lets tests pin which
// shapes stay on the caller.
std::int64_t parallel_dispatch_count();

// Work, in elements touched, below which a chunk is not worth a hand-off
// to another thread: about a hundred microseconds of streaming float or
// popcount work, against a few microseconds to wake a pool worker. Sized
// so that every stage of a batch-1 forward of the 32-px compact network
// (the serve path; its largest stage, a direct conv, touches 2^16
// channel words) fits in one chunk and runs on the caller.
inline constexpr std::int64_t kMinChunkWork = std::int64_t{1} << 17;

// Grain for a loop whose every index touches about `work_per_index`
// elements: each chunk carries at least kMinChunkWork, so a loop whose
// whole range is smaller than that runs inline on the caller. A pure
// function of the shape, like the partition it feeds.
inline std::int64_t grain_for_work(std::int64_t work_per_index) {
  const std::int64_t work = work_per_index > 0 ? work_per_index : 1;
  return (kMinChunkWork + work - 1) / work;
}

}  // namespace hotspot::util
