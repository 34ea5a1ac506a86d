#include "scan/dedup_cache.h"

#include <array>
#include <cstring>
#include <new>

#include "obs/metrics.h"
#include "util/fault_injection.h"

namespace hotspot::scan {

namespace {

constexpr std::uint64_t kHashMultiplier = 0x9e3779b97f4a7c15ULL;

// One mixing step: xor the word in, multiply by an odd constant, fold the
// high half down so later steps see every bit. For a fixed word it is a
// bijection of the state, and for a fixed state one of the word.
std::uint64_t mix(std::uint64_t state, std::uint64_t word) {
  state = (state ^ word) * kHashMultiplier;
  return state ^ (state >> 32);
}

}  // namespace

std::uint64_t hash_raster(std::span<const std::uint8_t> pixels) {
  // Words go round-robin to four lanes, so four multiply chains run side
  // by side instead of one. A word that differs changes its lane's state,
  // and the lanes fold into one hash through the same bijective step.
  constexpr std::size_t kLanes = 4;
  std::array<std::uint64_t, kLanes> lanes = {
      0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL, 0x9ce484222325cbf2ULL,
      0x2325cbf29ce48422ULL};
  const std::size_t words = pixels.size() / 8;
  const auto load = [&](std::size_t offset, std::size_t bytes) {
    std::uint64_t word = 0;
    std::memcpy(&word, pixels.data() + offset, bytes);
    return word;
  };
  std::size_t w = 0;
  for (; w + kLanes <= words; w += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes[l] = mix(lanes[l], load((w + l) * 8, 8));
    }
  }
  for (; w < words; ++w) {
    lanes[w % kLanes] = mix(lanes[w % kLanes], load(w * 8, 8));
  }
  const std::size_t tail = pixels.size() - words * 8;
  if (tail > 0) {  // zero-padded
    lanes[words % kLanes] = mix(lanes[words % kLanes], load(words * 8, tail));
  }
  std::uint64_t hash = lanes[0];
  for (std::size_t l = 1; l < kLanes; ++l) {
    hash = mix(hash, lanes[l]);
  }
  // Mix in the length so "all zeros, n pixels" and "all zeros, m pixels"
  // differ even though the zero-padded words would not.
  return mix(hash, static_cast<std::uint64_t>(pixels.size()));
}

std::int64_t RasterDedupCache::find(std::uint64_t hash,
                                    std::span<const std::uint8_t> pixels) {
  const auto bucket = buckets_.find(hash);
  if (bucket == buckets_.end()) {
    return -1;
  }
  for (const LruList::iterator node : bucket->second) {
    if (node->pixels.size() == pixels.size() &&
        std::memcmp(node->pixels.data(), pixels.data(), pixels.size()) ==
            0) {
      lru_.splice(lru_.begin(), lru_, node);  // refresh recency
      return node->entry;
    }
  }
  return -1;
}

void RasterDedupCache::evict_lru() {
  const LruList::iterator victim = std::prev(lru_.end());
  std::vector<LruList::iterator>& bucket = buckets_[victim->hash];
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i] == victim) {
      bucket[i] = bucket.back();
      bucket.pop_back();
      break;
    }
  }
  if (bucket.empty()) {
    buckets_.erase(victim->hash);
  }
  bytes_ -= victim->pixels.size();
  lru_.erase(victim);
  ++evictions_;
  static obs::Counter& evictions_counter =
      obs::MetricsRegistry::global().counter("scan.dedup.evictions");
  evictions_counter.increment();
  publish_bytes_gauge();
}

void RasterDedupCache::publish_bytes_gauge() const {
  // The cache is single-writer, so a plain set is exact. A second live
  // cache instance would clobber this gauge; scans run one cache at a time.
  static obs::Gauge& bytes_gauge =
      obs::MetricsRegistry::global().gauge("scan.dedup.bytes");
  bytes_gauge.set(static_cast<double>(bytes_));
}

bool RasterDedupCache::insert(std::uint64_t hash, RasterKey pixels,
                              std::int64_t entry) {
  if (util::fault_should_fail(util::FaultPoint::kScanAlloc)) {
    throw std::bad_alloc();
  }
  const auto bucket = buckets_.find(hash);
  if (bucket != buckets_.end()) {
    for (const LruList::iterator node : bucket->second) {
      if (node->pixels == pixels) {
        // Re-inserting a cached raster must not grow the LRU list or the
        // byte counter: pushing a duplicate node used to double-count
        // bytes_ (and leave a stale twin that corrupted the count again on
        // eviction). Overwrite in place — the payload is identical, so the
        // accounting is unchanged — and refresh recency like a hit.
        node->entry = entry;
        lru_.splice(lru_.begin(), lru_, node);
        publish_bytes_gauge();
        return true;
      }
    }
  }
  const std::size_t incoming = pixels.size();
  if (max_bytes_ != 0 && incoming > max_bytes_) {
    return false;  // cannot fit even an empty cache; classified, not cached
  }
  while ((max_entries_ != 0 && lru_.size() >= max_entries_) ||
         (max_bytes_ != 0 && bytes_ + incoming > max_bytes_)) {
    evict_lru();
  }
  lru_.push_front(Keyed{hash, std::move(pixels), entry});
  buckets_[hash].push_back(lru_.begin());
  bytes_ += incoming;
  publish_bytes_gauge();
  return true;
}

}  // namespace hotspot::scan
