// Location-based, host-transparent cache (section 5.3).
//
// Caches header buckets of a remote DrTM-KV table, keyed by their offset
// in the remote region, direct-mapped. Cached content is "a partially
// stale snapshot": staleness is detected when the entry a cached slot
// points at fails its key / lossy-incarnation check, which simply turns
// into a cache miss — no invalidation traffic, fully transparent to the
// host. The cache is shared by all client threads of a machine.
//
// Besides whole buckets the cache remembers each bucket's chain shape:
// Install() records the offset of the chained indirect bucket (the
// kHeader slot) as a *next hint*. Hints survive Invalidate() — an
// incarnation miss means the entry moved, not that the chain shape
// changed — so a revalidation walk can speculatively post the whole
// predicted chain as one doorbell batch (RemoteKv::Lookup).
#ifndef SRC_STORE_LOCATION_CACHE_H_
#define SRC_STORE_LOCATION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/spin_latch.h"
#include "src/store/kv_layout.h"

namespace drtm {
namespace store {

class LocationCache {
 public:
  // budget_bytes is divided into direct-mapped bucket frames
  // (~144 bytes each); a 16 MB cache holds about one million locations
  // (the paper's sizing example). shard_label, when non-empty, suffixes
  // the capacity/occupancy gauge names ("cache.capacity_entries.<label>")
  // so per-machine shards are distinguishable; caches sharing a label
  // aggregate into one gauge.
  explicit LocationCache(size_t budget_bytes, std::string shard_label = "");
  ~LocationCache();

  LocationCache(const LocationCache&) = delete;
  LocationCache& operator=(const LocationCache&) = delete;

  // Copies the cached bucket at remote offset bucket_off into *out.
  bool Lookup(uint64_t bucket_off, Bucket* out);

  // Installs (or replaces) the frame for bucket_off and records the
  // bucket's chain next-pointer as a speculation hint.
  void Install(uint64_t bucket_off, const Bucket& bucket);

  // Drops the frame for bucket_off if present (used after an
  // incarnation-check miss so the stale snapshot is refreshed). The
  // chain next hint is preserved.
  void Invalidate(uint64_t bucket_off);

  // Chain-shape speculation: returns true if the cache knows where the
  // chain continues after bucket_off. *next_off receives the chained
  // indirect bucket's offset, or kInvalidOffset if the chain is known to
  // end there. False means no hint (never observed this bucket).
  bool NextHint(uint64_t bucket_off, uint64_t* next_off);

  size_t frames() const { return frames_count_; }
  // Frames currently holding a valid bucket snapshot.
  size_t occupied() const {
    return occupied_.load(std::memory_order_relaxed);
  }

 private:
  struct Frame {
    SpinLatch latch;
    uint64_t tag = kInvalidOffset;  // remote bucket offset
    // Chain hint, tagged separately so Invalidate keeps it.
    uint64_t hint_tag = kInvalidOffset;
    uint64_t next_hint = kInvalidOffset;
    Bucket bucket;
  };

  Frame& FrameFor(uint64_t bucket_off) {
    const uint64_t index = MixHash(bucket_off / kBucketBytes) & frame_mask_;
    return frames_[index];
  }

  std::unique_ptr<Frame[]> frames_;
  size_t frames_count_;
  uint64_t frame_mask_;
  std::atomic<size_t> occupied_{0};
  uint32_t capacity_gauge_;
  uint32_t occupancy_gauge_;
};

}  // namespace store
}  // namespace drtm

#endif  // SRC_STORE_LOCATION_CACHE_H_
