// Host side of the DrTM-KV cluster-chaining hash table (section 5.2).
//
// Local operations (READ/WRITE/INSERT/DELETE) are designed to run inside
// an HTM transaction: every shared access goes through the htm::Load /
// htm::Store dispatch helpers, so the HTM emulator provides race
// detection "for free" — the property that lets DrTM-KV drop Pilaf's
// checksums and FaRM's per-line versions. Run outside a transaction
// (bulk loading), the same code uses strong accesses.
//
// INSERT never relocates existing header slots (unlike cuckoo or
// hopscotch): a full bucket demotes its last resident into a freshly
// linked indirect header, keeping the HTM write set small.
#ifndef SRC_STORE_CLUSTER_HASH_H_
#define SRC_STORE_CLUSTER_HASH_H_

#include <cstdint>
#include <functional>

#include "src/rdma/node_memory.h"
#include "src/store/kv_layout.h"

namespace drtm {
namespace store {

class ClusterHashTable {
 public:
  struct Config {
    uint64_t main_buckets = 1 << 10;  // power of two
    uint64_t indirect_buckets = 1 << 9;
    uint64_t capacity = 1 << 13;  // entries
    uint32_t value_size = 64;
  };

  ClusterHashTable(rdma::NodeMemory* memory, const Config& config);

  ClusterHashTable(const ClusterHashTable&) = delete;
  ClusterHashTable& operator=(const ClusterHashTable&) = delete;

  const Geometry& geometry() const { return geo_; }
  rdma::NodeMemory& memory() { return *memory_; }

  // --- local operations (HTM-protected when inside a transaction) ----------

  // Inserts key -> value. Returns false if the key already exists or the
  // table is out of entries/indirect buckets.
  bool Insert(uint64_t key, const void* value);

  // Logically deletes the key: bumps the entry incarnation (so cached
  // locations detect staleness), frees the entry, clears the slot.
  bool Remove(uint64_t key);

  // Copies the value out. Returns false if absent.
  bool Get(uint64_t key, void* value_out);

  // Overwrites the value and bumps the version. Returns false if absent.
  bool Put(uint64_t key, const void* value);

  // Returns the entry offset for key, or kInvalidOffset. The transaction
  // layer uses this to reach the state/version/value words directly.
  uint64_t FindEntry(uint64_t key);

  // Raw pointers into the registered region (valid for the table's
  // lifetime).
  uint8_t* EntryPtr(uint64_t entry_off) {
    return static_cast<uint8_t*>(memory_->At(entry_off));
  }
  uint64_t* StatePtr(uint64_t entry_off) {
    return reinterpret_cast<uint64_t*>(EntryPtr(entry_off) +
                                       kEntryStateOffset);
  }
  uint32_t* VersionPtr(uint64_t entry_off) {
    return reinterpret_cast<uint32_t*>(EntryPtr(entry_off) +
                                       kEntryVersionOffset);
  }
  uint8_t* ValuePtr(uint64_t entry_off) {
    return EntryPtr(entry_off) + kEntryValueOffset;
  }

  // Walks main buckets [bucket_lo, bucket_hi) and their indirect chains,
  // calling fn(key, entry_off) for every resident entry; fn returning
  // false stops the walk. Chain walks are step-capped (an indirect chain
  // can never exceed the indirect pool) so a torn header link from a
  // chaos run degrades to a short scan instead of an infinite loop.
  // Returns the number of entries visited. The snapshot is only loosely
  // consistent under concurrent writers — migration re-walks the range
  // after freezing it, so transient misses are caught up, not lost.
  uint64_t ForEachEntryInBucketRange(
      uint64_t bucket_lo, uint64_t bucket_hi,
      const std::function<bool(uint64_t key, uint64_t entry_off)>& fn);

  uint64_t ForEachEntry(
      const std::function<bool(uint64_t key, uint64_t entry_off)>& fn) {
    return ForEachEntryInBucketRange(0, geo_.main_buckets, fn);
  }

  // Migration-side install: create-or-overwrite `key` so the record ends
  // at least at `version`. Copy-pass and dual-write installs can arrive
  // in either order; keeping the max version makes every interleaving
  // converge to the newest value. Returns false only on allocation
  // failure (table full).
  bool InstallVersioned(uint64_t key, uint32_t version, const void* value);

  uint64_t live_entries() const;

 private:
  // Where a key's header slot sits, and the slot as read.
  struct SlotRef {
    uint64_t bucket_off = kInvalidOffset;  // kInvalidOffset on a miss
    int index = -1;
    HeaderSlot slot;
    bool found() const { return bucket_off != kInvalidOffset; }
  };

  // Walks key's chain reading one whole bucket per step (the same
  // 128-byte unit a remote lookup READs) and searches the copy.
  SlotRef FindSlot(uint64_t key);
  Bucket LoadBucket(uint64_t bucket_off);

  uint64_t AllocateEntry();
  void FreeEntry(uint64_t entry_off);
  uint64_t AllocateIndirectBucket();

  void StoreSlot(uint64_t bucket_off, int index, const HeaderSlot& slot);

  rdma::NodeMemory* memory_;
  Geometry geo_;
  // Allocation metadata lives in the registered region so it is covered
  // by HTM (an aborted INSERT rolls its allocation back).
  uint64_t meta_offset_;  // {entry_bump, entry_free_head, bucket_bump,
                          //  bucket_free_head, live_count}
};

}  // namespace store
}  // namespace drtm

#endif  // SRC_STORE_CLUSTER_HASH_H_
