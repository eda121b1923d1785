#include "src/store/cluster_hash.h"

#include <cassert>
#include <cstring>

#include "src/htm/htm.h"

namespace drtm {
namespace store {

namespace {

// Offsets of the allocator metadata words, relative to meta_offset_.
constexpr uint64_t kEntryBump = 0;
constexpr uint64_t kEntryFreeHead = 8;
constexpr uint64_t kBucketBump = 16;
constexpr uint64_t kBucketFreeHead = 24;
constexpr uint64_t kLiveCount = 32;
constexpr uint64_t kMetaBytes = 64;

}  // namespace

ClusterHashTable::ClusterHashTable(rdma::NodeMemory* memory,
                                   const Config& config)
    : memory_(memory) {
  assert((config.main_buckets & (config.main_buckets - 1)) == 0);
  geo_.main_buckets = config.main_buckets;
  geo_.value_size = config.value_size;
  geo_.entry_size = (sizeof(EntryHeader) + config.value_size + 7) & ~7ULL;
  geo_.indirect_buckets = config.indirect_buckets;
  geo_.capacity = config.capacity;

  meta_offset_ = memory_->Allocate(kMetaBytes, 64);
  geo_.main_offset =
      memory_->Allocate(config.main_buckets * kBucketBytes, kBucketBytes);
  geo_.indirect_offset =
      memory_->Allocate(config.indirect_buckets * kBucketBytes, kBucketBytes);
  geo_.entry_base =
      memory_->Allocate(config.capacity * geo_.entry_size, 64);

  // Region memory is zero-initialized; zero means: empty buckets
  // (SlotType::kFree), bump allocators at zero, empty free lists
  // (kInvalidOffset is used as the explicit nil below, so seed the heads).
  uint64_t* meta = reinterpret_cast<uint64_t*>(memory_->At(meta_offset_));
  meta[kEntryFreeHead / 8] = kInvalidOffset;
  meta[kBucketFreeHead / 8] = kInvalidOffset;
}

Bucket ClusterHashTable::LoadBucket(uint64_t bucket_off) {
  Bucket bucket;
  htm::ReadBytes(&bucket, memory_->At(bucket_off), sizeof(bucket));
  return bucket;
}

void ClusterHashTable::StoreSlot(uint64_t bucket_off, int index,
                                 const HeaderSlot& slot) {
  htm::WriteBytes(
      memory_->At(bucket_off + static_cast<uint64_t>(index) * kSlotBytes),
      &slot, sizeof(slot));
}

uint64_t ClusterHashTable::AllocateEntry() {
  uint64_t* meta = reinterpret_cast<uint64_t*>(memory_->At(meta_offset_));
  const uint64_t free_head = htm::Load(&meta[kEntryFreeHead / 8]);
  if (free_head != kInvalidOffset) {
    // Pop: the first 8 bytes of a free entry hold the next-free offset.
    const uint64_t next =
        htm::Load(reinterpret_cast<uint64_t*>(memory_->At(free_head)));
    htm::Store(&meta[kEntryFreeHead / 8], next);
    return free_head;
  }
  const uint64_t bump = htm::Load(&meta[kEntryBump / 8]);
  if (bump >= geo_.capacity) {
    return kInvalidOffset;
  }
  htm::Store(&meta[kEntryBump / 8], bump + 1);
  return geo_.EntryOffset(bump);
}

void ClusterHashTable::FreeEntry(uint64_t entry_off) {
  uint64_t* meta = reinterpret_cast<uint64_t*>(memory_->At(meta_offset_));
  const uint64_t head = htm::Load(&meta[kEntryFreeHead / 8]);
  htm::Store(reinterpret_cast<uint64_t*>(memory_->At(entry_off)), head);
  htm::Store(&meta[kEntryFreeHead / 8], entry_off);
}

uint64_t ClusterHashTable::AllocateIndirectBucket() {
  uint64_t* meta = reinterpret_cast<uint64_t*>(memory_->At(meta_offset_));
  const uint64_t bump = htm::Load(&meta[kBucketBump / 8]);
  if (bump >= geo_.indirect_buckets) {
    return kInvalidOffset;
  }
  htm::Store(&meta[kBucketBump / 8], bump + 1);
  return geo_.indirect_offset + bump * kBucketBytes;
}

ClusterHashTable::SlotRef ClusterHashTable::FindSlot(uint64_t key) {
  uint64_t bucket_off = geo_.MainBucketOffset(key);
  while (true) {
    const Bucket bucket = LoadBucket(bucket_off);
    uint64_t next_bucket = kInvalidOffset;
    for (int i = 0; i < kSlotsPerBucket; ++i) {
      const HeaderSlot& slot = bucket.slots[i];
      if (slot.type() == SlotType::kEntry && slot.key == key) {
        return SlotRef{bucket_off, i, slot};
      }
      if (slot.type() == SlotType::kHeader) {
        next_bucket = slot.offset();
      }
    }
    if (next_bucket == kInvalidOffset) {
      return SlotRef{};
    }
    bucket_off = next_bucket;
  }
}

uint64_t ClusterHashTable::FindEntry(uint64_t key) {
  const SlotRef ref = FindSlot(key);
  return ref.found() ? ref.slot.offset() : kInvalidOffset;
}

bool ClusterHashTable::Get(uint64_t key, void* value_out) {
  const uint64_t entry = FindEntry(key);
  if (entry == kInvalidOffset) {
    return false;
  }
  htm::ReadBytes(value_out, ValuePtr(entry), geo_.value_size);
  return true;
}

bool ClusterHashTable::Put(uint64_t key, const void* value) {
  const uint64_t entry = FindEntry(key);
  if (entry == kInvalidOffset) {
    return false;
  }
  const uint32_t version = htm::Load(VersionPtr(entry));
  htm::Store(VersionPtr(entry), version + 1);
  htm::WriteBytes(ValuePtr(entry), value, geo_.value_size);
  return true;
}

bool ClusterHashTable::Insert(uint64_t key, const void* value) {
  // Reject duplicates and find placement in one chain walk.
  uint64_t bucket_off = geo_.MainBucketOffset(key);
  uint64_t free_bucket = kInvalidOffset;
  int free_index = -1;
  Bucket last;  // the chain's tail bucket, as read
  while (true) {
    last = LoadBucket(bucket_off);
    uint64_t next_bucket = kInvalidOffset;
    for (int i = 0; i < kSlotsPerBucket; ++i) {
      const HeaderSlot& slot = last.slots[i];
      if (slot.type() == SlotType::kEntry && slot.key == key) {
        return false;  // duplicate
      }
      if (slot.type() == SlotType::kFree && free_bucket == kInvalidOffset) {
        free_bucket = bucket_off;
        free_index = i;
      }
      if (slot.type() == SlotType::kHeader) {
        next_bucket = slot.offset();
      }
    }
    if (next_bucket == kInvalidOffset) {
      break;
    }
    bucket_off = next_bucket;
  }

  const uint64_t entry = AllocateEntry();
  if (entry == kInvalidOffset) {
    return false;
  }

  // Initialize the entry. Incarnation increases on INSERT (and DELETE) so
  // cached locations from a previous lifetime of this cell are detected.
  EntryHeader header;
  htm::ReadBytes(&header, EntryPtr(entry), sizeof(header));
  header.key = key;
  header.incarnation += 1;
  header.version = 0;
  header.state = 0;
  htm::WriteBytes(EntryPtr(entry), &header, sizeof(header));
  htm::WriteBytes(ValuePtr(entry), value, geo_.value_size);

  HeaderSlot new_slot;
  new_slot.meta = HeaderSlot::Pack(
      SlotType::kEntry, static_cast<uint16_t>(header.incarnation & kLossyMask),
      entry);
  new_slot.key = key;

  if (free_bucket != kInvalidOffset) {
    StoreSlot(free_bucket, free_index, new_slot);
  } else {
    // Chain extension: demote the last resident of the tail bucket into a
    // fresh indirect header, then add the new entry beside it (Fig. 9).
    const uint64_t indirect = AllocateIndirectBucket();
    if (indirect == kInvalidOffset) {
      FreeEntry(entry);
      return false;
    }
    StoreSlot(indirect, 0, last.slots[kSlotsPerBucket - 1]);
    StoreSlot(indirect, 1, new_slot);
    HeaderSlot link;
    link.meta = HeaderSlot::Pack(SlotType::kHeader, 0, indirect);
    link.key = 0;
    StoreSlot(bucket_off, kSlotsPerBucket - 1, link);
  }

  uint64_t* meta = reinterpret_cast<uint64_t*>(memory_->At(meta_offset_));
  htm::Store(&meta[kLiveCount / 8], htm::Load(&meta[kLiveCount / 8]) + 1);
  return true;
}

bool ClusterHashTable::Remove(uint64_t key) {
  const SlotRef ref = FindSlot(key);
  if (!ref.found()) {
    return false;
  }
  const uint64_t entry = ref.slot.offset();

  // Logical deletion: bump incarnation first so any cached location for
  // this entry fails its incarnation check.
  uint32_t* incarnation = reinterpret_cast<uint32_t*>(EntryPtr(entry) + 8);
  htm::Store(incarnation, htm::Load(incarnation) + 1);

  HeaderSlot cleared;
  cleared.meta = HeaderSlot::Pack(SlotType::kFree, 0, 0);
  cleared.key = 0;
  StoreSlot(ref.bucket_off, ref.index, cleared);
  FreeEntry(entry);

  uint64_t* meta = reinterpret_cast<uint64_t*>(memory_->At(meta_offset_));
  htm::Store(&meta[kLiveCount / 8], htm::Load(&meta[kLiveCount / 8]) - 1);
  return true;
}

uint64_t ClusterHashTable::ForEachEntryInBucketRange(
    uint64_t bucket_lo, uint64_t bucket_hi,
    const std::function<bool(uint64_t, uint64_t)>& fn) {
  if (bucket_hi > geo_.main_buckets) {
    bucket_hi = geo_.main_buckets;
  }
  uint64_t visited = 0;
  const uint64_t max_chain = geo_.indirect_buckets + 1;
  for (uint64_t b = bucket_lo; b < bucket_hi; ++b) {
    uint64_t bucket_off = geo_.main_offset + b * kBucketBytes;
    for (uint64_t depth = 0; depth < max_chain; ++depth) {
      const Bucket bucket = LoadBucket(bucket_off);
      uint64_t next_bucket = kInvalidOffset;
      for (int i = 0; i < kSlotsPerBucket; ++i) {
        const HeaderSlot& slot = bucket.slots[i];
        if (slot.type() == SlotType::kEntry) {
          ++visited;
          if (!fn(slot.key, slot.offset())) {
            return visited;
          }
        } else if (slot.type() == SlotType::kHeader) {
          next_bucket = slot.offset();
        }
      }
      if (next_bucket == kInvalidOffset) {
        break;
      }
      bucket_off = next_bucket;
    }
  }
  return visited;
}

bool ClusterHashTable::InstallVersioned(uint64_t key, uint32_t version,
                                        const void* value) {
  uint64_t entry = FindEntry(key);
  if (entry == kInvalidOffset) {
    if (!Insert(key, value)) {
      return false;
    }
    entry = FindEntry(key);
    if (entry == kInvalidOffset) {
      return false;
    }
    htm::Store(VersionPtr(entry), version);
    return true;
  }
  const uint32_t current = htm::Load(VersionPtr(entry));
  if (current < version) {
    htm::Store(VersionPtr(entry), version);
    htm::WriteBytes(ValuePtr(entry), value, geo_.value_size);
  }
  return true;
}

uint64_t ClusterHashTable::live_entries() const {
  const uint64_t* meta =
      reinterpret_cast<const uint64_t*>(memory_->At(meta_offset_));
  return htm::Load(&meta[kLiveCount / 8]);
}

}  // namespace store
}  // namespace drtm
