#include "src/store/location_cache.h"

#include <cstring>

#include "src/stat/metrics.h"

namespace drtm {
namespace store {

namespace {

struct CacheMetricIds {
  uint32_t hit = 0;
  uint32_t miss = 0;
  uint32_t install = 0;
  uint32_t invalidate = 0;
  uint32_t hint_hit = 0;
};

const CacheMetricIds& CacheIds() {
  static const CacheMetricIds ids = [] {
    stat::Registry& reg = stat::Registry::Global();
    CacheMetricIds c;
    c.hit = reg.CounterId("cache.hit");
    c.miss = reg.CounterId("cache.miss");
    c.install = reg.CounterId("cache.install");
    c.invalidate = reg.CounterId("cache.invalidate");
    c.hint_hit = reg.CounterId("cache.hint_hit");
    return c;
  }();
  return ids;
}

size_t FramesForBudget(size_t budget_bytes) {
  const size_t frame_bytes = sizeof(Bucket) + 16;
  size_t frames = budget_bytes / frame_bytes;
  if (frames < 2) {
    frames = 2;
  }
  // Round down to a power of two for masking.
  size_t pow2 = 1;
  while (pow2 * 2 <= frames) {
    pow2 *= 2;
  }
  return pow2;
}

// The bucket's chain continuation: the kHeader slot pointing at the
// chained indirect bucket, or kInvalidOffset when the chain ends here.
uint64_t ChainNext(const Bucket& bucket) {
  for (const HeaderSlot& slot : bucket.slots) {
    if (slot.type() == SlotType::kHeader) {
      return slot.offset();
    }
  }
  return kInvalidOffset;
}

}  // namespace

LocationCache::LocationCache(size_t budget_bytes, std::string shard_label)
    : frames_count_(FramesForBudget(budget_bytes)),
      frame_mask_(frames_count_ - 1) {
  frames_ = std::make_unique<Frame[]>(frames_count_);
  stat::Registry& reg = stat::Registry::Global();
  std::string capacity_name = "cache.capacity_entries";
  std::string occupancy_name = "cache.occupied_entries";
  if (!shard_label.empty()) {
    capacity_name += "." + shard_label;
    occupancy_name += "." + shard_label;
  }
  capacity_gauge_ = reg.GaugeId(capacity_name);
  occupancy_gauge_ = reg.GaugeId(occupancy_name);
  reg.GaugeAdd(capacity_gauge_, static_cast<int64_t>(frames_count_));
}

LocationCache::~LocationCache() {
  stat::Registry& reg = stat::Registry::Global();
  reg.GaugeAdd(capacity_gauge_, -static_cast<int64_t>(frames_count_));
  reg.GaugeAdd(occupancy_gauge_,
               -static_cast<int64_t>(occupied_.load(std::memory_order_relaxed)));
}

bool LocationCache::Lookup(uint64_t bucket_off, Bucket* out) {
  Frame& frame = FrameFor(bucket_off);
  bool hit = false;
  {
    SpinLatchGuard guard(frame.latch);
    if (frame.tag == bucket_off) {
      std::memcpy(out, &frame.bucket, sizeof(Bucket));
      hit = true;
    }
  }
  stat::Registry::Global().Add(hit ? CacheIds().hit : CacheIds().miss);
  return hit;
}

void LocationCache::Install(uint64_t bucket_off, const Bucket& bucket) {
  Frame& frame = FrameFor(bucket_off);
  bool newly_occupied = false;
  {
    SpinLatchGuard guard(frame.latch);
    newly_occupied = frame.tag == kInvalidOffset;
    frame.tag = bucket_off;
    frame.hint_tag = bucket_off;
    frame.next_hint = ChainNext(bucket);
    std::memcpy(&frame.bucket, &bucket, sizeof(Bucket));
  }
  stat::Registry& reg = stat::Registry::Global();
  reg.Add(CacheIds().install);
  if (newly_occupied) {
    occupied_.fetch_add(1, std::memory_order_relaxed);
    reg.GaugeAdd(occupancy_gauge_, 1);
  }
}

void LocationCache::Invalidate(uint64_t bucket_off) {
  Frame& frame = FrameFor(bucket_off);
  bool vacated = false;
  {
    SpinLatchGuard guard(frame.latch);
    if (frame.tag == bucket_off) {
      frame.tag = kInvalidOffset;
      vacated = true;
    }
  }
  if (vacated) {
    stat::Registry& reg = stat::Registry::Global();
    reg.Add(CacheIds().invalidate);
    occupied_.fetch_sub(1, std::memory_order_relaxed);
    reg.GaugeAdd(occupancy_gauge_, -1);
  }
}

bool LocationCache::NextHint(uint64_t bucket_off, uint64_t* next_off) {
  Frame& frame = FrameFor(bucket_off);
  SpinLatchGuard guard(frame.latch);
  if (frame.hint_tag != bucket_off) {
    return false;
  }
  *next_off = frame.next_hint;
  stat::Registry::Global().Add(CacheIds().hint_hit);
  return true;
}

}  // namespace store
}  // namespace drtm
