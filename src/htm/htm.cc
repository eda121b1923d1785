#include "src/htm/htm.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/common/cacheline.h"
#include "src/stat/abort_taxonomy.h"

namespace drtm {
namespace htm {

// The taxonomy mirrors the RTM status layout instead of including this
// header; keep the two definitions in lockstep.
static_assert(kAbortExplicit == stat::kRtmExplicitBit);
static_assert(kAbortRetry == stat::kRtmRetryBit);
static_assert(kAbortConflict == stat::kRtmConflictBit);
static_assert(kAbortCapacity == stat::kRtmCapacityBit);

namespace {

thread_local HtmThread* g_current_tx = nullptr;
thread_local uint64_t g_region_serial = 0;

// Replay seam (SetReplayHooks). The armed flag is the only thing commits
// load on the fast path; the pointers themselves are written only while
// workloads are quiesced.
std::atomic<bool> g_replay_armed{false};
ReplayHooks g_replay_hooks;

// Enumerates the version-table slot of every cache line in [addr, addr+len).
template <typename Fn>
void ForEachLineSlot(VersionTable* table, const void* addr, size_t len,
                     Fn&& fn) {
  const uintptr_t first = reinterpret_cast<uintptr_t>(addr) >> kCacheLineShift;
  const uintptr_t last =
      (reinterpret_cast<uintptr_t>(addr) + len - 1) >> kCacheLineShift;
  for (uintptr_t line = first; line <= last; ++line) {
    fn(table->SlotFor(reinterpret_cast<const void*>(line << kCacheLineShift)));
  }
}

// Bytes [from, to) of a cache line as an image byte mask (from < to <= 64).
uint64_t RangeMask(size_t from, size_t to) {
  const uint64_t upto = to == kCacheLineSize ? ~uint64_t{0}
                                             : (uint64_t{1} << to) - 1;
  return upto & ~((uint64_t{1} << from) - 1);
}

// Calls fn(offset, length) for each run of set bits in a byte mask.
template <typename Fn>
void ForEachRun(uint64_t mask, Fn&& fn) {
  while (mask != 0) {
    const int from = __builtin_ctzll(mask);
    const uint64_t rest = ~(mask >> from);
    const int n = rest == 0 ? 64 - from : __builtin_ctzll(rest);
    fn(static_cast<size_t>(from), static_cast<size_t>(n));
    mask &= ~RangeMask(from, from + n);
  }
}

// memcpy with the whole-line case inlined: a large value is written,
// overlaid and installed one full line at a time.
void CopyLineBytes(uint8_t* dst, const uint8_t* src, size_t n) {
  if (n == kCacheLineSize) {
    std::memcpy(dst, src, kCacheLineSize);
  } else {
    std::memcpy(dst, src, n);
  }
}

// Locks a slot's seqlock (even -> odd). Returns the pre-lock (even) base
// version. Spins without bound: strong-access critical sections are a few
// instructions long.
uint64_t LockSlot(std::atomic<uint64_t>* slot) {
  while (true) {
    uint64_t v = slot->load(std::memory_order_acquire);
    if (!VersionTable::IsLocked(v) &&
        slot->compare_exchange_weak(v, v + 1, std::memory_order_acq_rel)) {
      return v;
    }
  }
}

}  // namespace

HtmThread::HtmThread(Config config, VersionTable* table)
    : config_(config), table_(table) {}

HtmThread::~HtmThread() {
  assert(depth_ == 0 && "HtmThread destroyed inside a transaction");
}

HtmThread* HtmThread::Current() {
  return (g_current_tx != nullptr && g_current_tx->depth_ > 0) ? g_current_tx
                                                               : nullptr;
}

void HtmThread::Reset() {
  lines_.clear();
  if (++epoch_ == 0) {
    // 2^32 resets: stale buckets could now look live, so really clear.
    std::fill(index_.begin(), index_.end(), 0);
    epoch_ = 1;
  }
  read_lines_ = 0;
  images_.clear();
}

void HtmThread::Begin() {
  assert(depth_ == 0);
  assert(g_current_tx == nullptr && "another HtmThread active on this thread");
  depth_ = 1;
  g_current_tx = this;
  ++g_region_serial;
  Reset();
}

uint64_t CurrentRegionSerial() {
  return HtmThread::Current() != nullptr ? g_region_serial : 0;
}

void HtmThread::AbortWith(unsigned status) { throw AbortException{status}; }

void HtmThread::Abort(uint8_t user_code) {
  assert(depth_ > 0);
  AbortWith(kAbortExplicit | (static_cast<unsigned>(user_code) << 24));
}

void HtmThread::Rollback(unsigned status) {
  depth_ = 0;
  g_current_tx = nullptr;
  if (g_replay_armed.load(std::memory_order_relaxed) &&
      g_replay_hooks.on_abort != nullptr) {
    g_replay_hooks.on_abort(status);
  }
  stat::RecordHtmOutcome(status);
  rolled_back_read_lines_ = read_lines_;
  rolled_back_write_lines_ = images_.size();
  Reset();
}

void HtmThread::DieOnCapacityAbort() const {
  std::fprintf(stderr,
               "htm: capacity abort in a region retried until commit; it "
               "can never commit (read lines %zu of %zu, write lines %zu "
               "of %zu)\n",
               rolled_back_read_lines_, config_.max_read_lines,
               rolled_back_write_lines_, config_.max_write_lines);
  std::abort();
}

size_t HtmThread::Bucket(uintptr_t key) const {
  const size_t mask = index_.size() - 1;
  const uint64_t h = key * 0x9e3779b97f4a7c15ULL;
  for (size_t i = (h >> 32) & mask;; i = (i + 1) & mask) {
    const uint64_t bucket = index_[i];
    if ((bucket >> 32) != epoch_ ||
        lines_[static_cast<uint32_t>(bucket)].key == key) {
      return i;
    }
  }
}

void HtmThread::Grow() {
  index_.assign(std::max<size_t>(64, 2 * index_.size()), 0);
  for (size_t i = 0; i < lines_.size(); ++i) {
    index_[Bucket(lines_[i].key)] = (uint64_t{epoch_} << 32) | i;
  }
}

uint32_t HtmThread::Track(uintptr_t key) {
  if (2 * lines_.size() >= index_.size()) {
    Grow();
  }
  uint64_t& bucket = index_[Bucket(key)];
  if ((bucket >> 32) == epoch_) {
    return static_cast<uint32_t>(bucket);
  }
  const uint32_t pos = static_cast<uint32_t>(lines_.size());
  bucket = (uint64_t{epoch_} << 32) | pos;
  const void* addr = reinterpret_cast<const void*>(key << kCacheLineShift);
  lines_.push_back(Line{key, table_->SlotFor(addr)});
  return pos;
}

void HtmThread::Read(void* dst, const void* src, size_t len) {
  assert(depth_ > 0);
  if (len == 0) {
    return;
  }
  const uintptr_t lo = reinterpret_cast<uintptr_t>(src);
  const uintptr_t hi = lo + len;
  span_.clear();
  bool overlaps_write = false;
  for (uintptr_t key = lo >> kCacheLineShift;
       key <= (hi - 1) >> kCacheLineShift; ++key) {
    const uint32_t pos = Track(key);
    span_.push_back(pos);
    Line& line = lines_[pos];
    overlaps_write |= line.written();
    if (line.read) {
      // Already tracked; freshness is verified by the post-copy check
      // below and by commit validation.
      continue;
    }
    uint64_t v = line.slot->load(std::memory_order_acquire);
    int spins = 0;
    while (VersionTable::IsLocked(v)) {
      if (++spins > config_.lock_spin_limit) {
        AbortWith(kAbortConflict | kAbortRetry);
      }
      v = line.slot->load(std::memory_order_acquire);
    }
    if (read_lines_ >= config_.max_read_lines) {
      AbortWith(kAbortCapacity);
    }
    line.read = true;
    line.read_version = v;
    ++read_lines_;
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  std::memcpy(dst, src, len);
  std::atomic_thread_fence(std::memory_order_acquire);
  // Seqlock re-check: every line must still carry the version this
  // transaction first observed, otherwise a concurrent commit or strong
  // write raced with the copy.
  for (const uint32_t pos : span_) {
    const Line& line = lines_[pos];
    if (line.slot->load(std::memory_order_acquire) != line.read_version) {
      AbortWith(kAbortConflict | kAbortRetry);
    }
  }
  if (!overlaps_write) {
    return;
  }
  // Read-your-writes: overlay each written line's masked image bytes.
  for (const uint32_t pos : span_) {
    const Line& line = lines_[pos];
    if (!line.written()) {
      continue;
    }
    const uintptr_t addr = line.key << kCacheLineShift;
    const size_t from = lo > addr ? lo - addr : 0;
    const size_t to = std::min<uintptr_t>(hi - addr, kCacheLineSize);
    ForEachRun(line.mask & RangeMask(from, to), [&](size_t off, size_t n) {
      CopyLineBytes(static_cast<uint8_t*>(dst) + (addr + off - lo),
                    images_[line.image].bytes + off, n);
    });
  }
}

void HtmThread::Write(void* dst, const void* src, size_t len) {
  assert(depth_ > 0);
  if (len == 0) {
    return;
  }
  const uintptr_t lo = reinterpret_cast<uintptr_t>(dst);
  const uintptr_t hi = lo + len;
  for (uintptr_t key = lo >> kCacheLineShift;
       key <= (hi - 1) >> kCacheLineShift; ++key) {
    Line& line = lines_[Track(key)];
    if (!line.written()) {
      if (images_.size() >= config_.max_write_lines) {
        AbortWith(kAbortCapacity);
      }
      line.image = static_cast<uint32_t>(images_.size());
      images_.emplace_back();
    }
    const uintptr_t addr = key << kCacheLineShift;
    const size_t from = lo > addr ? lo - addr : 0;
    const size_t to = std::min<uintptr_t>(hi - addr, kCacheLineSize);
    CopyLineBytes(images_[line.image].bytes + from,
                  static_cast<const uint8_t*>(src) + (addr + from - lo),
                  to - from);
    line.mask |= RangeMask(from, to);
  }
}

void HtmThread::Commit() {
  assert(depth_ > 0);
  if (depth_ > 1) {
    // Flattened inner region; the outer Transact() commits.
    --depth_;
    return;
  }

  // Phase 1: lock the written lines' slots in global (slot-address)
  // order, each slot once: lines aliasing one slot share its lock and
  // pre-lock base. The index is not consulted again before Reset(), so
  // the entries are reordered in place.
  const auto written_end = std::partition(
      lines_.begin(), lines_.end(), [](const Line& l) { return l.written(); });
  std::sort(lines_.begin(), written_end,
            [](const Line& a, const Line& b) { return a.slot < b.slot; });
  // Whether `it` is the first written entry on its slot (the one that
  // holds the lock).
  auto owns_slot = [&](std::vector<Line>::iterator it) {
    return it == lines_.begin() || std::prev(it)->slot != it->slot;
  };
  // Releases the slots locked by [begin, end), adding `bump` to each base.
  auto release = [&](std::vector<Line>::iterator end, uint64_t bump) {
    for (auto it = lines_.begin(); it != end; ++it) {
      if (owns_slot(it)) {
        it->slot->store(it->base + bump, std::memory_order_release);
      }
    }
  };
  for (auto it = lines_.begin(); it != written_end; ++it) {
    if (!owns_slot(it)) {
      it->base = std::prev(it)->base;
      continue;
    }
    int spins = 0;
    while (true) {
      uint64_t v = it->slot->load(std::memory_order_acquire);
      if (!VersionTable::IsLocked(v) &&
          it->slot->compare_exchange_weak(v, v + 1,
                                          std::memory_order_acq_rel)) {
        it->base = v;
        break;
      }
      if (++spins > config_.lock_spin_limit) {
        release(it, 0);
        AbortWith(kAbortConflict | kAbortRetry);
      }
    }
  }

  // Phase 2: validate every read line against its snapshot version. A
  // slot we hold must have been unchanged when we locked it; a read-only
  // line can alias one, so a locked slot is looked up among ours.
  for (auto it = lines_.begin(); it != lines_.end(); ++it) {
    if (!it->read) {
      continue;
    }
    uint64_t current = it->base;
    if (it >= written_end) {
      current = it->slot->load(std::memory_order_acquire);
      if (VersionTable::IsLocked(current)) {
        const auto held = std::lower_bound(
            lines_.begin(), written_end, it->slot,
            [](const Line& l, const std::atomic<uint64_t>* s) {
              return l.slot < s;
            });
        if (held != written_end && held->slot == it->slot) {
          current = held->base;
        }
      }
    }
    if (current != it->read_version) {
      release(written_end, 0);
      AbortWith(kAbortConflict | kAbortRetry);
    }
  }

  // Phase 3: install the write images' masked bytes, then release with a
  // version bump.
  std::atomic_thread_fence(std::memory_order_release);
  for (auto it = lines_.begin(); it != written_end; ++it) {
    uint8_t* addr = reinterpret_cast<uint8_t*>(it->key << kCacheLineShift);
    const uint8_t* image = images_[it->image].bytes;
    ForEachRun(it->mask, [&](size_t off, size_t n) {
      CopyLineBytes(addr + off, image + off, n);
    });
  }
  std::atomic_thread_fence(std::memory_order_release);
  if (g_replay_armed.load(std::memory_order_relaxed) &&
      g_replay_hooks.on_publish != nullptr && written_end != lines_.begin()) {
    // Inside the critical section (slots still locked): the hook's
    // observation order is the serialization order of conflicting
    // commits. Read-only regions (no locked lines) publish nothing.
    std::vector<PublishedLine> published;
    for (auto it = lines_.begin(); it != written_end; ++it) {
      if (owns_slot(it)) {
        published.push_back(PublishedLine{
            static_cast<uint32_t>(table_->IndexOf(it->slot)), it->base + 2});
      }
    }
    g_replay_hooks.on_publish(published.data(), published.size(), table_);
  }
  release(written_end, 2);

  stat::RecordHtmOutcome(kCommitted);
  depth_ = 0;
  g_current_tx = nullptr;
  Reset();
}

void SetReplayHooks(const ReplayHooks& hooks) {
  const bool arm =
      hooks.on_publish != nullptr || hooks.on_abort != nullptr;
  if (arm) {
    g_replay_hooks = hooks;
    g_replay_armed.store(true, std::memory_order_release);
  } else {
    g_replay_armed.store(false, std::memory_order_release);
    g_replay_hooks = ReplayHooks{};
  }
}

void AbortCurrentTransactionOrDie(const char* what) {
  if (HtmThread::Current() != nullptr) {
    throw AbortException{kAbortConflict | kAbortRetry};
  }
  std::fprintf(stderr, "invariant violated outside a transaction: %s\n",
               what);
  std::abort();
}

// --- Strong accesses --------------------------------------------------------

void StrongRead(void* dst, const void* src, size_t len, VersionTable* table) {
  if (len == 0) {
    return;
  }
  thread_local std::vector<std::pair<std::atomic<uint64_t>*, uint64_t>>
      observed;
  while (true) {
    observed.clear();
    ForEachLineSlot(table, src, len, [&](std::atomic<uint64_t>* slot) {
      uint64_t v = slot->load(std::memory_order_acquire);
      while (VersionTable::IsLocked(v)) {
        v = slot->load(std::memory_order_acquire);
      }
      observed.emplace_back(slot, v);
    });
    std::atomic_thread_fence(std::memory_order_acquire);
    std::memcpy(dst, src, len);
    std::atomic_thread_fence(std::memory_order_acquire);
    bool stable = true;
    for (const auto& [slot, v] : observed) {
      if (slot->load(std::memory_order_acquire) != v) {
        stable = false;
        break;
      }
    }
    if (stable) {
      return;
    }
  }
}

void StrongWrite(void* dst, const void* src, size_t len, VersionTable* table) {
  if (len == 0) {
    return;
  }
  // (slot, pre-lock base), locked in slot-address order.
  thread_local std::vector<std::pair<std::atomic<uint64_t>*, uint64_t>>
      locked;
  locked.clear();
  ForEachLineSlot(table, dst, len, [&](std::atomic<uint64_t>* slot) {
    locked.emplace_back(slot, 0);
  });
  std::sort(locked.begin(), locked.end());
  locked.erase(std::unique(locked.begin(), locked.end()), locked.end());
  for (auto& [slot, base] : locked) {
    base = LockSlot(slot);
  }
  std::atomic_thread_fence(std::memory_order_release);
  std::memcpy(dst, src, len);
  std::atomic_thread_fence(std::memory_order_release);
  for (const auto& [slot, base] : locked) {
    slot->store(base + 2, std::memory_order_release);
  }
}

uint64_t StrongCas64(uint64_t* addr, uint64_t expected, uint64_t desired,
                     VersionTable* table) {
  assert(reinterpret_cast<uintptr_t>(addr) % 8 == 0);
  std::atomic<uint64_t>* slot = table->SlotFor(addr);
  const uint64_t base = LockSlot(slot);
  std::atomic_thread_fence(std::memory_order_acquire);
  const uint64_t observed = *addr;
  if (observed == expected) {
    *addr = desired;
    std::atomic_thread_fence(std::memory_order_release);
    slot->store(base + 2, std::memory_order_release);
  } else {
    slot->store(base, std::memory_order_release);
  }
  return observed;
}

uint64_t StrongFaa64(uint64_t* addr, uint64_t delta, VersionTable* table) {
  assert(reinterpret_cast<uintptr_t>(addr) % 8 == 0);
  std::atomic<uint64_t>* slot = table->SlotFor(addr);
  const uint64_t base = LockSlot(slot);
  std::atomic_thread_fence(std::memory_order_acquire);
  const uint64_t observed = *addr;
  *addr = observed + delta;
  std::atomic_thread_fence(std::memory_order_release);
  slot->store(base + 2, std::memory_order_release);
  return observed;
}

}  // namespace htm
}  // namespace drtm
