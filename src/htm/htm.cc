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
  write_lines_ = 0;
  redo_log_.clear();
  redo_data_.clear();
}

void HtmThread::Begin() {
  assert(depth_ == 0);
  assert(g_current_tx == nullptr && "another HtmThread active on this thread");
  depth_ = 1;
  g_current_tx = this;
  Reset();
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
  Reset();
}

size_t HtmThread::Bucket(const std::atomic<uint64_t>* slot) const {
  const size_t mask = index_.size() - 1;
  const uint64_t h =
      (reinterpret_cast<uintptr_t>(slot) >> 3) * 0x9e3779b97f4a7c15ULL;
  for (size_t i = (h >> 32) & mask;; i = (i + 1) & mask) {
    const uint64_t bucket = index_[i];
    if ((bucket >> 32) != epoch_ ||
        lines_[static_cast<uint32_t>(bucket)].slot == slot) {
      return i;
    }
  }
}

void HtmThread::Grow() {
  index_.assign(std::max<size_t>(64, 2 * index_.size()), 0);
  for (size_t i = 0; i < lines_.size(); ++i) {
    index_[Bucket(lines_[i].slot)] = (uint64_t{epoch_} << 32) | i;
  }
}

HtmThread::Line& HtmThread::Track(std::atomic<uint64_t>* slot) {
  if (2 * lines_.size() >= index_.size()) {
    Grow();
  }
  uint64_t& bucket = index_[Bucket(slot)];
  if ((bucket >> 32) == epoch_) {
    return lines_[static_cast<uint32_t>(bucket)];
  }
  bucket = (uint64_t{epoch_} << 32) | lines_.size();
  return lines_.emplace_back(Line{slot});
}

void HtmThread::Read(void* dst, const void* src, size_t len) {
  assert(depth_ > 0);
  if (len == 0) {
    return;
  }
  bool overlaps_write = false;
  ForEachLineSlot(table_, src, len, [&](std::atomic<uint64_t>* slot) {
    Line& line = Track(slot);
    overlaps_write |= line.written;
    if (line.read) {
      // Already tracked; freshness is verified by the post-copy check
      // below and by commit validation.
      return;
    }
    uint64_t v = slot->load(std::memory_order_acquire);
    int spins = 0;
    while (VersionTable::IsLocked(v)) {
      if (++spins > config_.lock_spin_limit) {
        AbortWith(kAbortConflict | kAbortRetry);
      }
      v = slot->load(std::memory_order_acquire);
    }
    if (read_lines_ >= config_.max_read_lines) {
      AbortWith(kAbortCapacity);
    }
    line.read = true;
    line.read_version = v;
    ++read_lines_;
  });
  std::atomic_thread_fence(std::memory_order_acquire);
  std::memcpy(dst, src, len);
  std::atomic_thread_fence(std::memory_order_acquire);
  // Seqlock re-check: every line must still carry the version this
  // transaction first observed, otherwise a concurrent commit or strong
  // write raced with the copy.
  ForEachLineSlot(table_, src, len, [&](std::atomic<uint64_t>* slot) {
    if (slot->load(std::memory_order_acquire) != Track(slot).read_version) {
      AbortWith(kAbortConflict | kAbortRetry);
    }
  });
  if (!overlaps_write) {
    return;
  }
  // Read-your-writes: overlay buffered writes, in program order.
  const uintptr_t lo = reinterpret_cast<uintptr_t>(src);
  const uintptr_t hi = lo + len;
  for (const RedoEntry& e : redo_log_) {
    const uintptr_t elo = e.dst;
    const uintptr_t ehi = e.dst + e.len;
    if (ehi <= lo || elo >= hi) {
      continue;
    }
    const uintptr_t olo = std::max(lo, elo);
    const uintptr_t ohi = std::min(hi, ehi);
    std::memcpy(static_cast<uint8_t*>(dst) + (olo - lo),
                redo_data_.data() + e.offset + (olo - elo), ohi - olo);
  }
}

void HtmThread::Write(void* dst, const void* src, size_t len) {
  assert(depth_ > 0);
  if (len == 0) {
    return;
  }
  ForEachLineSlot(table_, dst, len, [&](std::atomic<uint64_t>* slot) {
    Line& line = Track(slot);
    if (line.written) {
      return;
    }
    if (write_lines_ >= config_.max_write_lines) {
      AbortWith(kAbortCapacity);
    }
    line.written = true;
    ++write_lines_;
  });
  if (!redo_log_.empty()) {
    // A byte-adjacent append (the common pattern when a large value is
    // written as consecutive slices) extends the previous redo entry
    // instead of growing the log. Program order is preserved — only the
    // latest entry ever extends.
    RedoEntry& last = redo_log_.back();
    if (last.dst + last.len == reinterpret_cast<uintptr_t>(dst) &&
        last.offset + last.len == redo_data_.size()) {
      redo_data_.insert(redo_data_.end(), static_cast<const uint8_t*>(src),
                        static_cast<const uint8_t*>(src) + len);
      last.len += static_cast<uint32_t>(len);
      return;
    }
  }
  const uint32_t offset = static_cast<uint32_t>(redo_data_.size());
  redo_data_.insert(redo_data_.end(), static_cast<const uint8_t*>(src),
                    static_cast<const uint8_t*>(src) + len);
  redo_log_.push_back(RedoEntry{reinterpret_cast<uintptr_t>(dst), offset,
                                static_cast<uint32_t>(len)});
}

void HtmThread::Commit() {
  assert(depth_ > 0);
  if (depth_ > 1) {
    // Flattened inner region; the outer Transact() commits.
    --depth_;
    return;
  }

  // Phase 1: lock the written lines in global (slot-address) order, each
  // entry keeping its pre-lock base. The index is not consulted again
  // before Reset(), so the entries are reordered in place.
  const auto written_end = std::partition(
      lines_.begin(), lines_.end(), [](const Line& l) { return l.written; });
  std::sort(lines_.begin(), written_end,
            [](const Line& a, const Line& b) { return a.slot < b.slot; });
  // Releases the locked prefix [begin, end), adding `bump` to each base.
  auto release = [&](std::vector<Line>::iterator end, uint64_t bump) {
    for (auto it = lines_.begin(); it != end; ++it) {
      it->slot->store(it->base + bump, std::memory_order_release);
    }
  };
  for (auto it = lines_.begin(); it != written_end; ++it) {
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
  // line we hold must have been unchanged when we locked it.
  for (const Line& line : lines_) {
    if (!line.read) {
      continue;
    }
    const uint64_t current =
        line.written ? line.base : line.slot->load(std::memory_order_acquire);
    if (current != line.read_version) {
      release(written_end, 0);
      AbortWith(kAbortConflict | kAbortRetry);
    }
  }

  // Phase 3: install buffered writes, then release with a version bump.
  std::atomic_thread_fence(std::memory_order_release);
  for (const RedoEntry& e : redo_log_) {
    std::memcpy(reinterpret_cast<void*>(e.dst), redo_data_.data() + e.offset,
                e.len);
  }
  std::atomic_thread_fence(std::memory_order_release);
  if (g_replay_armed.load(std::memory_order_relaxed) &&
      g_replay_hooks.on_publish != nullptr && write_lines_ != 0) {
    // Inside the critical section (slots still locked): the hook's
    // observation order is the serialization order of conflicting
    // commits. Read-only regions (no locked lines) publish nothing.
    std::vector<PublishedLine> published;
    published.reserve(write_lines_);
    for (auto it = lines_.begin(); it != written_end; ++it) {
      published.push_back(PublishedLine{
          static_cast<uint32_t>(table_->IndexOf(it->slot)), it->base + 2});
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
