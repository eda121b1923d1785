// Process-global, sharded, cache-line-granular seqlock table.
//
// This is the emulation of the cache-coherence fabric that a real machine
// gives Intel RTM for free: every 64-byte line of memory maps (by hash) to
// a 64-bit version word. Even value = unlocked, odd = locked. HTM commits
// and non-transactional "strong" accesses (RDMA, the softtime timer) bump
// versions, which is what aborts conflicting in-flight transactions.
//
// Two distinct lines may hash to the same slot; that produces false
// conflicts, exactly like false sharing within a line on real hardware.
#ifndef SRC_HTM_VERSION_TABLE_H_
#define SRC_HTM_VERSION_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "src/common/cacheline.h"

namespace drtm {

class VersionTable {
 public:
  // slots must be a power of two.
  explicit VersionTable(size_t slots = kDefaultSlots);

  VersionTable(const VersionTable&) = delete;
  VersionTable& operator=(const VersionTable&) = delete;

  std::atomic<uint64_t>* SlotFor(const void* addr) {
    const uint64_t line = CacheLineOf(addr);
    // Fibonacci hash to spread adjacent lines across the table.
    const uint64_t h = line * 0x9e3779b97f4a7c15ULL;
    return &slots_[(h >> 20) & mask_];
  }

  size_t size() const { return mask_ + 1; }

  // Index of a slot previously returned by SlotFor — stable within one
  // process (the table never grows), used by the replay recorder to name
  // lines in event context. NOT stable across processes: heap layout
  // shifts the line→slot mapping, which is why cross-run replay
  // validation never keys off slot indices.
  size_t IndexOf(const std::atomic<uint64_t>* slot) const {
    return static_cast<size_t>(slot - slots_.get());
  }

  // The process-wide instance used by default throughout the library.
  static VersionTable& Global();

  static constexpr size_t kDefaultSlots = size_t{1} << 22;

  static bool IsLocked(uint64_t version) { return (version & 1) != 0; }

 private:
  struct Free {
    void operator()(std::atomic<uint64_t>* p) const { std::free(p); }
  };
  std::unique_ptr<std::atomic<uint64_t>[], Free> slots_;
  size_t mask_;
};

}  // namespace drtm

#endif  // SRC_HTM_VERSION_TABLE_H_
