// Software emulation of Intel Restricted Transactional Memory (RTM).
//
// Real RTM traps every load/store inside XBEGIN/XEND through the cache
// coherence protocol. A software emulation cannot trap raw loads, so all
// transactional accesses go through htm::Load / htm::Store (or the
// HtmThread::Read/Write primitives). The emulator provides the three RTM
// properties DrTM depends on:
//
//   1. ACI: writes buffered per cache line (a 64-byte image and byte mask,
//      as RTM buffers them in the L1), commit-time lock+validate over a
//      global per-cache-line version table; a committed transaction is
//      atomic and serializable against all other transactional and
//      "strong" accesses.
//   2. Capacity aborts: distinct cache lines in the read/write set are
//      bounded (defaults mirror L1-write-set / L2-read-set tracking).
//   3. Strong atomicity: non-transactional StrongWrite/StrongCas bump
//      line versions, which aborts every conflicting in-flight
//      transaction at its next access or at commit validation. (Real RTM
//      aborts eagerly; aborting at validation is observationally
//      equivalent — the doomed transaction can never commit.)
//
// The status word follows the RTM layout: kCommitted on success,
// otherwise an OR of abort cause bits with the XABORT user code in bits
// 31:24.
#ifndef SRC_HTM_HTM_H_
#define SRC_HTM_HTM_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/cacheline.h"
#include "src/htm/version_table.h"

namespace drtm {
namespace htm {

// Abort cause bits (same bit positions as Intel RTM's EAX status).
inline constexpr unsigned kAbortExplicit = 1u << 0;
inline constexpr unsigned kAbortRetry = 1u << 1;
inline constexpr unsigned kAbortConflict = 1u << 2;
inline constexpr unsigned kAbortCapacity = 1u << 3;

// Returned by Transact() when the transaction committed.
inline constexpr unsigned kCommitted = ~0u;

inline unsigned AbortUserCode(unsigned status) { return (status >> 24) & 0xff; }

struct Config {
  // Distinct cache lines trackable before a capacity abort. The defaults
  // mirror a 32 KB L1 write set and a larger read-set tracking structure.
  size_t max_write_lines = 512;
  size_t max_read_lines = 8192;
  // Bounded spin (iterations) on a locked line before declaring conflict.
  int lock_spin_limit = 256;
};

// Thrown internally to unwind a transaction body on abort. Transaction
// bodies must be abort-safe (no irreversible side effects before commit),
// exactly like real RTM regions.
struct AbortException {
  unsigned status;
};

class HtmThread {
 public:
  explicit HtmThread(Config config = Config(),
                     VersionTable* table = &VersionTable::Global());
  ~HtmThread();

  HtmThread(const HtmThread&) = delete;
  HtmThread& operator=(const HtmThread&) = delete;

  // Runs fn inside a transaction. Returns kCommitted, or the abort
  // status. Nested calls flatten (like RTM): an inner abort aborts the
  // outermost transaction.
  template <typename Fn>
  unsigned Transact(Fn&& fn) {
    if (depth_ > 0) {
      // Flat nesting: run inline; aborts propagate to the outer region.
      // The scope guard keeps depth_ balanced when the body throws
      // (AbortException or anything else): the unwind must reach the
      // outer Transact with the depth it set up, or the thread would
      // permanently believe it is inside a transaction.
      ++depth_;
      DepthGuard guard(&depth_);
      fn();
      return kCommitted;
    }
    Begin();
    try {
      fn();
      Commit();
      return kCommitted;
    } catch (const AbortException& e) {
      Rollback(e.status);
      return e.status;
    } catch (...) {
      // A foreign exception crossing the transaction boundary tears the
      // region down (counted as an explicit abort) and propagates;
      // without this the buffered writes and depth would leak.
      Rollback(kAbortExplicit);
      throw;
    }
  }

  // Runs fn as a transaction, retrying every abort until one commits:
  // for short regions whose aborts are all transient (one store op, a
  // reconnaissance read). fn resets its own per-attempt state. Inside an
  // enclosing region it flattens into it, like Transact. A capacity
  // abort is not transient (the same footprint overflows again), so it
  // ends the process with the region's line counts instead of spinning.
  template <typename Fn>
  void TransactUntilCommitted(Fn&& fn) {
    while (true) {
      const unsigned status = Transact(fn);
      if (status == kCommitted) {
        return;
      }
      if ((status & kAbortCapacity) != 0) {
        DieOnCapacityAbort();
      }
    }
  }

  // Transactional read/write of an arbitrary byte range.
  void Read(void* dst, const void* src, size_t len);
  void Write(void* dst, const void* src, size_t len);

  template <typename T>
  T Load(const T* src) {
    T value;
    Read(&value, src, sizeof(T));
    return value;
  }

  template <typename T>
  void Store(T* dst, const T& value) {
    Write(dst, &value, sizeof(T));
  }

  // XABORT: aborts the current transaction with a user code (0..255).
  [[noreturn]] void Abort(uint8_t user_code);

  bool InTransaction() const { return depth_ > 0; }

  // The HtmThread currently executing a transaction on this OS thread
  // (nullptr outside transactions). Used by helpers that must dispatch
  // between transactional and strong accesses.
  static HtmThread* Current();

 private:
  // Balances the flat-nesting depth increment across any exit path of
  // the inner body, including exception unwinding.
  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth(depth) {}
    ~DepthGuard() { --*depth; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    int* depth;
  };

  void Begin();
  void Commit();
  void Rollback(unsigned status);
  [[noreturn]] void AbortWith(unsigned status);
  // Reports the last rolled-back region's footprint and aborts.
  [[noreturn]] void DieOnCapacityAbort() const;

  // One tracked cache line: the emulated read/write bits RTM keeps per
  // line in the L1/L2 (§2.2), plus the line's write image when written.
  struct Line {
    uintptr_t key;                // CacheLineOf the tracked line
    std::atomic<uint64_t>* slot;  // its version-table slot
    uint64_t read_version = 0;    // version observed at the first read
    uint64_t base = 0;            // pre-lock version while Commit holds it
    uint64_t mask = 0;            // image bytes written (bit i = byte i)
    uint32_t image = 0;           // index into images_ once written
    bool read = false;
    bool written() const { return mask != 0; }
  };
  // A written line's buffered bytes, as the L1 holds them. Only the
  // bytes its line's mask marks are ever read, so it starts uninitialized.
  struct alignas(kCacheLineSize) Image {
    Image() {}  // NOLINT: "= default" would let emplace_back() zero it
    uint8_t bytes[kCacheLineSize];
  };

  // Returns the position in lines_ of the entry for line `key`, adding
  // an empty one if absent.
  uint32_t Track(uintptr_t key);
  // Index bucket holding key's entry, or the empty bucket where it goes.
  size_t Bucket(uintptr_t key) const;
  void Grow();
  void Reset();

  Config config_;
  VersionTable* table_;
  int depth_ = 0;

  // The line table: entries in first-touch order plus an open-addressed
  // index into them. An index bucket is live iff its high 32 bits equal
  // epoch_ (low 32 bits: entry position), so Reset() empties the table
  // without touching it. The index grows on demand (load <= 1/2).
  std::vector<Line> lines_;
  std::vector<uint64_t> index_;
  uint32_t epoch_ = 1;
  size_t read_lines_ = 0;  // entries with the read bit
  // Write images, one per written entry (write_lines = images_.size()).
  std::vector<Image> images_;
  // Entry positions of the lines the current Read spans.
  std::vector<uint32_t> span_;
  // Footprint of the last rolled-back region, for DieOnCapacityAbort.
  size_t rolled_back_read_lines_ = 0;
  size_t rolled_back_write_lines_ = 0;
};

// Serial of the HTM region running on this OS thread, 0 outside one.
// Every top-level Begin bumps it and flattened inner regions keep it, so
// state cached under one serial (the B+ tree's leaf finger) is never
// seen by a later region, an aborted region's retry included.
uint64_t CurrentRegionSerial();

// --- Replay hooks -----------------------------------------------------------
//
// Seam for the record/replay subsystem (src/replay). The replay library
// sits above htm in the dependency order, so htm exposes raw function
// pointers rather than linking against it. The publish hook fires inside
// the commit critical section — after the write images are installed,
// before the seqlock slots are released — so the order in which hooks
// observe commits IS the conflict order two commits on overlapping lines
// serialized in. Disarmed cost: one relaxed atomic load per commit.
struct PublishedLine {
  uint32_t slot;      // VersionTable::IndexOf of the locked slot
  uint64_t version;   // version the slot is released to (base + 2)
};

struct ReplayHooks {
  // Called with the committed region's locked slots, one entry each
  // (read-only regions lock none and are skipped). `table`
  // disambiguates non-global tables.
  void (*on_publish)(const PublishedLine* lines, size_t count,
                     const VersionTable* table) = nullptr;
  // Called when a top-level region rolls back, with the RTM status word.
  void (*on_abort)(unsigned status) = nullptr;
};

// Installs (or, with default-constructed hooks, clears) the process-wide
// replay hooks. Not thread-safe against in-flight commits — arm/disarm
// only while the workload threads are quiesced, as the recorder does.
void SetReplayHooks(const ReplayHooks& hooks);

// --- Strong (non-transactional) accesses -----------------------------------
//
// These model accesses that bypass the transactional tracking but are
// cache-coherent with it: one-sided RDMA operations and the softtime
// timer thread. They lock the affected version-table slots, mutate
// memory, and bump versions, thereby aborting conflicting transactions.

void StrongRead(void* dst, const void* src, size_t len,
                VersionTable* table = &VersionTable::Global());
void StrongWrite(void* dst, const void* src, size_t len,
                 VersionTable* table = &VersionTable::Global());

// Atomic 64-bit compare-and-swap against addr; returns the value observed
// before the swap (equal to expected iff the swap happened).
uint64_t StrongCas64(uint64_t* addr, uint64_t expected, uint64_t desired,
                     VersionTable* table = &VersionTable::Global());

// Atomic 64-bit fetch-and-add; returns the previous value.
uint64_t StrongFaa64(uint64_t* addr, uint64_t delta,
                     VersionTable* table = &VersionTable::Global());

template <typename T>
T StrongLoad(const T* src) {
  T value;
  StrongRead(&value, src, sizeof(T));
  return value;
}

template <typename T>
void StrongStore(T* dst, const T& value) {
  StrongWrite(dst, &value, sizeof(T));
}

// --- Dispatching helpers ----------------------------------------------------
//
// Store code paths (hash table, B+ tree) are written once and used both
// inside HTM transactions (local operations) and outside (bulk loading).
// These helpers route through the current transaction when one is active.

template <typename T>
T Load(const T* src) {
  if (HtmThread* tx = HtmThread::Current()) {
    return tx->Load(src);
  }
  return StrongLoad(src);
}

template <typename T>
void Store(T* dst, const T& value) {
  if (HtmThread* tx = HtmThread::Current()) {
    tx->Store(dst, value);
    return;
  }
  StrongStore(dst, value);
}

inline void ReadBytes(void* dst, const void* src, size_t len) {
  if (HtmThread* tx = HtmThread::Current()) {
    tx->Read(dst, src, len);
    return;
  }
  StrongRead(dst, src, len);
}

inline void WriteBytes(void* dst, const void* src, size_t len) {
  if (HtmThread* tx = HtmThread::Current()) {
    tx->Write(dst, src, len);
    return;
  }
  StrongWrite(dst, src, len);
}

// Sanity escape hatch for data structures traversed inside transactions.
// The emulator (like TL2-style STMs) validates reads lazily, so a doomed
// transaction can observe a torn multi-line structure before commit-time
// validation kills it. Structures that dereference what they read (e.g.
// the B+ tree following child ids) call this when an invariant fails:
// inside a transaction it aborts the transaction (the data was torn);
// outside one it is genuine corruption and the process aborts.
[[noreturn]] void AbortCurrentTransactionOrDie(const char* what);

}  // namespace htm
}  // namespace drtm

#endif  // SRC_HTM_HTM_H_
