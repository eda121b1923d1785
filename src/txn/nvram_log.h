// Durability logging to emulated NVRAM (paper section 4.6), with an
// epoch-batched group-commit pipeline (ROADMAP item 3 / arXiv 1806.01108).
//
// The paper's failure model is whole-system persistence: UPS-backed
// machines flush registers/caches to NVDIMM on power failure, so DRAM
// content is effectively durable and no explicit flush ordering is
// needed. Our emulation therefore keeps log bytes in ordinary memory;
// a simulated crash loses nothing that was written.
//
// The crucial trick the paper relies on is reproduced exactly: the
// write-ahead log is appended *inside* the HTM region (through htm::Store),
// so HTM's all-or-nothing property guarantees the WAL record exists iff
// the enclosing HTM transaction committed. Lock-ahead and chop-info
// records are appended before the HTM region with strong writes.
//
// Group commit separates the HTM commit point from the durability point:
// records are staged into a per-worker *open epoch* (a kEpoch framing
// record whose header is backpatched at seal time with record count,
// data length and checksum), epochs seal on byte/time thresholds or at
// externalization barriers, and each sealed epoch is submitted to a
// per-worker flush device asynchronously — doorbell-style, the same
// one-submission-per-batch amortization shape as rdma::PhaseScatter. A
// transaction is durably *acknowledged* only once the flush covering
// its records completes (DurableUpTo / WaitDurable). Recovery never
// looks past the sealed frontier, and validates each epoch's checksum,
// so a torn tail epoch (crash between staging and seal) is invisible —
// the torn epoch is the new torn record.
//
// Each worker thread owns a private log segment to keep log appends out
// of other transactions' conflict sets. Segments are rings addressed by
// monotone LSNs (physical = lsn % segment_bytes); space is reclaimed by
// dropping leading epochs whose every transaction has a durable
// kComplete record (ReclaimSpace).
#ifndef SRC_TXN_NVRAM_LOG_H_
#define SRC_TXN_NVRAM_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/rdma/latency.h"
#include "src/rdma/node_memory.h"

namespace drtm {
namespace txn {

enum class LogType : uint8_t {
  kChopInfo = 1,   // remaining pieces of a chopped parent transaction
  kLockAhead = 2,  // remote records this txn will exclusively lock
  kWriteAhead = 3, // all updates (local + remote), logged inside HTM
  kComplete = 4,   // write-back finished or locks released after an
                   // abort; earlier records are obsolete
  // Framing records, never surfaced through ForEach:
  kEpoch = 5,      // epoch header; txn_id is the epoch id, payload is
                   // an EpochInfo backpatched at seal time
  kPad = 6,        // ring-wrap filler between epochs
};

struct LogUpdate {
  int32_t node;
  int32_t table;
  uint64_t key;
  uint64_t entry_off;
  uint32_t version;
  uint32_t value_len;
  // value bytes follow in the serialized record
};

struct LogLock {
  int32_t node;
  int32_t table;
  uint64_t key;
  uint64_t state_off;
};

// A parsed record, as seen by recovery.
struct LogRecord {
  LogType type;
  uint64_t txn_id;
  std::vector<uint8_t> payload;
};

// Outcome of a log append attempt. The two failure kinds demand
// different reactions: a full segment is healed by sealing/reclaiming
// and retrying, while a chaos-injected fault models the op itself
// failing (power cut, lost write) — reclaiming cannot heal it and the
// caller must take its failure path.
enum class AppendStatus : uint8_t {
  kOk = 0,
  kFull,
  kFaulted,
};

// Group-commit knobs, mirrored from ClusterConfig by the cluster.
struct LogEpochConfig {
  // false = synchronous baseline: every record seals its own epoch and
  // the commit acknowledgement (NoteCommit) waits out its flush — the
  // degenerate 1-record epoch ISSUE 9 sweeps against.
  bool group_commit = false;
  // Seal the open epoch once it holds this many data bytes...
  size_t epoch_bytes = size_t{64} << 10;
  // ...or once it has been open this long (checked at outside-HTM log
  // touches; 0 disables the timer).
  uint64_t epoch_us = 200;
  // Source of the modeled flush cost (FlushNs).
  rdma::LatencyModel latency{};
};

class NvramLog {
 public:
  // One segment per worker thread of the node.
  NvramLog(rdma::NodeMemory* memory, int workers, size_t segment_bytes,
           const LogEpochConfig& epoch = LogEpochConfig{});

  NvramLog(const NvramLog&) = delete;
  NvramLog& operator=(const NvramLog&) = delete;

  // Appends a record to the worker's segment. When called inside an HTM
  // transaction the append is transactional (WAL records use this) and
  // the epoch bookkeeping rolls back with the region. Returns kFull if
  // the segment is full (callers outside HTM should ReclaimSpace and
  // retry; inside HTM, abort and reclaim outside) and kFaulted when
  // chaos injection failed the append itself.
  AppendStatus TryAppend(int worker, LogType type, uint64_t txn_id,
                         const void* payload, size_t len);

  // Convenience wrapper collapsing both failure kinds to false, for
  // callers whose reaction does not depend on which one it was.
  bool Append(int worker, LogType type, uint64_t txn_id, const void* payload,
              size_t len) {
    return TryAppend(worker, type, txn_id, payload, len) == AppendStatus::kOk;
  }

  // TryAppend for callers outside HTM: a full segment is reclaimed once
  // and the append retried.
  AppendStatus AppendReclaiming(int worker, LogType type, uint64_t txn_id,
                                const void* payload, size_t len) {
    AppendStatus status = TryAppend(worker, type, txn_id, payload, len);
    if (status == AppendStatus::kFull && ReclaimSpace(worker)) {
      status = TryAppend(worker, type, txn_id, payload, len);
    }
    return status;
  }

  // Iterates every *sealed* record of every segment in append order per
  // segment. The sealed frontier is the recovery visibility bound: the
  // open tail epoch — and any epoch whose backpatched header fails its
  // magic/checksum validation — is invisible, exactly as a torn record
  // used to be.
  void ForEach(const std::function<void(int worker, const LogRecord&)>& fn)
      const;

  // Bytes between the truncation base and the head of a worker's segment.
  size_t UsedBytes(int worker) const;

  // --- group-commit surface -------------------------------------------------
  // Externalization barrier: seals + submits the worker's open epoch so
  // everything appended so far is recovery-visible before any effect of
  // it can be observed remotely (lock CAS, write-back). Never waits for
  // the flush itself.
  void Externalize(int worker);

  // Registers txn_id for a durability acknowledgement covering every
  // record the worker appended so far, and returns that LSN. In
  // synchronous mode this seals, submits and *waits* — commit equals
  // durable, the per-record baseline. In group-commit mode it returns
  // immediately; the ack drains when the epoch's flush completes
  // (txn.durability.ack_ns measures the gap).
  uint64_t NoteCommit(int worker, uint64_t txn_id);

  // Blocks until txn_id's registered ack has drained (sealing and
  // submitting the open epoch first if needed). A txn_id never
  // registered with NoteCommit returns immediately.
  void WaitDurable(int worker, uint64_t txn_id);

  // The worker's durability frontier: every byte below this LSN has
  // been flushed. Monotone.
  uint64_t DurableUpTo(int worker) const;

  // Drives the worker's flush device forward without blocking: retires
  // submissions whose modeled completion time has passed and drains
  // their acks. Called from outside-HTM log touches; harmless anytime.
  void Poll(int worker);

  // Seals the open epoch and blocks until the durability frontier covers
  // everything appended so far — the strongest precondition ReclaimSpace
  // can be given. Callers that must not proceed until an append succeeds
  // (chain resume markers) drain, reclaim and retry. Outside HTM only.
  void DrainFlushes(int worker);

  // Drops leading epochs in which every transaction has a kComplete
  // record below the durability frontier, freeing ring space. Returns
  // true if the truncation base advanced. Outside HTM only.
  bool ReclaimSpace(int worker);

  // --- payload builders / parsers -------------------------------------------
  static std::vector<uint8_t> EncodeLocks(const std::vector<LogLock>& locks);
  static std::vector<LogLock> DecodeLocks(const std::vector<uint8_t>& payload);
  static void EncodeUpdate(std::vector<uint8_t>* out, const LogUpdate& update,
                           const void* value);
  // Walks all updates serialized in payload.
  static void DecodeUpdates(
      const std::vector<uint8_t>& payload,
      const std::function<void(const LogUpdate&, const uint8_t* value)>& fn);

 private:
  // Control block layout at ctrl_off (one 64-byte line per worker).
  // Slots 0-3 are epoch/head state managed through htm:: dispatch so an
  // aborted HTM region rolls its appends back; slots 4-5 are only ever
  // touched outside HTM.
  static constexpr size_t kHeadSlot = 0;         // next LSN to write
  static constexpr size_t kEpochStartSlot = 1;   // LSN of the open epoch
                                                 // header (kNoEpoch = none)
  static constexpr size_t kEpochRecordsSlot = 2; // records in open epoch
  static constexpr size_t kEpochSeqSlot = 3;     // next epoch id
  static constexpr size_t kSealedSlot = 4;       // recovery visibility bound
  static constexpr size_t kTruncateSlot = 5;     // ring truncation base

  static constexpr uint64_t kNoEpoch = ~uint64_t{0};

  // One modeled in-flight flush submission.
  struct Flush {
    uint64_t end_lsn;   // cumulative: completion makes [0, end_lsn) durable
    uint64_t ready_ns;  // modeled completion time (MonotonicNanos clock)
  };
  struct PendingAck {
    uint64_t txn_id;
    uint64_t lsn;        // durable once durable_lsn >= lsn
    uint64_t commit_ns;  // NoteCommit time; ack latency = ready - commit
  };

  // Host-side per-segment state (not part of the emulated NVRAM image).
  // The mutex serializes seal/submit/poll/reclaim against ForEach; the
  // in-HTM append path never touches it.
  struct FlushState {
    mutable std::mutex mu;
    uint64_t device_free_ns = 0;  // flush device busy-until (serial)
    std::deque<Flush> inflight;
    std::atomic<uint64_t> durable_lsn{0};
    std::deque<PendingAck> acks;
    uint64_t epoch_open_ns = 0;  // wall time the open epoch was opened
  };

  struct SegmentRef {
    uint64_t base_off;  // region offset of the segment ring
    uint64_t ctrl_off;  // region offset of the control block
  };

  uint64_t* Ctrl(const SegmentRef& seg, size_t slot) const;
  uint8_t* SegAt(const SegmentRef& seg, uint64_t lsn) const;

  // Seals the open epoch (checksum + header backpatch + sealed-frontier
  // publish) and submits its flush. Outside HTM only; no-op without an
  // open epoch. Returns the sealed LSN (== head).
  uint64_t SealAndSubmit(int worker);
  // Seals if a byte/time threshold tripped (group-commit mode).
  void MaybeSealOnThreshold(int worker);
  void SubmitFlush(int worker, uint64_t end_lsn, size_t bytes);
  // Poll core with state.mu held.
  void PollLocked(int worker, FlushState& state);
  // Spins until durable_lsn >= lsn, advancing the flush device.
  void WaitFlushed(int worker, uint64_t lsn);

  rdma::NodeMemory* memory_;
  size_t segment_bytes_;
  LogEpochConfig epoch_cfg_;
  std::vector<SegmentRef> segments_;
  std::vector<std::unique_ptr<FlushState>> flush_;
};

}  // namespace txn
}  // namespace drtm

#endif  // SRC_TXN_NVRAM_LOG_H_
