// Record-mode event capture (src/replay).
//
// A process-global singleton that, when armed, collects replay events
// into per-thread bounded ring buffers (overflow is counted in
// `replay.dropped`, never silent) and merges them into a totally ordered
// ReplayLog. Sequence numbers for committed regions are allocated inside
// the seqlock critical section (htm publish hook / fallback pre-release
// tap), so the merged order of two conflicting commits is the order they
// serialized in.
//
// The same singleton drives replay mode: a thread-local commit budget
// ("gate") lets the replayer force an op that aborted during recording
// to abort again — the transaction layer consults CommitAllowed() after
// the body runs and user-aborts when the budget is exhausted.
//
// Disarmed cost on the txn/htm fast paths: one relaxed atomic load.
#ifndef SRC_REPLAY_RECORDER_H_
#define SRC_REPLAY_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/htm/htm.h"
#include "src/replay/replay_log.h"

namespace drtm {
namespace replay {

// Order-insensitive digest of one WAL update (the per-commit wal_digest
// is the wrapping sum of these, so the HTM path — which logs local
// writes in program order — and the fallback path — which gathers them
// in sorted ref order — agree on identical logical updates).
uint64_t WalUpdateDigest(int node, int table, uint64_t key, uint32_t version,
                         const void* value, size_t len);

class Recorder {
 public:
  struct Config {
    // Events buffered per thread before overflow drops (counted).
    size_t ring_capacity = size_t{1} << 16;
    // Arm the replay commit gate (replay mode). Record mode leaves the
    // gate open: every commit is allowed and budget is not consumed.
    bool replay_gate = false;
    // Record kHtmAbort events. Off by default: abort *counts* depend on
    // spin/backoff timing even when the committed schedule is
    // deterministic, and the determinism gate promises byte-identical
    // logs for a fixed seed.
    bool record_aborts = false;
  };

  static Recorder& Global();

  // Arm/disarm while workload threads are quiesced. Arm resets the
  // sequence counter, drops previously merged rings and installs the
  // htm publish/abort hooks; Disarm removes the hooks but keeps the
  // rings for Merge().
  void Arm(const Config& config);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // --- worker-op context (thread-local) ---
  void BeginOp(int node, int worker, uint64_t op);
  // Emits kOpEnd (aux = committed) and clears the op context.
  void EndOp(bool committed);

  // --- transaction-layer taps ---
  // Called inside the HTM region after the WAL is staged: the publish
  // hook turns the staged record into a kTxnCommit event carrying the
  // critical-section sequence number.
  void StageCommit(uint64_t txn_id, std::vector<WriteRec> writes,
                   uint64_t wal_digest);
  // Fallback commit: called with every 2PL lock still held.
  void RecordFallbackCommit(uint64_t txn_id, std::vector<WriteRec> writes,
                            uint64_t wal_digest);
  void RecordLockRelease(uint64_t txn_id, bool abandoned);

  // --- server-thread / chaos taps ---
  void RecordRpcApply(const char* op_name, int node, int table, uint64_t key,
                      bool applied);
  void RecordChaosFiring(const std::string& point, uint64_t arrival,
                         int node);

  // --- replay gate ---
  // Thread-local commit budget for the current op. With replay_gate on,
  // each published/fallback commit consumes one unit and CommitAllowed()
  // turns false at zero; with it off, or on a thread outside an op (a
  // server thread), the gate is always open.
  void SetCommitBudget(uint64_t budget);
  bool CommitAllowed();

  // Events recorded by the calling thread since its last drain, in
  // record order. Used by the replayer to compare each replayed op
  // against the recording.
  std::vector<ReplayEvent> DrainThread();

  // Merges every thread's ring into log->events sorted by seq, fills
  // log->dropped, and seals the commit chain digests. Call after
  // Disarm().
  void Merge(ReplayLog* log);

  uint64_t dropped() const;

 private:
  struct ThreadRing;

  Recorder() = default;
  ThreadRing* Ring();
  void PushEvent(ThreadRing* ring, ReplayEvent event);
  uint64_t NextSeq() { return seq_.fetch_add(1, std::memory_order_relaxed); }

  static void OnPublish(const htm::PublishedLine* lines, size_t count,
                        const VersionTable* table);
  static void OnAbort(unsigned status);

  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> seq_{0};
  Config config_;
  // Bumped at Arm(): invalidates every thread-local ring handle.
  std::atomic<uint64_t> arm_epoch_{0};

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadRing>> rings_;
};

// Terse helpers for call sites in the txn layer.
inline bool Armed() { return Recorder::Global().armed(); }

}  // namespace replay
}  // namespace drtm

#endif  // SRC_REPLAY_RECORDER_H_
