#include "src/txn/chopping.h"

#include <cassert>

#include "src/chaos/injector.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace txn {

namespace {

struct ChopInfo {
  uint32_t piece;  // next piece to run; pieces < piece have committed
  uint32_t total;
};

// Chain markers that could not be made durable (see AppendChopMarker's
// give-up conditions) — each one is a chain that aborted mid-way or
// completed without its {total, total} record.
uint32_t MarkerDroppedId() {
  static const uint32_t id =
      stat::Registry::Global().CounterId("txn.chop.marker_dropped");
  return id;
}

// Appends a chain marker, riding out a full segment: each retry drains
// the flush pipeline (so the durability frontier catches up with the
// sealed frontier) and reclaims completed epochs before trying again.
// Gives up only when the segment stays full with the pipeline fully
// drained — the leading epochs then carry obligations of unfinished
// transactions (this chain's own lock-ahead among them), which no
// amount of waiting clears — or when chaos injection fails the append
// itself (a modeled op failure, not reclaimable).
bool AppendChopMarker(NvramLog* log, int worker, uint64_t chain_id,
                      const ChopInfo& info) {
  // One drained-and-reclaimed retry observes the steady state; the
  // extra rounds ride out chaos-delayed seals and dropped doorbells.
  constexpr int kDrainRetries = 3;
  for (int attempt = 0;; ++attempt) {
    const AppendStatus status = log->TryAppend(worker, LogType::kChopInfo,
                                               chain_id, &info, sizeof(info));
    if (status == AppendStatus::kOk) {
      return true;
    }
    if (status == AppendStatus::kFaulted || attempt >= kDrainRetries) {
      return false;
    }
    log->DrainFlushes(worker);
    log->ReclaimSpace(worker);
  }
}

}  // namespace

TxnStatus ChoppedTransaction::RunFrom(Worker* worker, size_t first_piece) {
  Cluster& cluster = worker->cluster();
  const bool logging = cluster.config().logging;
  const bool chained = pieces_.size() > 1;
  const uint64_t chain_id =
      cluster.NextTxnId(worker->node(), worker->worker_id());

  // The one exit of a chain that stops early without keeping its locks:
  // release them and, when `close` (nothing of this segment committed,
  // no node failed) and every unlock landed, close what the chain logged
  // under chain_id with a kComplete. Otherwise the records stay open for
  // recovery, which must resume a half-applied chain or clear a lock
  // left on a dead target. Best-effort like a commit's kComplete.
  auto give_up = [&](TxnStatus status, bool close) {
    const bool released = ReleaseChainLocks(worker, &chain_locks_);
    if (close && released && chained && logging) {
      cluster.log(worker->node())
          ->AppendReclaiming(worker->worker_id(), LogType::kComplete,
                             chain_id, nullptr, 0);
    }
    return status;
  };

  // All chain locks are acquired before the first piece runs and held
  // until after the last (§4.6). A resumed chain re-acquires them —
  // recovery released the crashed node's.
  if (chained && !chain_locks_.empty()) {
    const TxnStatus lock_status =
        AcquireChainLocks(worker, chain_id, &chain_locks_);
    if (lock_status != TxnStatus::kCommitted) {
      return give_up(lock_status, lock_status == TxnStatus::kAborted);
    }
  }

  // Chaos point on the chop log path: fires between the remaining-piece
  // record and the piece body, simulating a power-cut at the resume
  // point. Chain locks stay held (recovery releases them) and the piece
  // has not started, so recovery resumes exactly here.
  static const uint32_t kChopPoint =
      chaos::Injector::Global().Point("log.chop");

  for (size_t i = first_piece; i < pieces_.size(); ++i) {
    if (chained) {
      if (logging) {
        // Remaining-piece record ahead of each piece: on recovery, the
        // highest logged index is the chain's resume point (§4.6).
        const ChopInfo info{static_cast<uint32_t>(i),
                            static_cast<uint32_t>(pieces_.size())};
        NvramLog* log = cluster.log(worker->node());
        if (!AppendChopMarker(log, worker->worker_id(), chain_id, info)) {
          // No resume marker can be made durable even with the flush
          // pipeline drained and every completed epoch reclaimed. Never
          // keep the chain locks on a live node — no caller resumes an
          // aborted chain, so the keys would stay write-locked until a
          // crash. Release and surface a retryable abort; mid-chain
          // (pieces < i committed) the retried chain re-runs those
          // pieces, which catalog pieces after the first are written to
          // tolerate — the same idempotence contract recovery's resume
          // path relies on. A mid-chain give-up stays open: should this
          // node crash before the retry, recovery resumes the
          // half-applied chain from its highest durable marker.
          stat::Registry::Global().Add(MarkerDroppedId());
          return give_up(TxnStatus::kAborted, i == first_piece);
        }
        // The resume marker must be recoverable before the piece makes any
        // of its effects visible (it runs under already-held chain locks).
        log->Externalize(worker->worker_id());
      }
      if (chaos::Check(kChopPoint, worker->node()).kind ==
          chaos::Decision::Kind::kAbandon) {
        return TxnStatus::kNodeFailure;  // simulated death: locks stay held
      }
    }
    Transaction txn(worker);
    pieces_[i].declare(txn);
    for (const ChainLock& lock : chain_locks_) {
      txn.MarkChainLocked(lock.table, lock.key);
    }
    const TxnStatus status = txn.Run(pieces_[i].body);
    if (status == TxnStatus::kUserAbort) {
      assert(i == 0 &&
             "only the first piece of a chopped transaction may user-abort");
      return give_up(status, true);
    }
    if (i == first_piece && status == TxnStatus::kAborted) {
      // Nothing from this (possibly resumed) chain segment committed;
      // release so the caller can retry the chain from scratch.
      return give_up(status, true);
    }
    if (status != TxnStatus::kCommitted) {
      // Surface as-is: earlier pieces committed, the chain locks stay
      // held, and recovery (or the caller) finishes the chain.
      return status;
    }
  }
  if (chained) {
    if (logging) {
      // Chain-complete marker: {total, total} tells recovery there is
      // nothing left to resume. It must be durable before the chain
      // locks are released — resuming a "finished" chain would re-run
      // its last piece — so a full segment is ridden out (drain +
      // reclaim + retry) rather than the marker being dropped.
      const ChopInfo info{static_cast<uint32_t>(pieces_.size()),
                          static_cast<uint32_t>(pieces_.size())};
      NvramLog* log = cluster.log(worker->node());
      if (AppendChopMarker(log, worker->worker_id(), chain_id, info)) {
        // Seal before the release below so the marker is
        // recovery-visible before the locks go.
        log->Externalize(worker->worker_id());
      } else {
        // The marker cannot be persisted (segment pinned by unfinished
        // transactions even after draining, or an injected append
        // fault). Holding the chain locks forever would wedge every
        // later writer on these keys, so release anyway and count the
        // drop: if this node later crashes, recovery resumes at the
        // final piece and re-runs it, which catalog pieces after the
        // first are written to tolerate.
        stat::Registry::Global().Add(MarkerDroppedId());
      }
    }
    ReleaseChainLocks(worker, &chain_locks_);
  }
  return TxnStatus::kCommitted;
}

}  // namespace txn
}  // namespace drtm
