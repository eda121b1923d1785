// Transaction chopping runtime (paper section 3).
//
// DrTM fits large transactions into HTM capacity by decomposing them into
// pieces; each piece runs as its own HTM+2PL transaction. Serializability
// of the decomposition is a *static* property of the workload's SC-graph
// (Shasha et al.), established offline — this runtime only executes a
// given decomposition and maintains the paper's invariants:
//   * only the first piece may user-abort;
//   * records written across piece boundaries are chain-locked before the
//     first piece runs and released only after the last (§4.6's
//     "locks acquired in the first piece, write-back in the last");
//   * when logging is on, a remaining-piece record {next_piece, total} is
//     appended before each piece — the highest logged index is the resume
//     point — and a final {total, total} record marks the chain complete.
//
// The `log.chop` chaos point fires between the remaining-piece record and
// the piece body: an injected crash there leaves pieces < k committed,
// piece k unstarted, and the resume point unambiguous. (A machine dying
// *inside* piece k instead leaves the classic ambiguity — the piece's own
// commit is not correlated with the chain log — so catalog pieces after
// the first are written to be idempotent under re-execution.)
#ifndef SRC_TXN_CHOPPING_H_
#define SRC_TXN_CHOPPING_H_

#include <functional>
#include <vector>

#include "src/txn/transaction.h"

namespace drtm {
namespace txn {

class ChoppedTransaction {
 public:
  struct Piece {
    // Declares the piece's read/write sets on a fresh Transaction.
    std::function<void(Transaction&)> declare;
    // The piece body.
    Transaction::Body body;
  };

  void AddPiece(std::function<void(Transaction&)> declare,
                Transaction::Body body) {
    pieces_.push_back(Piece{std::move(declare), std::move(body)});
  }

  // Declares a record whose exclusive lock must span the whole chain:
  // written by more than one piece, or written remotely by a later piece.
  // Acquired (in global order) before the first piece, released after the
  // last; pieces that declare it are marked chain-locked automatically.
  void AddChainLock(int table, uint64_t key) {
    ChainLock& lock = chain_locks_.emplace_back();
    lock.table = table;
    lock.key = key;
  }

  size_t piece_count() const { return pieces_.size(); }
  size_t chain_lock_count() const { return chain_locks_.size(); }

  // Runs the pieces in order. A kUserAbort from the first piece aborts
  // the whole chain (nothing has committed yet); later pieces must not
  // user-abort. Any piece failure after the first has committed is
  // surfaced as-is — recovery (or the caller) finishes the chain.
  TxnStatus Run(Worker* worker) { return RunFrom(worker, 0); }

  // Resumes a chain from piece `first_piece` — the recovery path (§4.6):
  // RecoveryManager reports the resume point of each unfinished chain
  // (its chain locks were released during recovery); this re-acquires
  // them and runs the remaining pieces.
  TxnStatus RunFrom(Worker* worker, size_t first_piece);

 private:
  std::vector<Piece> pieces_;
  std::vector<ChainLock> chain_locks_;
};

}  // namespace txn
}  // namespace drtm

#endif  // SRC_TXN_CHOPPING_H_
