#include "src/txn/recovery.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "src/store/kv_layout.h"
#include "src/txn/lock_state.h"
#include "src/txn/nvram_log.h"

namespace drtm {
namespace txn {

namespace {

struct TxnLogState {
  std::vector<LogLock> locks;
  std::vector<uint8_t> wal;
  bool has_wal = false;
  bool complete = false;
  // Chopped-chain records under this id: {next_piece, total} is appended
  // before each piece, {total, total} after the last.
  uint32_t chop_max = 0;
  uint32_t chop_total = 0;  // 0 = not a chopped chain
};

// Clears the lock word at <node, state_off> if the crashed machine still
// owns it. The CAS from the observed word leaves alone a lock someone
// else took since. Returns true when it released one.
bool ReleaseIfOwned(rdma::Fabric& fabric, int node, uint64_t state_off,
                    int crashed_node) {
  uint64_t lock_word = 0;
  if (!fabric.IsAlive(node) ||
      fabric.Read(node, state_off, &lock_word, sizeof(lock_word)) !=
          rdma::OpStatus::kOk ||
      !IsWriteLocked(lock_word) || LockOwner(lock_word) != crashed_node) {
    return false;
  }
  uint64_t observed = 0;
  return fabric.Cas(node, state_off, lock_word, kStateInit, &observed) ==
             rdma::OpStatus::kOk &&
         observed == lock_word;
}

}  // namespace

RecoveryManager::Report RecoveryManager::Recover(int crashed_node) {
  Report report;
  std::map<uint64_t, TxnLogState> txns;
  cluster_->log(crashed_node)
      ->ForEach([&](int worker, const LogRecord& record) {
        TxnLogState& state = txns[record.txn_id];
        switch (record.type) {
          case LogType::kLockAhead:
            for (const LogLock& lock : NvramLog::DecodeLocks(record.payload)) {
              state.locks.push_back(lock);
            }
            break;
          case LogType::kWriteAhead:
            state.wal = record.payload;
            state.has_wal = true;
            break;
          case LogType::kComplete:
            state.complete = true;
            break;
          case LogType::kChopInfo:
            if (record.payload.size() >= 2 * sizeof(uint32_t)) {
              uint32_t piece = 0;
              uint32_t total = 0;
              std::memcpy(&piece, record.payload.data(), sizeof(piece));
              std::memcpy(&total, record.payload.data() + sizeof(piece),
                          sizeof(total));
              state.chop_max = std::max(state.chop_max, piece);
              state.chop_total = total;
            }
            break;
          case LogType::kEpoch:
          case LogType::kPad:
            break;  // framing records never surface through ForEach
        }
      });

  rdma::Fabric& fabric = cluster_->fabric();
  for (auto& [txn_id, state] : txns) {
    if (state.complete) {
      continue;
    }
    if (state.chop_total != 0) {
      // A chopped chain. {total, total} marks it finished (its locks were
      // released by the chain itself); anything less is a resume point —
      // release the chain locks the crashed node still owns (the
      // lock-ahead under the chain id names them; RunFrom re-acquires)
      // and report the chain so the caller can finish it.
      if (state.chop_max >= state.chop_total) {
        continue;
      }
      for (const LogLock& lock : state.locks) {
        report.released_locks +=
            ReleaseIfOwned(fabric, lock.node, lock.state_off, crashed_node);
      }
      report.pending_chains.push_back(
          PendingChain{txn_id, state.chop_max, state.chop_total});
      continue;
    }
    if (state.has_wal) {
      // Committed: redo remote updates (version decides order), then
      // release the locks the transaction still holds.
      ++report.committed_txns;
      NvramLog::DecodeUpdates(
          state.wal, [&](const LogUpdate& update, const uint8_t* value) {
            if (!fabric.IsAlive(update.node)) {
              return;
            }
            if (update.node != crashed_node) {
              // Remote effects may be missing: redo if the target is
              // still on an older version. Local effects (the crashed
              // node's own records) committed with XEND and survived in
              // NVRAM-backed memory — no redo, but their locks must
              // still be released below once the node is back.
              uint32_t current_version = 0;
              if (fabric.Read(update.node,
                              update.entry_off + store::kEntryVersionOffset,
                              &current_version, sizeof(current_version)) !=
                  rdma::OpStatus::kOk) {
                return;
              }
              if (current_version < update.version) {
                std::vector<uint8_t> blob(4 + update.value_len);
                std::memcpy(blob.data(), &update.version, 4);
                std::memcpy(blob.data() + 4, value, update.value_len);
                // Write version, skip the state word, then the value.
                fabric.Write(update.node,
                             update.entry_off + store::kEntryVersionOffset,
                             blob.data(), 4);
                fabric.Write(update.node,
                             update.entry_off + store::kEntryValueOffset,
                             blob.data() + 4, update.value_len);
                ++report.redone_updates;
              }
            }
            // Release the exclusive lock if the crashed machine owns it.
            report.released_locks += ReleaseIfOwned(
                fabric, update.node,
                update.entry_off + store::kEntryStateOffset, crashed_node);
          });
    } else if (!state.locks.empty()) {
      // Aborted: the lock-ahead log names every record the transaction
      // may have locked; clear the ones still owned by the crashed node.
      ++report.aborted_txns;
      for (const LogLock& lock : state.locks) {
        report.released_locks +=
            ReleaseIfOwned(fabric, lock.node, lock.state_off, crashed_node);
      }
    }
  }
  return report;
}

}  // namespace txn
}  // namespace drtm
