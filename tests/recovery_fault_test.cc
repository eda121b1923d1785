// Recovery under injected faults (src/chaos x paper section 4.6):
//   * a crash between a log append's payload write and its head publish
//     leaves a torn record that must be invisible to replay;
//   * a recovery scan that itself dies mid-replay must be resumable —
//     redo is version-gated and idempotent, so a second full scan
//     finishes the job;
//   * a machine dying inside the fallback's lock-release loop leaves
//     locks held and no Complete record; recovery must redo the WAL
//     updates and clear every lock the dead machine owned;
//   * a machine dying between the fallback's lock acquisition and its
//     WAL append leaves only the lock-ahead record, by which recovery
//     releases the locks;
//   * a commit whose write-back target stays down past the retry budget
//     writes no Complete record either, so recovery of the committer's
//     log finishes the write-back once the target is back; nor does an
//     abort whose unlock misses a dead target, so recovery clears it;
//   * a chopped chain given up on a live node closes only if none of
//     its pieces committed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/chaos/fault_plan.h"
#include "src/chaos/injector.h"
#include "src/htm/htm.h"
#include "src/stat/metrics.h"
#include "src/store/kv_layout.h"
#include "src/txn/chopping.h"
#include "src/txn/cluster.h"
#include "src/txn/lock_state.h"
#include "src/txn/nvram_log.h"
#include "src/txn/recovery.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace txn {
namespace {

class RecoveryFaultTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kInitialBalance = 1000;

  void SetUpCluster(int nodes, int htm_retry_limit = -1,
                    bool group_commit = false) {
    ClusterConfig config;
    config.num_nodes = nodes;
    config.workers_per_node = 2;
    config.region_bytes = 32 << 20;
    config.logging = true;
    config.group_commit = group_commit;
    if (htm_retry_limit >= 0) {
      config.htm_retry_limit = htm_retry_limit;
    }
    cluster_ = std::make_unique<Cluster>(config);
    TableSpec spec;
    spec.value_size = 8;
    spec.main_buckets = 1 << 8;
    spec.capacity = 1 << 12;
    spec.partition = [nodes](uint64_t key) {
      return static_cast<int>(key % static_cast<uint64_t>(nodes));
    };
    table_ = cluster_->AddTable(spec);
    cluster_->Start();
    for (uint64_t k = 0; k < 8; ++k) {
      const uint64_t balance = kInitialBalance;
      ASSERT_TRUE(cluster_
                      ->hash_table(cluster_->PartitionOf(table_, k), table_)
                      ->Insert(k, &balance));
    }
  }

  void TearDown() override {
    chaos::Injector::Global().Disarm();
    chaos::Injector::Global().SetCrashHandler(nullptr);
    if (cluster_ != nullptr) {
      cluster_->Stop();
    }
  }

  TxnStatus Transfer(Worker* worker, uint64_t from, uint64_t to,
                     uint64_t amount) {
    Transaction txn(worker);
    txn.AddWrite(table_, from);
    txn.AddWrite(table_, to);
    return txn.Run([&](Transaction& t) {
      uint64_t a = 0;
      uint64_t b = 0;
      if (!t.Read(table_, from, &a) || !t.Read(table_, to, &b)) {
        return false;
      }
      a -= amount;
      b += amount;
      return t.Write(table_, from, &a) && t.Write(table_, to, &b);
    });
  }

  void ArmOne(const char* point, uint64_t arrival, chaos::FaultKind kind) {
    chaos::FaultPlan plan;
    plan.Add(chaos::FaultEvent{point, arrival, kind, -1, 0});
    chaos::Injector::Global().Arm(plan);
  }

  // Transfers 50 from key 0 (node 0) to key 1 (node 1) while node 1
  // dies at the commit's first RDMA WRITE, key 1's write-back, and stays
  // down past the retry budget: neither that write-back nor the unlock
  // ever lands. No Complete record may claim the release finished, so
  // replaying the committer's log once node 1 is back redoes the update
  // and clears the lock it still holds there.
  void CommitWhileTargetStaysDownThenRecover() {
    Worker worker(cluster_.get(), 0, 0);
    chaos::Injector::Global().SetCrashHandler(
        [this](int node) { cluster_->Crash(node); });
    ArmOne("rdma.write.wqe", 1, chaos::FaultKind::kCrashNode);
    ASSERT_EQ(Transfer(&worker, 0, 1, 50), TxnStatus::kCommitted);
    chaos::Injector::Global().Disarm();

    cluster_->Revive(1);
    RecoveryManager recovery(cluster_.get());
    EXPECT_EQ(recovery.Recover(0).redone_updates, 1);
    const uint64_t expected[2] = {kInitialBalance - 50, kInitialBalance + 50};
    for (uint64_t k = 0; k <= 1; ++k) {
      store::ClusterHashTable* host =
          cluster_->hash_table(cluster_->PartitionOf(table_, k), table_);
      const uint64_t entry = host->FindEntry(k);
      EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit)
          << "key " << k << " still locked after recovery";
      uint64_t value = 0;
      ASSERT_TRUE(host->Get(k, &value));
      EXPECT_EQ(value, expected[k]) << "key " << k;
    }
  }

  std::unique_ptr<Cluster> cluster_;
  int table_ = -1;
};

TEST_F(RecoveryFaultTest, CrashMidAppendLeavesTornRecordInvisible) {
  SetUpCluster(2);
  NvramLog* log = cluster_->log(0);
  const uint8_t payload[4] = {1, 2, 3, 4};
  ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, 100, payload, 4));

  // The power cut lands between the payload write and the head publish:
  // Append reports failure and the head counter never moves.
  const size_t used_before = log->UsedBytes(0);
  ArmOne("log.append", 1, chaos::FaultKind::kCrashPoint);
  EXPECT_FALSE(log->Append(0, LogType::kWriteAhead, 101, payload, 4));
  chaos::Injector::Global().Disarm();
  EXPECT_EQ(log->UsedBytes(0), used_before);

  ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, 102, payload, 4));

  // Replay sees the records around the torn one, never the torn one —
  // even though its payload bytes sit in the segment below the head.
  std::vector<uint64_t> seen;
  log->ForEach([&](int worker, const LogRecord& record) {
    if (worker == 0) {
      seen.push_back(record.txn_id);
    }
  });
  EXPECT_EQ(seen, (std::vector<uint64_t>{100, 102}));
}

TEST_F(RecoveryFaultTest, CrashMidReplayIsResumableAndIdempotent) {
  SetUpCluster(2);
  // Fig. 7(b) by hand: node 0's HTM committed (WAL durable) but it died
  // before writing back the remote update on node 1.
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);
  const uint64_t state_off = entry + store::kEntryStateOffset;
  uint64_t observed = 0;
  ASSERT_EQ(cluster_->fabric().Cas(1, state_off, kStateInit,
                                   MakeWriteLocked(0), &observed),
            rdma::OpStatus::kOk);
  std::vector<uint8_t> wal;
  const uint64_t new_value = 4242;
  NvramLog::EncodeUpdate(&wal, LogUpdate{1, table_, 1, entry, 1, 8},
                         &new_value);
  ASSERT_TRUE(cluster_->log(0)->Append(0, LogType::kWriteAhead, 778,
                                       wal.data(), wal.size()));
  cluster_->Crash(0);

  // First recovery attempt dies on the very first replayed record: no
  // redo happens, the lock stays held.
  ArmOne("log.replay", 1, chaos::FaultKind::kCrashPoint);
  RecoveryManager recovery(cluster_.get());
  const auto truncated = recovery.Recover(0);
  chaos::Injector::Global().Disarm();
  EXPECT_EQ(truncated.redone_updates, 0);
  EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), MakeWriteLocked(0));

  // A later full scan must finish the job exactly once.
  const auto full = recovery.Recover(0);
  EXPECT_EQ(full.committed_txns, 1);
  EXPECT_EQ(full.redone_updates, 1);
  EXPECT_EQ(full.released_locks, 1);
  uint64_t value = 0;
  ASSERT_TRUE(host->Get(1, &value));
  EXPECT_EQ(value, 4242u);
  EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit);

  // Redo is version-gated: running recovery yet again changes nothing.
  const auto again = recovery.Recover(0);
  EXPECT_EQ(again.redone_updates, 0);
  ASSERT_TRUE(host->Get(1, &value));
  EXPECT_EQ(value, 4242u);
}

TEST_F(RecoveryFaultTest, CrashDuringFallbackLockReleaseIsRecovered) {
  SetUpCluster(2, /*htm_retry_limit=*/0);  // every transaction uses 2PL
  Worker worker(cluster_.get(), 0, 0);

  // The machine dies inside the release loop: the transaction committed
  // (WAL written) but locks stay held and no Complete record lands.
  ArmOne("txn.fallback.unlock", 1, chaos::FaultKind::kCrashPoint);
  ASSERT_EQ(Transfer(&worker, 0, 1, 50), TxnStatus::kCommitted);
  chaos::Injector::Global().Disarm();

  bool any_locked = false;
  for (uint64_t k = 0; k <= 1; ++k) {
    store::ClusterHashTable* host =
        cluster_->hash_table(cluster_->PartitionOf(table_, k), table_);
    const uint64_t word = htm::StrongLoad(host->StatePtr(host->FindEntry(k)));
    any_locked = any_locked || IsWriteLocked(word);
  }
  ASSERT_TRUE(any_locked) << "crash point did not leave locks held";

  // Fail-stop the owner and recover: WAL redo + lock release must leave
  // both records unlocked with the committed values in place.
  cluster_->Crash(0);
  RecoveryManager recovery(cluster_.get());
  recovery.Recover(0);
  cluster_->Revive(0);
  recovery.Recover(0);

  uint64_t total = 0;
  for (uint64_t k = 0; k <= 1; ++k) {
    store::ClusterHashTable* host =
        cluster_->hash_table(cluster_->PartitionOf(table_, k), table_);
    const uint64_t entry = host->FindEntry(k);
    EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit)
        << "key " << k << " still locked after recovery";
    uint64_t value = 0;
    ASSERT_TRUE(host->Get(k, &value));
    total += value;
  }
  EXPECT_EQ(total, 2 * kInitialBalance);
}

// The fallback logs its lock-ahead before its first lock CAS, local
// locks included. Node 0 dies at the fallback's WAL append (log.append
// arrival 2, after the lock-ahead), holding locks on key 0 (node 0) and
// key 1 (node 1). The abandoned attempt's unlock of key 0 cannot land on
// the dead node; only the lock-ahead record lets recovery release it.
TEST_F(RecoveryFaultTest, CrashBetweenFallbackLocksAndWalIsRecovered) {
  SetUpCluster(2, /*htm_retry_limit=*/0);
  Worker worker(cluster_.get(), 0, 0);
  chaos::Injector::Global().SetCrashHandler(
      [this](int node) { cluster_->Crash(node); });
  chaos::FaultPlan plan;
  plan.Add(chaos::FaultEvent{"log.append", 2, chaos::FaultKind::kCrashNode, 0,
                             0});
  chaos::Injector::Global().Arm(plan);
  EXPECT_EQ(Transfer(&worker, 0, 1, 50), TxnStatus::kNodeFailure);
  chaos::Injector::Global().Disarm();

  cluster_->Revive(0);
  int stranded = 0;
  for (uint64_t k = 0; k <= 1; ++k) {
    store::ClusterHashTable* host =
        cluster_->hash_table(cluster_->PartitionOf(table_, k), table_);
    stranded += IsWriteLocked(
        htm::StrongLoad(host->StatePtr(host->FindEntry(k))));
  }
  ASSERT_GT(stranded, 0) << "the crash was expected to strand a lock";
  RecoveryManager recovery(cluster_.get());
  EXPECT_EQ(recovery.Recover(0).released_locks, stranded);
  for (uint64_t k = 0; k <= 1; ++k) {
    store::ClusterHashTable* host =
        cluster_->hash_table(cluster_->PartitionOf(table_, k), table_);
    const uint64_t entry = host->FindEntry(k);
    EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit)
        << "key " << k << " still locked after recovery";
    uint64_t value = 0;
    ASSERT_TRUE(host->Get(k, &value));
    EXPECT_EQ(value, kInitialBalance) << "key " << k;
  }
}

TEST_F(RecoveryFaultTest, HtmWriteBackToTargetDownPastRetryBudgetIsRedone) {
  SetUpCluster(2);
  CommitWhileTargetStaysDownThenRecover();
}

TEST_F(RecoveryFaultTest,
       FallbackWriteBackToTargetDownPastRetryBudgetIsRedone) {
  SetUpCluster(2, /*htm_retry_limit=*/0);
  CommitWhileTargetStaysDownThenRecover();
}

// An abort whose unlock cannot reach a dead target must not close its
// log obligation: the lock stays held there, and only recovery of the
// aborter's log, once the target is back, can clear it. Two inputs, a
// transaction and a chopped chain, each holding the write lock on key 1
// (node 1) when the body kills node 1 and user-aborts.
TEST_F(RecoveryFaultTest, AbortWhoseUnlockCannotLandStaysOpenForRecovery) {
  for (const bool chained : {false, true}) {
    SCOPED_TRACE(chained ? "chopped chain" : "transaction");
    if (cluster_ != nullptr) {
      cluster_->Stop();
    }
    SetUpCluster(2);
    Worker worker(cluster_.get(), 0, 0);
    const auto kill_and_abort = [this](Transaction&) {
      cluster_->Crash(1);
      return false;
    };
    TxnStatus status = TxnStatus::kCommitted;
    if (chained) {
      ChoppedTransaction chain;
      chain.AddChainLock(table_, 1);
      chain.AddPiece([this](Transaction& t) { t.AddWrite(table_, 0); },
                     kill_and_abort);
      chain.AddPiece([this](Transaction& t) { t.AddWrite(table_, 1); },
                     [](Transaction&) { return true; });
      status = chain.Run(&worker);
    } else {
      Transaction txn(&worker);
      txn.AddWrite(table_, 1);
      status = txn.Run(kill_and_abort);
    }
    EXPECT_EQ(status, TxnStatus::kUserAbort);

    cluster_->Revive(1);
    store::ClusterHashTable* host = cluster_->hash_table(1, table_);
    const uint64_t entry = host->FindEntry(1);
    EXPECT_NE(htm::StrongLoad(host->StatePtr(entry)), kStateInit)
        << "the unlock was expected to miss the dead target";
    RecoveryManager recovery(cluster_.get());
    EXPECT_EQ(recovery.Recover(0).released_locks, 1);
    EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit)
        << "key 1 still locked after recovery";
  }
}

TEST_F(RecoveryFaultTest, CrashMidChainResumesFromLoggedRemainder) {
  SetUpCluster(2);
  Worker worker(cluster_.get(), 0, 0);

  // A 3-piece chain on node-0 keys 0/2/4, each piece adding 100 to its
  // key, with the chain's exclusive lock on key 0.
  auto build = [this](ChoppedTransaction* chain) {
    chain->AddChainLock(table_, 0);
    for (uint64_t piece = 0; piece < 3; ++piece) {
      const uint64_t key = piece * 2;
      chain->AddPiece(
          [this, key](Transaction& t) { t.AddWrite(table_, key); },
          [this, key](Transaction& t) {
            uint64_t v = 0;
            if (!t.Read(table_, key, &v)) {
              return false;
            }
            v += 100;
            return t.Write(table_, key, &v);
          });
    }
  };

  // Die at piece 2's resume point: pieces 0 and 1 committed, the {2,3}
  // remaining-piece record is logged, the chain lock stays held.
  ChoppedTransaction chain;
  build(&chain);
  ArmOne("log.chop", 3, chaos::FaultKind::kCrashPoint);
  ASSERT_EQ(chain.Run(&worker), TxnStatus::kNodeFailure);
  chaos::Injector::Global().Disarm();

  store::ClusterHashTable* host = cluster_->hash_table(0, table_);
  const uint64_t entry = host->FindEntry(0);
  ASSERT_EQ(htm::StrongLoad(host->StatePtr(entry)), MakeWriteLocked(0));

  // Recovery reports the chain's resume point from the logged remainder;
  // the lock hosted by the dead node itself is cleared once it revives
  // (same two-pass shape as the fallback-release test above).
  cluster_->Crash(0);
  RecoveryManager recovery(cluster_.get());
  recovery.Recover(0);
  cluster_->Revive(0);
  const auto report = recovery.Recover(0);
  ASSERT_EQ(report.pending_chains.size(), 1u);
  EXPECT_EQ(report.pending_chains[0].next_piece, 2u);
  EXPECT_EQ(report.pending_chains[0].total, 3u);
  EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit);

  // A surviving worker finishes the chain from the reported piece; the
  // committed prefix is never re-run.
  ChoppedTransaction resume;
  build(&resume);
  ASSERT_EQ(resume.RunFrom(&worker, report.pending_chains[0].next_piece),
            TxnStatus::kCommitted);

  for (uint64_t k = 0; k <= 4; k += 2) {
    uint64_t value = 0;
    ASSERT_TRUE(cluster_->hash_table(0, table_)->Get(k, &value));
    EXPECT_EQ(value, kInitialBalance + 100) << "key " << k;
  }
}

// A 3-piece all-local chain on node-0 keys 0/2/4 with the chain lock on
// key 0, plus the calibration both marker-failure tests below need: how
// many log appends one clean run makes. The chain skeleton contributes
// five (lock-ahead, three resume markers, the completion marker); the
// pieces split the rest evenly.
class ChainMarkerFaultTest : public RecoveryFaultTest {
 protected:
  void BuildChain(ChoppedTransaction* chain) {
    chain->AddChainLock(table_, 0);
    for (uint64_t piece = 0; piece < 3; ++piece) {
      const uint64_t key = piece * 2;
      chain->AddPiece(
          [this, key](Transaction& t) { t.AddWrite(table_, key); },
          [this, key](Transaction& t) {
            uint64_t v = 0;
            if (!t.Read(table_, key, &v)) {
              return false;
            }
            v += 100;
            return t.Write(table_, key, &v);
          });
    }
  }

  // Log appends per clean chain run, measured so the tests stay correct
  // if the per-piece record shape changes.
  uint64_t CalibrateAppendsPerChain(Worker* worker) {
    const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
    ChoppedTransaction chain;
    BuildChain(&chain);
    EXPECT_EQ(chain.Run(worker), TxnStatus::kCommitted);
    const uint64_t appends = stat::Registry::Global()
                                 .TakeSnapshot()
                                 .DeltaSince(before)
                                 .Counter("log.append.ops");
    EXPECT_GE(appends, 5u);
    EXPECT_EQ((appends - 5) % 3, 0u) << "pieces appended unevenly; the "
                                        "arrival arithmetic below is stale";
    return appends;
  }

  uint64_t ChainLockWord() {
    store::ClusterHashTable* host = cluster_->hash_table(0, table_);
    return htm::StrongLoad(host->StatePtr(host->FindEntry(0)));
  }
};

TEST_F(ChainMarkerFaultTest, MidChainMarkerFailureNeverStrandsChainLocks) {
  SetUpCluster(2);
  Worker worker(cluster_.get(), 0, 0);
  const uint64_t per_chain = CalibrateAppendsPerChain(&worker);
  const uint64_t per_piece = (per_chain - 5) / 3;

  // Fail piece 1's resume marker (arrival: lock-ahead + piece-0 marker +
  // piece-0's own appends + 1). Piece 0 has committed, so this is the
  // mid-chain path: the chain must abort WITHOUT keeping the chain lock
  // — on a live node nobody resumes it, and a kept lock would wedge
  // every later writer on key 0 until a crash.
  ChoppedTransaction chain;
  BuildChain(&chain);
  ArmOne("log.append", 3 + per_piece, chaos::FaultKind::kDropOp);
  EXPECT_EQ(chain.Run(&worker), TxnStatus::kAborted);
  chaos::Injector::Global().Disarm();
  EXPECT_EQ(ChainLockWord(), kStateInit)
      << "chain lock stranded after a mid-chain marker failure";

  // The keys stay writable on the live node: a fresh chain goes through.
  ChoppedTransaction retry;
  BuildChain(&retry);
  EXPECT_EQ(retry.Run(&worker), TxnStatus::kCommitted);
}

TEST_F(ChainMarkerFaultTest, DroppedCompletionMarkerStillReleasesChainLocks) {
  SetUpCluster(2);
  Worker worker(cluster_.get(), 0, 0);
  const uint64_t per_chain = CalibrateAppendsPerChain(&worker);

  // Fail the {total, total} completion marker (the chain's last append).
  // All pieces committed, so the chain reports success; the drop is
  // counted and the chain locks are still released — recovery may re-run
  // the final piece after a later crash, which catalog pieces tolerate.
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  ChoppedTransaction chain;
  BuildChain(&chain);
  ArmOne("log.append", per_chain, chaos::FaultKind::kDropOp);
  EXPECT_EQ(chain.Run(&worker), TxnStatus::kCommitted);
  chaos::Injector::Global().Disarm();
  EXPECT_EQ(ChainLockWord(), kStateInit)
      << "chain lock stranded after a dropped completion marker";
  EXPECT_EQ(stat::Registry::Global()
                .TakeSnapshot()
                .DeltaSince(before)
                .Counter("txn.chop.marker_dropped"),
            1u);
}

// A chain given up on a live node closes only when nothing of it has
// committed. Two unstarted inputs close, so their records no longer pin
// the log and recovery ignores them: the chain lock held by another
// machine (AcquireChainLocks gives up after logging its lock-ahead), and
// piece 0's resume marker dropped. A later piece's marker dropped: piece
// 0 has committed, so the chain stays open and a crash before the
// caller's retry resumes it from its highest durable marker instead of
// leaving it half applied.
TEST_F(ChainMarkerFaultTest, GivenUpChainClosesOnlyWhenUnstarted) {
  SetUpCluster(2);
  Worker worker(cluster_.get(), 0, 0);
  const uint64_t per_chain = CalibrateAppendsPerChain(&worker);
  const uint64_t per_piece = (per_chain - 5) / 3;
  NvramLog* log = cluster_->log(0);

  store::ClusterHashTable* host = cluster_->hash_table(0, table_);
  uint64_t* lock_word = host->StatePtr(host->FindEntry(0));
  htm::StrongStore(lock_word, MakeWriteLocked(1));
  ChoppedTransaction blocked;
  BuildChain(&blocked);
  EXPECT_EQ(blocked.Run(&worker), TxnStatus::kAborted);
  htm::StrongStore(lock_word, kStateInit);

  // Arrival 2: the lock-ahead, then piece 0's resume marker.
  ChoppedTransaction unstarted;
  BuildChain(&unstarted);
  ArmOne("log.append", 2, chaos::FaultKind::kDropOp);
  EXPECT_EQ(unstarted.Run(&worker), TxnStatus::kAborted);
  chaos::Injector::Global().Disarm();
  EXPECT_EQ(ChainLockWord(), kStateInit);
  log->Externalize(0);
  log->Poll(0);
  log->ReclaimSpace(0);
  EXPECT_EQ(log->UsedBytes(0), 0u) << "an unstarted chain pins the log";

  ChoppedTransaction half_applied;
  BuildChain(&half_applied);
  ArmOne("log.append", 3 + per_piece, chaos::FaultKind::kDropOp);
  EXPECT_EQ(half_applied.Run(&worker), TxnStatus::kAborted);
  chaos::Injector::Global().Disarm();
  EXPECT_EQ(ChainLockWord(), kStateInit);

  cluster_->Crash(0);
  RecoveryManager recovery(cluster_.get());
  const auto report = recovery.Recover(0);
  EXPECT_EQ(report.aborted_txns, 0);
  ASSERT_EQ(report.pending_chains.size(), 1u);
  EXPECT_EQ(report.pending_chains[0].next_piece, 0u);
  EXPECT_EQ(report.pending_chains[0].total, 3u);
}

// --- group commit: crashes at the epoch boundary ----------------------------

TEST_F(RecoveryFaultTest, CrashBeforeEpochSealLeavesTailInvisible) {
  SetUpCluster(2, /*htm_retry_limit=*/-1, /*group_commit=*/true);
  NvramLog* log = cluster_->log(0);
  const uint8_t payload[4] = {1, 2, 3, 4};

  // Epoch 1 seals cleanly around txn 200.
  ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, 200, payload, 4));
  log->Externalize(0);

  // Txn 201 stages into epoch 2; the power cut lands inside the seal,
  // before the checksum backpatch — the epoch keeps its open magic.
  ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, 201, payload, 4));
  ArmOne("log.epoch.seal", 1, chaos::FaultKind::kCrashPoint);
  log->Externalize(0);
  chaos::Injector::Global().Disarm();

  // Replay never surfaces a half-epoch: txn 201's bytes sit below the
  // head, but the unsealed tail is invisible.
  std::vector<uint64_t> seen;
  log->ForEach([&](int worker, const LogRecord& record) {
    if (worker == 0) {
      seen.push_back(record.txn_id);
    }
  });
  EXPECT_EQ(seen, (std::vector<uint64_t>{200}));

  // A later clean seal makes the tail (and everything in it) visible.
  log->Externalize(0);
  seen.clear();
  log->ForEach([&](int worker, const LogRecord& record) {
    if (worker == 0) {
      seen.push_back(record.txn_id);
    }
  });
  EXPECT_EQ(seen, (std::vector<uint64_t>{200, 201}));
}

TEST_F(RecoveryFaultTest, RecoveryReplaysSealedEpochsOnly) {
  SetUpCluster(2, /*htm_retry_limit=*/-1, /*group_commit=*/true);
  // Fig. 7(b) with group commit: txn 778's WAL made it into a sealed
  // epoch, txn 779's is still staged in the open epoch when the machine
  // dies — only 778 may be redone.
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);
  const uint64_t state_off = entry + store::kEntryStateOffset;
  uint64_t observed = 0;
  ASSERT_EQ(cluster_->fabric().Cas(1, state_off, kStateInit,
                                   MakeWriteLocked(0), &observed),
            rdma::OpStatus::kOk);
  std::vector<uint8_t> wal;
  const uint64_t new_value = 4242;
  NvramLog::EncodeUpdate(&wal, LogUpdate{1, table_, 1, entry, 1, 8},
                         &new_value);
  NvramLog* log = cluster_->log(0);
  ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, 778, wal.data(),
                          wal.size()));
  log->Externalize(0);

  std::vector<uint8_t> wal2;
  const uint64_t other_value = 9999;
  NvramLog::EncodeUpdate(&wal2, LogUpdate{1, table_, 3, host->FindEntry(3),
                                          1, 8},
                         &other_value);
  ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, 779, wal2.data(),
                          wal2.size()));
  cluster_->Crash(0);

  RecoveryManager recovery(cluster_.get());
  const auto report = recovery.Recover(0);
  EXPECT_EQ(report.committed_txns, 1);
  EXPECT_EQ(report.redone_updates, 1);
  uint64_t value = 0;
  ASSERT_TRUE(host->Get(1, &value));
  EXPECT_EQ(value, 4242u);
  ASSERT_TRUE(host->Get(3, &value));
  EXPECT_EQ(value, kInitialBalance) << "unsealed-epoch WAL must not redo";
  EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit);
}

TEST_F(RecoveryFaultTest, LockAheadRepairRunsWhenWalEpochIsTorn) {
  SetUpCluster(2, /*htm_retry_limit=*/-1, /*group_commit=*/true);
  // The dangerous window: the lock-ahead sealed (it must, before the
  // remote CAS), the HTM region committed and staged its WAL, but the
  // machine died before the WAL epoch flushed. The transaction is not
  // durably acknowledged, so recovery treats it as aborted: no redo,
  // locks released.
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);
  const uint64_t state_off = entry + store::kEntryStateOffset;
  uint64_t observed = 0;
  ASSERT_EQ(cluster_->fabric().Cas(1, state_off, kStateInit,
                                   MakeWriteLocked(0), &observed),
            rdma::OpStatus::kOk);
  NvramLog* log = cluster_->log(0);
  const std::vector<LogLock> locks = {{1, table_, 1, state_off}};
  const auto lock_payload = NvramLog::EncodeLocks(locks);
  ASSERT_TRUE(log->Append(0, LogType::kLockAhead, 880, lock_payload.data(),
                          lock_payload.size()));
  log->Externalize(0);

  std::vector<uint8_t> wal;
  const uint64_t new_value = 7777;
  NvramLog::EncodeUpdate(&wal, LogUpdate{1, table_, 1, entry, 1, 8},
                         &new_value);
  ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, 880, wal.data(),
                          wal.size()));
  cluster_->Crash(0);

  RecoveryManager recovery(cluster_.get());
  const auto report = recovery.Recover(0);
  EXPECT_EQ(report.redone_updates, 0) << "torn WAL epoch must not redo";
  EXPECT_EQ(report.released_locks, 1) << "lock-ahead repair must run";
  uint64_t value = 0;
  ASSERT_TRUE(host->Get(1, &value));
  EXPECT_EQ(value, kInitialBalance);
  EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit);
}

}  // namespace
}  // namespace txn
}  // namespace drtm
