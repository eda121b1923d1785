// Durability and recovery tests (paper section 4.6): lock-ahead /
// write-ahead logging, the HTM all-or-nothing WAL property end to end,
// and cooperative recovery after fail-stop crashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "src/htm/htm.h"
#include "src/store/kv_layout.h"
#include "src/txn/cluster.h"
#include "src/txn/lock_state.h"
#include "src/txn/failure_detector.h"
#include "src/txn/recovery.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace txn {
namespace {

class DurabilityTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kAccounts = 16;
  static constexpr uint64_t kInitialBalance = 1000;

  void SetUpCluster(int nodes) {
    ClusterConfig config;
    config.num_nodes = nodes;
    config.workers_per_node = 2;
    config.region_bytes = 32 << 20;
    config.logging = true;
    SetUpClusterWith(config);
  }

  void SetUpClusterWith(ClusterConfig config) {
    const int nodes = config.num_nodes;
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
    for (uint64_t k = 0; k < kAccounts; ++k) {
      const uint64_t balance = kInitialBalance;
      ASSERT_TRUE(cluster_
                      ->hash_table(cluster_->PartitionOf(table_, k), table_)
                      ->Insert(k, &balance));
    }
  }

  void TearDown() override {
    if (cluster_ != nullptr) {
      cluster_->Stop();
    }
  }

  // With write_from_twice the body first writes a draft to `from`, then
  // the final balance: one record written twice in one transaction.
  TxnStatus Transfer(Worker* worker, uint64_t from, uint64_t to,
                     uint64_t amount, bool write_from_twice = false) {
    Transaction txn(worker);
    txn.AddWrite(table_, from);
    txn.AddWrite(table_, to);
    return txn.Run([&](Transaction& t) {
      uint64_t a = 0;
      uint64_t b = 0;
      if (!t.Read(table_, from, &a) || !t.Read(table_, to, &b)) {
        return false;
      }
      const uint64_t draft = a + 1;
      if (write_from_twice && !t.Write(table_, from, &draft)) {
        return false;
      }
      a -= amount;
      b += amount;
      return t.Write(table_, from, &a) && t.Write(table_, to, &b);
    });
  }

  uint32_t VersionOf(uint64_t key) {
    store::ClusterHashTable* host =
        cluster_->hash_table(cluster_->PartitionOf(table_, key), table_);
    return htm::Load(host->VersionPtr(host->FindEntry(key)));
  }

  // (node, table, key, version, value) of every WAL update in node 0's
  // log, sorted: the multiset recovery would redo.
  using WalUpdate = std::tuple<int, int, uint64_t, uint32_t, uint64_t>;
  std::vector<WalUpdate> LoggedUpdates() {
    std::vector<WalUpdate> updates;
    cluster_->log(0)->ForEach([&](int, const LogRecord& record) {
      if (record.type != LogType::kWriteAhead) {
        return;
      }
      NvramLog::DecodeUpdates(
          record.payload, [&](const LogUpdate& u, const uint8_t* value) {
            EXPECT_EQ(u.value_len, 8u);
            uint64_t v = 0;
            std::memcpy(&v, value, sizeof(v));
            updates.emplace_back(u.node, u.table, u.key, u.version, v);
          });
    });
    std::sort(updates.begin(), updates.end());
    return updates;
  }

  std::unique_ptr<Cluster> cluster_;
  int table_ = -1;
};

// Both paths log a lock-ahead before locking and stage the WAL at one
// commit point: the HTM path and the fallback (htm_retry_limit = 0) log
// the same updates, one per dirty ref, also when the body writes the
// local side twice.
TEST_F(DurabilityTest, CommittedDistributedTxnLogsEverything) {
  struct Input {
    const char* name;
    int htm_retry_limit;
    bool write_local_twice;
  };
  for (const Input& in : {Input{"htm", 8, false}, Input{"fallback", 0, false},
                          Input{"htm, local side twice", 8, true},
                          Input{"fallback, local side twice", 0, true}}) {
    SCOPED_TRACE(in.name);
    ClusterConfig config;
    config.num_nodes = 2;
    config.region_bytes = 32 << 20;
    config.logging = true;
    config.htm_retry_limit = in.htm_retry_limit;
    SetUpClusterWith(config);
    Worker worker(cluster_.get(), 0, 0);
    const uint32_t local_version = VersionOf(0);
    const uint32_t remote_version = VersionOf(1);
    ASSERT_EQ(Transfer(&worker, 0, 1, 50, in.write_local_twice),
              TxnStatus::kCommitted);
    bool lock_ahead = false;
    int wal_records = 0;
    bool complete = false;
    cluster_->log(0)->ForEach([&](int, const LogRecord& record) {
      lock_ahead |= record.type == LogType::kLockAhead;
      wal_records += record.type == LogType::kWriteAhead ? 1 : 0;
      complete |= record.type == LogType::kComplete;
    });
    EXPECT_TRUE(lock_ahead);
    EXPECT_EQ(wal_records, 1);
    EXPECT_TRUE(complete);
    const std::vector<WalUpdate> expected = {
        {0, table_, 0, local_version + 1, kInitialBalance - 50},
        {1, table_, 1, remote_version + 1, kInitialBalance + 50}};
    EXPECT_EQ(LoggedUpdates(), expected);
    EXPECT_EQ(VersionOf(0), local_version + 1);
    cluster_->Stop();
    cluster_.reset();
  }
}

// Two slices of one local record written in place in one HTM region:
// one version bump and one WAL update carrying the composed value.
TEST_F(DurabilityTest, TwoSlicesOfOneLocalRecordBumpAndLogOnce) {
  SetUpCluster(1);
  Worker worker(cluster_.get(), 0, 0);
  const uint32_t version = VersionOf(0);
  const uint32_t low = 0x11111111;
  const uint32_t high = 0x22222222;
  Transaction txn(&worker);
  txn.AddWrite(table_, 0);
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    return t.WriteRange(table_, 0, 0, &low, 4) &&
           t.WriteRange(table_, 0, 4, &high, 4);
  }),
            TxnStatus::kCommitted);
  const uint64_t composed = 0x2222222211111111ULL;
  uint64_t value = 0;
  ASSERT_TRUE(cluster_->hash_table(0, table_)->Get(0, &value));
  EXPECT_EQ(value, composed);
  EXPECT_EQ(VersionOf(0), version + 1);
  const std::vector<WalUpdate> expected = {
      {0, table_, 0, version + 1, composed}};
  EXPECT_EQ(LoggedUpdates(), expected);
}

TEST_F(DurabilityTest, UserAbortedTxnLeavesNoWal) {
  SetUpCluster(2);
  Worker worker(cluster_.get(), 0, 0);
  Transaction txn(&worker);
  txn.AddWrite(table_, 0);
  txn.AddWrite(table_, 1);
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    const uint64_t v = 7;
    t.Write(table_, 0, &v);
    t.Write(table_, 1, &v);
    return false;  // abort after writing: HTM discards the WAL append
  }),
            TxnStatus::kUserAbort);
  NvramLog* log = cluster_->log(0);
  bool wal = false;
  log->ForEach([&](int, const LogRecord& record) {
    if (record.type == LogType::kWriteAhead) {
      wal = true;
    }
  });
  EXPECT_FALSE(wal);
  // Start logged a lock-ahead for the remote write; the abort closes it,
  // so once everything is durable the whole segment reclaims.
  log->Externalize(0);
  log->Poll(0);
  log->ReclaimSpace(0);
  EXPECT_EQ(log->UsedBytes(0), 0u);
}

TEST_F(DurabilityTest, LocalOnlyTxnWritesWal) {
  SetUpCluster(1);
  Worker worker(cluster_.get(), 0, 0);
  ASSERT_EQ(Transfer(&worker, 0, 1, 5), TxnStatus::kCommitted);
  int wal_updates = 0;
  cluster_->log(0)->ForEach([&](int, const LogRecord& record) {
    if (record.type == LogType::kWriteAhead) {
      NvramLog::DecodeUpdates(
          record.payload,
          [&](const LogUpdate&, const uint8_t*) { ++wal_updates; });
    }
  });
  EXPECT_EQ(wal_updates, 2);
}

TEST_F(DurabilityTest, RecoveryReleasesLocksOfAbortedTxn) {
  SetUpCluster(2);
  // Construct the Fig. 7(a) scenario by hand: node 0 logged a lock-ahead
  // record and locked a remote record, then crashed before XEND.
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);
  const uint64_t state_off = entry + store::kEntryStateOffset;
  uint64_t observed;
  ASSERT_EQ(cluster_->fabric().Cas(1, state_off, kStateInit,
                                   MakeWriteLocked(0), &observed),
            rdma::OpStatus::kOk);
  const std::vector<LogLock> locks = {{1, table_, 1, state_off}};
  const auto payload = NvramLog::EncodeLocks(locks);
  ASSERT_TRUE(cluster_->log(0)->Append(0, LogType::kLockAhead, 777,
                                       payload.data(), payload.size()));

  cluster_->Crash(0);
  RecoveryManager recovery(cluster_.get());
  const auto report = recovery.Recover(0);
  EXPECT_EQ(report.aborted_txns, 1);
  EXPECT_EQ(report.released_locks, 1);
  EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit);
}

TEST_F(DurabilityTest, RecoveryRedoesCommittedTxn) {
  SetUpCluster(2);
  // Fig. 7(b): node 0's HTM committed (WAL durable) but it crashed before
  // writing back the remote update on node 1.
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);
  const uint64_t state_off = entry + store::kEntryStateOffset;
  uint64_t observed;
  ASSERT_EQ(cluster_->fabric().Cas(1, state_off, kStateInit,
                                   MakeWriteLocked(0), &observed),
            rdma::OpStatus::kOk);
  std::vector<uint8_t> wal;
  const uint64_t new_value = 4242;
  NvramLog::EncodeUpdate(&wal, LogUpdate{1, table_, 1, entry, 1, 8},
                         &new_value);
  ASSERT_TRUE(
      cluster_->log(0)->Append(0, LogType::kWriteAhead, 778, wal.data(),
                               wal.size()));

  cluster_->Crash(0);
  RecoveryManager recovery(cluster_.get());
  const auto report = recovery.Recover(0);
  EXPECT_EQ(report.committed_txns, 1);
  EXPECT_EQ(report.redone_updates, 1);
  EXPECT_EQ(report.released_locks, 1);
  uint64_t value = 0;
  ASSERT_TRUE(host->Get(1, &value));
  EXPECT_EQ(value, 4242u);
  EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit);
}

TEST_F(DurabilityTest, RecoverySkipsNewerVersions) {
  SetUpCluster(2);
  // The redo's version (1) is not newer than the record's current
  // version after a later committed write, so redo must be skipped.
  Worker worker(cluster_.get(), 0, 0);
  ASSERT_EQ(Transfer(&worker, 0, 1, 1), TxnStatus::kCommitted);  // version 1
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);
  std::vector<uint8_t> wal;
  const uint64_t stale_value = 1;
  NvramLog::EncodeUpdate(&wal, LogUpdate{1, table_, 1, entry, 1, 8},
                         &stale_value);
  ASSERT_TRUE(cluster_->log(0)->Append(0, LogType::kWriteAhead, 779,
                                       wal.data(), wal.size()));
  cluster_->Crash(0);
  RecoveryManager recovery(cluster_.get());
  const auto report = recovery.Recover(0);
  EXPECT_EQ(report.redone_updates, 0);
  uint64_t value = 0;
  ASSERT_TRUE(host->Get(1, &value));
  EXPECT_EQ(value, kInitialBalance + 1);
}

TEST_F(DurabilityTest, RecoverySkipsCompletedTxns) {
  SetUpCluster(2);
  Worker worker(cluster_.get(), 0, 0);
  ASSERT_EQ(Transfer(&worker, 0, 1, 25), TxnStatus::kCommitted);
  // The transaction wrote lock-ahead + WAL + complete; recovery must not
  // touch anything.
  cluster_->Crash(0);
  RecoveryManager recovery(cluster_.get());
  const auto report = recovery.Recover(0);
  EXPECT_EQ(report.committed_txns, 0);
  EXPECT_EQ(report.aborted_txns, 0);
  EXPECT_EQ(report.redone_updates, 0);
  uint64_t value = 0;
  ASSERT_TRUE(cluster_->hash_table(1, table_)->Get(1, &value));
  EXPECT_EQ(value, kInitialBalance + 25);
}

TEST_F(DurabilityTest, EndToEndCrashDuringWorkloadConservesMoney) {
  SetUpCluster(3);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> net_to_node2{0};  // committed amount into node-2 keys
  // Cluster::Crash only flips liveness flags: a worker thread of a
  // crashed node would keep committing while recovery runs. A dead
  // machine issues no transactions, so node 2's worker parks at the top
  // of its loop, and node 2 crashes only once it has parked. (Crashing
  // first and then waiting for its in-flight transfer can deadlock: the
  // transfer may wait on a survivor's lock whose write-back waits for
  // node 2 to come back.)
  std::atomic<bool> node2_down{false};
  std::atomic<bool> node2_parked{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Worker worker(cluster_.get(), t, 0);
      Xoshiro256 rng(31 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        if (t == 2 && node2_down.load()) {
          node2_parked.store(true);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        const uint64_t from = rng.NextBounded(kAccounts);
        uint64_t to = rng.NextBounded(kAccounts);
        if (to == from) {
          to = (to + 1) % kAccounts;
        }
        (void)Transfer(&worker, from, to, 1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  node2_down.store(true);
  while (!node2_parked.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster_->Crash(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Run recovery for node 2 while it is down (Fig. 7(a)/(b)), then
  // revive it and finish recovery against its own records. Surviving transactions that had already committed their HTM
  // region keep retrying their write-back until the node returns (case
  // (e)), so workers are only stopped after the revive.
  RecoveryManager recovery(cluster_.get());
  recovery.Recover(2);
  cluster_->Revive(2);
  recovery.Recover(2);
  node2_down.store(false);
  stop.store(true);
  for (auto& th : threads) {
    th.join();
  }
  (void)net_to_node2;

  // All locks must be clear and the money supply intact.
  uint64_t sum = 0;
  for (uint64_t k = 0; k < kAccounts; ++k) {
    store::ClusterHashTable* host =
        cluster_->hash_table(cluster_->PartitionOf(table_, k), table_);
    const uint64_t entry = host->FindEntry(k);
    ASSERT_NE(entry, store::kInvalidOffset);
    EXPECT_FALSE(IsWriteLocked(htm::StrongLoad(host->StatePtr(entry))))
        << "account " << k;
    uint64_t v = 0;
    ASSERT_TRUE(host->Get(k, &v));
    sum += v;
  }
  EXPECT_EQ(sum, kAccounts * kInitialBalance);
}


TEST_F(DurabilityTest, FailureDetectorSuspectsCrashedNode) {
  SetUpCluster(3);
  // The cluster must be running so softtime heartbeats advance.
  std::atomic<int> suspected_node{-1};
  txn::FailureDetector detector(
      cluster_.get(), /*poll_interval_us=*/500, /*timeout_us=*/20000,
      [&](int node) { suspected_node.store(node); });
  detector.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(suspected_node.load(), -1);  // everyone healthy
  EXPECT_FALSE(detector.IsSuspected(2));

  cluster_->Crash(2);
  // Heartbeats for node 2 stop advancing; detection within the timeout
  // plus some slack.
  for (int i = 0; i < 200 && suspected_node.load() == -1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(suspected_node.load(), 2);
  EXPECT_TRUE(detector.IsSuspected(2));
  EXPECT_FALSE(detector.IsSuspected(0));

  // Revive: the heartbeat resumes and the suspicion clears.
  cluster_->Revive(2);
  for (int i = 0; i < 200 && detector.IsSuspected(2); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(detector.IsSuspected(2));
  detector.Stop();
}

TEST_F(DurabilityTest, DetectorDrivenRecoveryClearsLocks) {
  SetUpCluster(3);
  // Node 0 locks a record on node 1 and "crashes" pre-commit; the
  // detector notices and drives recovery, Zookeeper-style.
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);
  const uint64_t state_off = entry + store::kEntryStateOffset;
  uint64_t observed;
  ASSERT_EQ(cluster_->fabric().Cas(1, state_off, kStateInit,
                                   MakeWriteLocked(0), &observed),
            rdma::OpStatus::kOk);
  const std::vector<LogLock> locks = {{1, table_, 1, state_off}};
  const auto payload = NvramLog::EncodeLocks(locks);
  ASSERT_TRUE(cluster_->log(0)->Append(0, LogType::kLockAhead, 555,
                                       payload.data(), payload.size()));

  std::atomic<bool> recovered{false};
  txn::RecoveryManager recovery(cluster_.get());
  txn::FailureDetector detector(
      cluster_.get(), 500, 20000, [&](int node) {
        recovery.Recover(node);
        recovered.store(true);
      });
  detector.Start();
  cluster_->Crash(0);
  for (int i = 0; i < 400 && !recovered.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  detector.Stop();
  ASSERT_TRUE(recovered.load());
  EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit);
}

// --- group commit: the durability point is the epoch flush ------------------

class GroupCommitTest : public DurabilityTest {
 protected:
  void SetUpGroupCommit(uint64_t flush_base_ns = 0,
                        size_t epoch_bytes = size_t{64} << 10) {
    ClusterConfig config;
    config.num_nodes = 1;
    config.workers_per_node = 2;
    config.region_bytes = 32 << 20;
    config.logging = true;
    config.group_commit = true;
    config.durability_epoch_bytes = epoch_bytes;
    // Keep the timer out of the way: the tests below seal explicitly.
    config.durability_epoch_us = 10'000'000;
    config.latency.flush_base_ns = flush_base_ns;
    SetUpClusterWith(config);
  }
};

TEST_F(GroupCommitTest, NoAckBeforeEpochFlush) {
  SetUpGroupCommit();
  NvramLog* log = cluster_->log(0);
  const char payload[] = "wal";
  ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, 7, payload,
                          sizeof(payload)));
  const uint64_t lsn = log->NoteCommit(0, 7);
  EXPECT_GT(lsn, 0u);
  // Committed at XEND but not durably acknowledged: the record sits in an
  // open epoch, so the durability frontier has not moved.
  log->Poll(0);
  EXPECT_EQ(log->DurableUpTo(0), 0u);
  // Sealing flushes the epoch; with the default free-flush model the
  // frontier covers the record immediately after.
  log->Externalize(0);
  log->WaitDurable(0, 7);
  EXPECT_GE(log->DurableUpTo(0), lsn);
}

TEST_F(GroupCommitTest, WaitDurableBlocksUntilCoveringFlush) {
  SetUpGroupCommit(/*flush_base_ns=*/2'000'000);
  NvramLog* log = cluster_->log(0);
  const char payload[] = "wal";
  ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, 9, payload,
                          sizeof(payload)));
  const uint64_t lsn = log->NoteCommit(0, 9);
  log->Externalize(0);
  // The flush is in flight for ~2ms; WaitDurable must not return before
  // the device retires it.
  log->WaitDurable(0, 9);
  EXPECT_GE(log->DurableUpTo(0), lsn);
}

TEST_F(GroupCommitTest, DurabilityFrontierIsMonotone) {
  SetUpGroupCommit();
  NvramLog* log = cluster_->log(0);
  const char payload[] = "wal";
  uint64_t last = 0;
  for (uint64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, id, payload,
                            sizeof(payload)));
    log->NoteCommit(0, id);
    if (id % 2 == 0) {
      log->Externalize(0);
      log->WaitDurable(0, id);
    }
    const uint64_t now = log->DurableUpTo(0);
    EXPECT_GE(now, last) << "frontier moved backwards at txn " << id;
    last = now;
  }
  EXPECT_GT(last, 0u);
}

TEST_F(GroupCommitTest, LocalOnlyCommitsBatchIntoOneEpoch) {
  SetUpGroupCommit();
  Worker worker(cluster_.get(), 0, 0);
  // Local-only transfers commit at XEND without sealing: all their WAL
  // records batch into the same open epoch.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(Transfer(&worker, 0, 1, 10), TxnStatus::kCommitted);
  }
  NvramLog* log = cluster_->log(0);
  EXPECT_GT(log->UsedBytes(0), 0u);
  EXPECT_EQ(log->DurableUpTo(0), 0u);
  // The explicit durability point catches the whole batch up at once.
  log->Externalize(0);
  log->Poll(0);
  EXPECT_GE(log->DurableUpTo(0), log->UsedBytes(0));
}

TEST_F(GroupCommitTest, ReclaimSpaceRecyclesCompletedEpochs) {
  SetUpGroupCommit();
  NvramLog* log = cluster_->log(0);
  const char payload[] = "wal";
  ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, 1, payload,
                          sizeof(payload)));
  ASSERT_TRUE(log->Append(0, LogType::kComplete, 1, nullptr, 0));
  log->Externalize(0);
  log->Poll(0);
  const uint64_t used_done = log->UsedBytes(0);
  ASSERT_GT(used_done, 0u);
  // Epoch 1's every transaction is complete — reclaimable.
  EXPECT_TRUE(log->ReclaimSpace(0));
  EXPECT_EQ(log->UsedBytes(0), 0u);

  // An epoch holding an unfinished transaction pins the tail.
  ASSERT_TRUE(log->Append(0, LogType::kWriteAhead, 2, payload,
                          sizeof(payload)));
  log->Externalize(0);
  log->Poll(0);
  const uint64_t used_pinned = log->UsedBytes(0);
  EXPECT_FALSE(log->ReclaimSpace(0));
  EXPECT_EQ(log->UsedBytes(0), used_pinned);
}

}  // namespace
}  // namespace txn
}  // namespace drtm
