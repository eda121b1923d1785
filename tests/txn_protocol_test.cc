// Protocol tests for DrTM transactions: local/distributed commits, lease
// behaviour, the Table 2 conflict matrix, fallback, read-only
// transactions, and chopping.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "src/chaos/fault_plan.h"
#include "src/chaos/injector.h"
#include "src/htm/htm.h"
#include "src/stat/metrics.h"
#include "src/store/kv_layout.h"
#include "src/txn/chopping.h"
#include "src/txn/cluster.h"
#include "src/txn/lock_state.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace txn {
namespace {

ClusterConfig SmallConfig(int nodes) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.workers_per_node = 2;
  config.region_bytes = 32 << 20;
  return config;
}

class TxnProtocolTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kAccounts = 64;
  static constexpr uint64_t kInitialBalance = 1000;

  // With `tree`, also registers an ordered table hosted on node 0 and
  // returns its id there.
  void SetUpCluster(ClusterConfig config, int* tree = nullptr) {
    cluster_ = std::make_unique<Cluster>(config);
    TableSpec spec;
    spec.value_size = 8;
    spec.main_buckets = 1 << 8;
    spec.capacity = 1 << 12;
    const int nodes = config.num_nodes;
    spec.partition = [nodes](uint64_t key) {
      return static_cast<int>(key % static_cast<uint64_t>(nodes));
    };
    table_ = cluster_->AddTable(spec);
    if (tree != nullptr) {
      TableSpec ordered;
      ordered.value_size = 8;
      ordered.ordered = true;
      ordered.partition = [](uint64_t) { return 0; };
      *tree = cluster_->AddTable(ordered);
    }
    cluster_->Start();
    // Load: each account on its home node.
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

  uint64_t StrongBalance(uint64_t key) {
    uint64_t out = 0;
    EXPECT_TRUE(
        cluster_->hash_table(cluster_->PartitionOf(table_, key), table_)
            ->Get(key, &out));
    return out;
  }

  uint64_t TotalBalance() {
    uint64_t sum = 0;
    for (uint64_t k = 0; k < kAccounts; ++k) {
      sum += StrongBalance(k);
    }
    return sum;
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
      if (a < amount) {
        return true;  // no-op commit
      }
      a -= amount;
      b += amount;
      return t.Write(table_, from, &a) && t.Write(table_, to, &b);
    });
  }

  // What a global-registry counter gained since `before`.
  static uint64_t Gained(const stat::Snapshot& before, const char* name) {
    return stat::Registry::Global().TakeSnapshot().DeltaSince(before).Counter(
        name);
  }

  std::unique_ptr<Cluster> cluster_;
  int table_ = -1;
};

TEST_F(TxnProtocolTest, LocalTransactionCommits) {
  SetUpCluster(SmallConfig(1));
  Worker worker(cluster_.get(), 0, 0);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  EXPECT_EQ(Transfer(&worker, 1, 2, 100), TxnStatus::kCommitted);
  EXPECT_EQ(StrongBalance(1), kInitialBalance - 100);
  EXPECT_EQ(StrongBalance(2), kInitialBalance + 100);
  EXPECT_EQ(Gained(before, "txn.commit"), 1u);
}

TEST_F(TxnProtocolTest, DistributedTransactionCommits) {
  SetUpCluster(SmallConfig(2));
  Worker worker(cluster_.get(), 0, 0);
  // Account 0 is local to node 0; account 1 lives on node 1.
  EXPECT_EQ(Transfer(&worker, 0, 1, 250), TxnStatus::kCommitted);
  EXPECT_EQ(StrongBalance(0), kInitialBalance - 250);
  EXPECT_EQ(StrongBalance(1), kInitialBalance + 250);
}

TEST_F(TxnProtocolTest, RemoteWriteBumpsVersionAndUnlocks) {
  SetUpCluster(SmallConfig(2));
  Worker worker(cluster_.get(), 0, 0);
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);
  const uint32_t version_before = *host->VersionPtr(entry);
  ASSERT_EQ(Transfer(&worker, 0, 1, 10), TxnStatus::kCommitted);
  EXPECT_EQ(*host->VersionPtr(entry), version_before + 1);
  EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit);
}

TEST_F(TxnProtocolTest, ReadDeclaredMissingKeyReturnsFalse) {
  SetUpCluster(SmallConfig(2));
  Worker worker(cluster_.get(), 0, 0);
  Transaction txn(&worker);
  txn.AddRead(table_, 500);  // never inserted; lives on node 0
  txn.AddRead(table_, 501);  // never inserted; lives on node 1
  const TxnStatus status = txn.Run([&](Transaction& t) {
    uint64_t v;
    EXPECT_FALSE(t.Read(table_, 500, &v));
    EXPECT_FALSE(t.Read(table_, 501, &v));
    return true;
  });
  EXPECT_EQ(status, TxnStatus::kCommitted);
}

TEST_F(TxnProtocolTest, UserAbortDiscardsEverything) {
  SetUpCluster(SmallConfig(2));
  Worker worker(cluster_.get(), 0, 0);
  Transaction txn(&worker);
  txn.AddWrite(table_, 0);
  txn.AddWrite(table_, 1);
  const TxnStatus status = txn.Run([&](Transaction& t) {
    const uint64_t v = 1;
    t.Write(table_, 0, &v);
    t.Write(table_, 1, &v);
    return false;  // user abort
  });
  EXPECT_EQ(status, TxnStatus::kUserAbort);
  EXPECT_EQ(StrongBalance(0), kInitialBalance);
  EXPECT_EQ(StrongBalance(1), kInitialBalance);
  // Locks released.
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  EXPECT_EQ(htm::StrongLoad(host->StatePtr(host->FindEntry(1))), kStateInit);
}

TEST_F(TxnProtocolTest, RemoteReadTakesLease) {
  SetUpCluster(SmallConfig(2));
  Worker worker(cluster_.get(), 0, 0);
  Transaction txn(&worker);
  txn.AddRead(table_, 1);
  uint64_t observed_state = 0;
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  const TxnStatus status = txn.Run([&](Transaction& t) {
    uint64_t v = 0;
    EXPECT_TRUE(t.Read(table_, 1, &v));
    EXPECT_EQ(v, kInitialBalance);
    observed_state = htm::StrongLoad(host->StatePtr(entry));
    return true;
  });
  EXPECT_EQ(status, TxnStatus::kCommitted);
  EXPECT_TRUE(HasLease(observed_state));
  EXPECT_FALSE(IsWriteLocked(observed_state));
  // The image rode behind the lease CAS: no separate prefetch round.
  EXPECT_EQ(Gained(before, "rdma.scatter.prefetch.rounds"), 0u);
}

TEST_F(TxnProtocolTest, ReadersShareALease) {
  // A lease long enough that a slow (sanitizer) build cannot outlive its
  // shareable window between the two readers: past it, the second reader
  // would renew the lease with a CAS instead of sharing it.
  auto config = SmallConfig(2);
  config.lease_rw_us = 40000;
  SetUpCluster(config);
  // First reader installs a lease; a concurrent reader shares it (no
  // second CAS is needed: the state word keeps the original end time).
  Worker w1(cluster_.get(), 0, 0);
  Worker w2(cluster_.get(), 0, 1);
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);

  Transaction t1(&w1);
  t1.AddRead(table_, 1);
  ASSERT_EQ(t1.Run([&](Transaction& t) {
    uint64_t v;
    return t.Read(table_, 1, &v);
  }),
            TxnStatus::kCommitted);
  const uint64_t state_after_first = htm::StrongLoad(host->StatePtr(entry));
  ASSERT_TRUE(HasLease(state_after_first));

  Transaction t2(&w2);
  t2.AddRead(table_, 1);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  ASSERT_EQ(t2.Run([&](Transaction& t) {
    uint64_t v = 0;
    EXPECT_TRUE(t.Read(table_, 1, &v));
    EXPECT_EQ(v, kInitialBalance);
    return true;
  }),
            TxnStatus::kCommitted);
  // With the location cache warm, each Start attempt of the second
  // reader (one, unless an HTM abort retries it) is one doorbell: its
  // probe with the image READ behind it. It shares the lease without a
  // CAS and posts nothing else.
  const uint64_t rounds = Gained(before, "rdma.scatter.start_lock.rounds");
  EXPECT_GE(rounds, 1u);
  EXPECT_EQ(Gained(before, "rdma.batch.doorbells"), rounds);
  EXPECT_EQ(Gained(before, "rdma.scatter.start_lock.wqes"), 2 * rounds);
  EXPECT_EQ(Gained(before, "rdma.cas.ops"), 0u);
  const uint64_t state_after_second = htm::StrongLoad(host->StatePtr(entry));
  EXPECT_EQ(LeaseEnd(state_after_second), LeaseEnd(state_after_first));
}

TEST_F(TxnProtocolTest, WriterBlockedByUnexpiredLeaseEventuallyCommits) {
  auto config = SmallConfig(2);
  config.lease_rw_us = 3000;
  SetUpCluster(config);
  Worker reader(cluster_.get(), 0, 0);
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);

  // Install a lease via a remote read.
  Transaction t1(&reader);
  t1.AddRead(table_, 1);
  ASSERT_EQ(t1.Run([&](Transaction& t) {
    uint64_t v;
    return t.Read(table_, 1, &v);
  }),
            TxnStatus::kCommitted);
  ASSERT_TRUE(HasLease(htm::StrongLoad(host->StatePtr(entry))));

  // A remote writer must wait out the lease but then commit (the Run loop
  // retries Start-phase conflicts).
  // It may or may not meet a start-phase conflict, but commits once.
  Worker writer(cluster_.get(), 0, 1);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  EXPECT_EQ(Transfer(&writer, 0, 1, 10), TxnStatus::kCommitted);
  EXPECT_EQ(Gained(before, "txn.commit"), 1u);
  EXPECT_EQ(StrongBalance(1), kInitialBalance + 10);
}

TEST_F(TxnProtocolTest, LocalHtmAbortsOnRemoteLockThenRecovers) {
  SetUpCluster(SmallConfig(2));
  // Manually write-lock account 0 (home: node 0) as if node 1 held it.
  store::ClusterHashTable* host = cluster_->hash_table(0, table_);
  const uint64_t entry = host->FindEntry(0);
  uint64_t observed = 0;
  ASSERT_EQ(cluster_->fabric().Cas(0, entry + store::kEntryStateOffset,
                                   kStateInit, MakeWriteLocked(1), &observed),
            rdma::OpStatus::kOk);

  std::atomic<bool> done{false};
  std::thread unlocker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t init = kStateInit;
    cluster_->fabric().Write(0, entry + store::kEntryStateOffset, &init, 8);
    done.store(true);
  });

  // A purely local transaction on node 0 touching account 0 must abort
  // (LOCAL_WRITE sees the lock) until the "remote" holder releases.
  Worker worker(cluster_.get(), 0, 0);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  EXPECT_EQ(Transfer(&worker, 0, 2, 5), TxnStatus::kCommitted);
  EXPECT_TRUE(done.load());
  unlocker.join();
  EXPECT_EQ(StrongBalance(0), kInitialBalance - 5);
  // The transaction observed the lock: either HTM lock-aborts or the
  // fallback path waited it out.
  EXPECT_GE(Gained(before, "txn.lock_abort") + Gained(before, "txn.fallback"),
            1u);
}

TEST_F(TxnProtocolTest, SerializableUnderConcurrencyAcrossNodes) {
  auto config = SmallConfig(3);
  SetUpCluster(config);
  constexpr int kThreads = 6;
  constexpr int kTransfersPerThread = 300;
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Worker worker(cluster_.get(), t % 3, t / 3);
      Xoshiro256 rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kTransfersPerThread; ++i) {
        const uint64_t from = rng.NextBounded(kAccounts);
        uint64_t to = rng.NextBounded(kAccounts);
        if (to == from) {
          to = (to + 1) % kAccounts;
        }
        if (Transfer(&worker, from, to, 1 + rng.NextBounded(5)) ==
            TxnStatus::kCommitted) {
          committed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(committed.load(),
            static_cast<uint64_t>(kThreads) * kTransfersPerThread);
  EXPECT_EQ(TotalBalance(), kAccounts * kInitialBalance);
}

TEST_F(TxnProtocolTest, ReadOnlySeesConsistentSnapshots) {
  SetUpCluster(SmallConfig(2));
  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};

  std::thread observer([&] {
    Worker worker(cluster_.get(), 1, 0);
    while (!stop.load(std::memory_order_acquire)) {
      ReadOnlyTransaction ro(&worker);
      ro.AddRead(table_, 0);
      ro.AddRead(table_, 1);
      ro.AddRead(table_, 2);
      ro.AddRead(table_, 3);
      if (ro.Execute() != TxnStatus::kCommitted) {
        continue;
      }
      uint64_t sum = 0;
      for (uint64_t k = 0; k < 4; ++k) {
        uint64_t v = 0;
        ASSERT_TRUE(ro.Get(table_, k, &v));
        sum += v;
      }
      if (sum != 4 * kInitialBalance) {
        violated.store(true);
      }
    }
  });

  Worker worker(cluster_.get(), 0, 0);
  Xoshiro256 rng(5);
  for (int i = 0; i < 400; ++i) {
    const uint64_t from = rng.NextBounded(4);
    const uint64_t to = (from + 1 + rng.NextBounded(3)) % 4;
    ASSERT_EQ(Transfer(&worker, from, to, 1), TxnStatus::kCommitted);
  }
  stop.store(true);
  observer.join();
  EXPECT_FALSE(violated.load());
}

TEST_F(TxnProtocolTest, ReadOnlyMissingKey) {
  SetUpCluster(SmallConfig(2));
  Worker worker(cluster_.get(), 0, 0);
  ReadOnlyTransaction ro(&worker);
  ro.AddRead(table_, 0);
  ro.AddRead(table_, 9999);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  ASSERT_EQ(ro.Execute(), TxnStatus::kCommitted);
  uint64_t v = 0;
  EXPECT_TRUE(ro.Get(table_, 0, &v));
  EXPECT_EQ(v, kInitialBalance);
  EXPECT_FALSE(ro.Get(table_, 9999, &v));
  // The only READs are the missing remote key's lookup: the local key's
  // image is a strong CPU read, not a loopback READ.
  EXPECT_EQ(Gained(before, "rdma.read.ops"),
            Gained(before, "rdma.scatter.lookup.wqes"));
}

TEST_F(TxnProtocolTest, FallbackOnlyModeStillSerializable) {
  auto config = SmallConfig(2);
  config.htm_retry_limit = 0;  // every transaction goes straight to 2PL
  SetUpCluster(config);
  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 150;
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Worker worker(cluster_.get(), t % 2, t / 2);
      Xoshiro256 rng(99 + static_cast<uint64_t>(t));
      for (int i = 0; i < kTransfersPerThread; ++i) {
        const uint64_t from = rng.NextBounded(kAccounts);
        uint64_t to = rng.NextBounded(kAccounts);
        if (to == from) {
          to = (to + 1) % kAccounts;
        }
        ASSERT_EQ(Transfer(&worker, from, to, 1), TxnStatus::kCommitted);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(TotalBalance(), kAccounts * kInitialBalance);
  // Every transfer went through the fallback exactly once.
  EXPECT_EQ(Gained(before, "txn.fallback"),
            uint64_t{kThreads} * kTransfersPerThread);
}

TEST_F(TxnProtocolTest, NoReadLeaseModeStillSerializable) {
  auto config = SmallConfig(2);
  config.enable_read_lease = false;  // Fig. 17 ablation: reads lock
  SetUpCluster(config);
  Worker worker(cluster_.get(), 0, 0);
  Transaction txn(&worker);
  txn.AddRead(table_, 1);
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);
  uint64_t state_during = 0;
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    uint64_t v;
    EXPECT_TRUE(t.Read(table_, 1, &v));
    state_during = htm::StrongLoad(host->StatePtr(entry));
    return true;
  }),
            TxnStatus::kCommitted);
  // Without leases, a remote *read* holds the exclusive lock.
  EXPECT_TRUE(IsWriteLocked(state_during));
  EXPECT_EQ(htm::StrongLoad(host->StatePtr(entry)), kStateInit);
}

TEST_F(TxnProtocolTest, GlobAtomicityModeWorks) {
  auto config = SmallConfig(2);
  config.atomic_level = rdma::AtomicLevel::kGlob;
  config.htm_retry_limit = 0;  // exercise local-CAS path in the fallback
  SetUpCluster(config);
  Worker worker(cluster_.get(), 0, 0);
  EXPECT_EQ(Transfer(&worker, 0, 2, 7), TxnStatus::kCommitted);
  EXPECT_EQ(Transfer(&worker, 0, 1, 7), TxnStatus::kCommitted);
  EXPECT_EQ(TotalBalance(), kAccounts * kInitialBalance);
}

TEST_F(TxnProtocolTest, InsertAndRemoveInsideTransaction) {
  SetUpCluster(SmallConfig(2));
  Worker worker(cluster_.get(), 0, 0);
  {
    Transaction txn(&worker);
    const TxnStatus status = txn.Run([&](Transaction& t) {
      const uint64_t v = 42;
      return t.Insert(table_, 1000, &v);  // key 1000 -> node 0 (local)
    });
    ASSERT_EQ(status, TxnStatus::kCommitted);
  }
  EXPECT_EQ(StrongBalance(1000), 42u);
  {
    Transaction txn(&worker);
    ASSERT_EQ(txn.Run([&](Transaction& t) { return t.Remove(table_, 1000); }),
              TxnStatus::kCommitted);
  }
  uint64_t v;
  EXPECT_FALSE(cluster_->hash_table(0, table_)->Get(1000, &v));
}

TEST_F(TxnProtocolTest, OrderedTableOpsInsideTransaction) {
  auto config = SmallConfig(1);
  SetUpCluster(config);
  TableSpec ordered;
  ordered.value_size = 8;
  ordered.ordered = true;
  ordered.partition = [](uint64_t) { return 0; };
  // AddTable after Start is not allowed; rebuild the cluster.
  cluster_->Stop();
  cluster_ = std::make_unique<Cluster>(config);
  TableSpec spec;
  spec.value_size = 8;
  spec.partition = [](uint64_t) { return 0; };
  table_ = cluster_->AddTable(spec);
  const int tree = cluster_->AddTable(ordered);
  cluster_->Start();
  const uint64_t balance = kInitialBalance;
  cluster_->hash_table(0, table_)->Insert(0, &balance);

  Worker worker(cluster_.get(), 0, 0);
  Transaction txn(&worker);
  txn.AddWrite(table_, 0);
  const TxnStatus status = txn.Run([&](Transaction& t) {
    uint64_t seq = 0;
    if (!t.Read(table_, 0, &seq)) {
      return false;
    }
    for (uint64_t i = 0; i < 5; ++i) {
      const uint64_t payload = seq + i;
      if (!t.OrderedInsert(tree, 100 + i, &payload)) {
        return false;
      }
    }
    const uint64_t next = seq + 5;
    return t.Write(table_, 0, &next);
  });
  ASSERT_EQ(status, TxnStatus::kCommitted);
  size_t rows = 0;
  cluster_->ordered_table(0, tree)->Scan(100, 104, [&](uint64_t, const void*) {
    ++rows;
    return true;
  });
  EXPECT_EQ(rows, 5u);
  EXPECT_EQ(StrongBalance(0), kInitialBalance + 5);
}

TEST_F(TxnProtocolTest, ChoppedTransactionRunsAllPieces) {
  SetUpCluster(SmallConfig(2));
  Worker worker(cluster_.get(), 0, 0);
  ChoppedTransaction chopped;
  chopped.AddPiece(
      [&](Transaction& t) { t.AddWrite(table_, 0); },
      [&](Transaction& t) {
        uint64_t v;
        if (!t.Read(table_, 0, &v)) {
          return false;
        }
        v -= 100;
        return t.Write(table_, 0, &v);
      });
  chopped.AddPiece(
      [&](Transaction& t) { t.AddWrite(table_, 1); },
      [&](Transaction& t) {
        uint64_t v;
        if (!t.Read(table_, 1, &v)) {
          return false;
        }
        v += 100;
        return t.Write(table_, 1, &v);
      });
  EXPECT_EQ(chopped.piece_count(), 2u);
  ASSERT_EQ(chopped.Run(&worker), TxnStatus::kCommitted);
  EXPECT_EQ(StrongBalance(0), kInitialBalance - 100);
  EXPECT_EQ(StrongBalance(1), kInitialBalance + 100);
}

TEST_F(TxnProtocolTest, ChoppedFirstPieceMayUserAbort) {
  // Two inputs: one node without logging, and two logged nodes where the
  // chain locks the record its second piece writes remotely. The aborted
  // chain must close what it logged, or its records pin log truncation.
  for (const bool logged : {false, true}) {
    SCOPED_TRACE(logged ? "2 nodes, logging" : "1 node");
    if (cluster_ != nullptr) {
      cluster_->Stop();
    }
    ClusterConfig config = SmallConfig(logged ? 2 : 1);
    config.logging = logged;
    SetUpCluster(config);
    Worker worker(cluster_.get(), 0, 0);
    ChoppedTransaction chopped;
    if (logged) {
      chopped.AddChainLock(table_, 1);
    }
    chopped.AddPiece([&](Transaction& t) { t.AddWrite(table_, 0); },
                     [&](Transaction&) { return false; });
    chopped.AddPiece([&](Transaction& t) { t.AddWrite(table_, 1); },
                     [&](Transaction& t) {
                       const uint64_t v = 0;
                       return t.Write(table_, 1, &v);
                     });
    EXPECT_EQ(chopped.Run(&worker), TxnStatus::kUserAbort);
    EXPECT_EQ(StrongBalance(1), kInitialBalance);  // second piece never ran
    if (logged) {
      NvramLog* log = cluster_->log(0);
      log->Externalize(0);
      log->Poll(0);
      log->ReclaimSpace(0);
      EXPECT_EQ(log->UsedBytes(0), 0u);
    }
  }
}

TEST_F(TxnProtocolTest, NodeFailureSurfacesAndLocksReleased) {
  SetUpCluster(SmallConfig(2));
  cluster_->Crash(1);
  Worker worker(cluster_.get(), 0, 0);
  EXPECT_EQ(Transfer(&worker, 0, 1, 10), TxnStatus::kNodeFailure);
  // The local account must be untouched and unlocked.
  EXPECT_EQ(StrongBalance(0), kInitialBalance);
  cluster_->Revive(1);
  EXPECT_EQ(Transfer(&worker, 0, 1, 10), TxnStatus::kCommitted);
}

TEST_F(TxnProtocolTest, FailedLookupReadOnLiveNodeIsNodeFailure) {
  // A chain READ that fails against a live node leaves the key's
  // presence unknown. Read as "absent", the body would see a present
  // record missing and user-abort; the failure must surface as
  // kNodeFailure instead, like any other failed verb.
  SetUpCluster(SmallConfig(2));
  Worker worker(cluster_.get(), 0, 0);
  chaos::FaultPlan plan;
  plan.Add(chaos::FaultEvent{"rdma.read.wqe", 1, chaos::FaultKind::kDropOp,
                             -1, 0});
  chaos::Injector::Global().Arm(plan);
  const TxnStatus status = Transfer(&worker, 0, 1, 10);
  chaos::Injector::Global().Disarm();
  EXPECT_EQ(status, TxnStatus::kNodeFailure);
  EXPECT_TRUE(cluster_->fabric().IsAlive(1));
  EXPECT_EQ(Transfer(&worker, 0, 1, 10), TxnStatus::kCommitted);
  EXPECT_EQ(StrongBalance(1), kInitialBalance + 10);
}

TEST_F(TxnProtocolTest, DroppedImageReadBehindALockIsReadAgain) {
  // A worker on node 1 locks key 0 on node 0. A zero-filled image would
  // pass key 0's header check, so a dropped image READ must leave the
  // record for Prefetch to read again, never hand the body that image.
  SetUpCluster(SmallConfig(2));
  Worker worker(cluster_.get(), 1, 0);
  // Warm the location cache, so the next transfer's first READ is the
  // image behind key 0's lock CAS.
  ASSERT_EQ(Transfer(&worker, 1, 0, 10), TxnStatus::kCommitted);
  chaos::FaultPlan plan;
  plan.Add(chaos::FaultEvent{"rdma.read.wqe", 1, chaos::FaultKind::kDropOp,
                             -1, 0});
  chaos::Injector::Global().Arm(plan);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  const TxnStatus status = Transfer(&worker, 1, 0, 10);
  chaos::Injector::Global().Disarm();
  ASSERT_EQ(status, TxnStatus::kCommitted);
  EXPECT_EQ(Gained(before, "rdma.scatter.prefetch.rounds"), 1u);
  EXPECT_EQ(StrongBalance(0), kInitialBalance + 20);
  EXPECT_EQ(StrongBalance(1), kInitialBalance - 20);
}

TEST_F(TxnProtocolTest, FallbackWaitsOutAHeldLock) {
  auto config = SmallConfig(2);
  config.htm_retry_limit = 0;  // every transaction uses the 2PL fallback
  SetUpCluster(config);
  // Write-lock the remote account as if another machine held it; the
  // fallback's ordered acquisition must wait the holder out and commit.
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t entry = host->FindEntry(1);
  uint64_t observed = 0;
  ASSERT_EQ(cluster_->fabric().Cas(1, entry + store::kEntryStateOffset,
                                   kStateInit, MakeWriteLocked(7), &observed),
            rdma::OpStatus::kOk);

  std::thread unlocker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t init = kStateInit;
    cluster_->fabric().Write(1, entry + store::kEntryStateOffset, &init, 8);
  });
  Worker worker(cluster_.get(), 0, 0);
  EXPECT_EQ(Transfer(&worker, 0, 1, 10), TxnStatus::kCommitted);
  unlocker.join();

  // Uncontended, the next fallback commits without waiting.
  EXPECT_EQ(Transfer(&worker, 0, 1, 10), TxnStatus::kCommitted);
  EXPECT_EQ(StrongBalance(1), kInitialBalance + 20);
}

TEST_F(TxnProtocolTest, FallbackWritesBackInOneScatterRound) {
  // The fallback commits through the HTM path's write-back: the local
  // image lands by a strong write, and the remote image plus both
  // unlocks ride one overlapped scatter round, not one WRITE at a time.
  auto config = SmallConfig(2);
  config.htm_retry_limit = 0;
  SetUpCluster(config);
  Worker worker(cluster_.get(), 0, 0);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  ASSERT_EQ(Transfer(&worker, 0, 1, 10), TxnStatus::kCommitted);
  EXPECT_EQ(Gained(before, "txn.fallback"), 1u);
  EXPECT_EQ(Gained(before, "rdma.scatter.writeback.rounds"), 1u);
  // Past the remote key's lookup, one READ: the remote image. The local
  // image is a strong CPU read.
  EXPECT_EQ(Gained(before, "rdma.read.ops") -
                Gained(before, "rdma.scatter.lookup.wqes"),
            1u);
  EXPECT_EQ(StrongBalance(0), kInitialBalance - 10);
  EXPECT_EQ(StrongBalance(1), kInitialBalance + 10);
  for (uint64_t k = 0; k <= 1; ++k) {
    store::ClusterHashTable* host = cluster_->hash_table(
        cluster_->PartitionOf(table_, k), table_);
    EXPECT_EQ(htm::StrongLoad(host->StatePtr(host->FindEntry(k))),
              kStateInit)
        << "key " << k << " still locked";
  }
}

// Records every structural op reported to the elastic hooks, and whether
// the op had already landed in the table when it was reported.
class RecordingHooks : public Cluster::ElasticHooks {
 public:
  struct Call {
    int table;
    uint64_t key;
    bool inserted;
    bool landed;
  };

  explicit RecordingHooks(Cluster* cluster) : cluster_(cluster) {}

  void OnStructuralOp(int node, int table, uint64_t key, bool inserted,
                      const void*, uint32_t) override {
    uint64_t value = 0;
    const bool present = cluster_->hash_table(node, table)->Get(key, &value);
    std::lock_guard<std::mutex> guard(mu_);
    calls_.push_back(Call{table, key, inserted, present == inserted});
  }

  std::vector<Call> calls() {
    std::lock_guard<std::mutex> guard(mu_);
    return calls_;
  }

 private:
  Cluster* cluster_;
  std::mutex mu_;
  std::vector<Call> calls_;
};

// Runs, on the 2PL fallback, a body that buffers every kind of local
// structural op — a hash Insert and Remove, an OrderedInsert, an
// OrderedPut over an existing row and an OrderedRemove — and ends with
// `commit`. Nothing may be applied or reported before the body returns.
TxnStatus RunStructuralOpsInFallback(Worker* worker, int table, int tree,
                                     RecordingHooks* hooks, bool commit) {
  Transaction txn(worker);
  txn.AddWrite(table, 0);
  return txn.Run([&](Transaction& t) {
    EXPECT_TRUE(t.in_fallback());
    const uint64_t value = 42;
    EXPECT_TRUE(t.Insert(table, 1000, &value));
    EXPECT_TRUE(t.Remove(table, 1));
    EXPECT_TRUE(t.OrderedInsert(tree, 100, &value));
    EXPECT_TRUE(t.OrderedPut(tree, 7, &value));
    EXPECT_TRUE(t.OrderedRemove(tree, 8));
    uint64_t row = 0;
    EXPECT_FALSE(t.OrderedGet(tree, 100, &row));  // buffered, not applied
    EXPECT_TRUE(hooks->calls().empty());
    return commit && t.Write(table, 0, &value);
  });
}

TEST_F(TxnProtocolTest, FallbackAppliesBufferedStructuralOpsAtCommit) {
  auto config = SmallConfig(1);
  config.htm_retry_limit = 0;
  int tree = -1;
  SetUpCluster(config, &tree);
  const uint64_t old_row = 5;
  ASSERT_TRUE(cluster_->ordered_table(0, tree)->Insert(7, &old_row));
  ASSERT_TRUE(cluster_->ordered_table(0, tree)->Insert(8, &old_row));
  RecordingHooks hooks(cluster_.get());
  cluster_->SetElasticHooks(&hooks);
  cluster_->DrainTxnWindows();
  Worker worker(cluster_.get(), 0, 0);
  const TxnStatus status =
      RunStructuralOpsInFallback(&worker, table_, tree, &hooks, true);
  cluster_->SetElasticHooks(nullptr);
  cluster_->DrainTxnWindows();
  ASSERT_EQ(status, TxnStatus::kCommitted);

  EXPECT_EQ(StrongBalance(0), 42u);
  EXPECT_EQ(StrongBalance(1000), 42u);
  uint64_t row = 0;
  EXPECT_FALSE(cluster_->hash_table(0, table_)->Get(1, &row));
  store::BPlusTree* ordered = cluster_->ordered_table(0, tree);
  ASSERT_TRUE(ordered->Get(100, &row));
  EXPECT_EQ(row, 42u);
  ASSERT_TRUE(ordered->Get(7, &row));
  EXPECT_EQ(row, 42u);
  EXPECT_FALSE(ordered->Get(8, &row));

  // Only the two hash kinds reach the hooks, in buffer order, each after
  // it landed.
  const std::vector<RecordingHooks::Call> calls = hooks.calls();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].table, table_);
  EXPECT_EQ(calls[0].key, 1000u);
  EXPECT_TRUE(calls[0].inserted);
  EXPECT_TRUE(calls[0].landed);
  EXPECT_EQ(calls[1].table, table_);
  EXPECT_EQ(calls[1].key, 1u);
  EXPECT_FALSE(calls[1].inserted);
  EXPECT_TRUE(calls[1].landed);
}

TEST_F(TxnProtocolTest, UserAbortedFallbackAppliesNoStructuralOps) {
  auto config = SmallConfig(1);
  config.htm_retry_limit = 0;
  int tree = -1;
  SetUpCluster(config, &tree);
  const uint64_t old_row = 5;
  ASSERT_TRUE(cluster_->ordered_table(0, tree)->Insert(7, &old_row));
  ASSERT_TRUE(cluster_->ordered_table(0, tree)->Insert(8, &old_row));
  RecordingHooks hooks(cluster_.get());
  cluster_->SetElasticHooks(&hooks);
  cluster_->DrainTxnWindows();
  Worker worker(cluster_.get(), 0, 0);
  const TxnStatus status =
      RunStructuralOpsInFallback(&worker, table_, tree, &hooks, false);
  cluster_->SetElasticHooks(nullptr);
  cluster_->DrainTxnWindows();
  ASSERT_EQ(status, TxnStatus::kUserAbort);

  EXPECT_EQ(StrongBalance(0), kInitialBalance);
  EXPECT_EQ(StrongBalance(1), kInitialBalance);
  uint64_t row = 0;
  EXPECT_FALSE(cluster_->hash_table(0, table_)->Get(1000, &row));
  store::BPlusTree* ordered = cluster_->ordered_table(0, tree);
  EXPECT_FALSE(ordered->Get(100, &row));
  ASSERT_TRUE(ordered->Get(7, &row));
  EXPECT_EQ(row, old_row);
  EXPECT_TRUE(ordered->Get(8, &row));
  EXPECT_TRUE(hooks.calls().empty());
}

TEST_F(TxnProtocolTest, SymmetricCrossNodeConflictsAreDeadlockFree) {
  // Two workers on different nodes hammer the same two cross-node
  // accounts in opposite directions. Each declares them in the opposite
  // order, so a hold-and-wait in declaration order would deadlock; the
  // fallback's acquisition in global <table, key> order must not. A hang
  // here (ctest timeout) is the failure mode.
  auto config = SmallConfig(2);
  config.htm_retry_limit = 0;
  SetUpCluster(config);
  constexpr int kIters = 200;
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Worker worker(cluster_.get(), t, 0);
      const uint64_t from = static_cast<uint64_t>(t);
      const uint64_t to = static_cast<uint64_t>(1 - t);
      for (int i = 0; i < kIters; ++i) {
        if (Transfer(&worker, from, to, 1) == TxnStatus::kCommitted) {
          committed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(committed.load(), 2u * kIters);
  EXPECT_EQ(StrongBalance(0) + StrongBalance(1), 2 * kInitialBalance);
  EXPECT_EQ(TotalBalance(), kAccounts * kInitialBalance);
}

TEST_F(TxnProtocolTest, NodeDeathMidScatterSurfacesFailure) {
  // Crash the remote node while a worker is continuously running
  // distributed fallback transactions, so the death lands mid-scatter
  // (lookup, lock, or prefetch round). The gather must surface
  // kNodeFailure without hanging and with local locks released.
  auto config = SmallConfig(2);
  config.htm_retry_limit = 0;  // every phase rides the fallback scatters
  SetUpCluster(config);
  Worker warm(cluster_.get(), 0, 0);
  ASSERT_EQ(Transfer(&warm, 0, 1, 5), TxnStatus::kCommitted);

  std::atomic<bool> stop{false};
  std::atomic<bool> saw_failure{false};
  std::thread driver([&] {
    Worker worker(cluster_.get(), 0, 1);
    while (!stop.load(std::memory_order_acquire)) {
      const TxnStatus status = Transfer(&worker, 0, 1, 1);
      if (status == TxnStatus::kNodeFailure) {
        saw_failure.store(true);
      } else {
        EXPECT_EQ(status, TxnStatus::kCommitted);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cluster_->Crash(1);
  for (int i = 0; i < 5000 && !saw_failure.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  driver.join();
  EXPECT_TRUE(saw_failure.load());

  // The local half of the aborted transaction must be unlocked.
  store::ClusterHashTable* local_host = cluster_->hash_table(0, table_);
  EXPECT_EQ(
      htm::StrongLoad(local_host->StatePtr(local_host->FindEntry(0))),
      kStateInit);

  // Recovery: revive the node and clear any lock word the crash stranded
  // (the recovery manager's job in the paper), then commit again.
  cluster_->Revive(1);
  store::ClusterHashTable* host = cluster_->hash_table(1, table_);
  const uint64_t init = kStateInit;
  ASSERT_EQ(cluster_->fabric().Write(
                1, host->FindEntry(1) + store::kEntryStateOffset, &init, 8),
            rdma::OpStatus::kOk);
  EXPECT_EQ(Transfer(&warm, 0, 1, 5), TxnStatus::kCommitted);
}

}  // namespace
}  // namespace txn
}  // namespace drtm
