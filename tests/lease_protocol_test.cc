// Lease protocol state-machine tests (paper sections 4.2/4.3): sharing,
// renewal, expiry stealing, writer waiting, DELTA's indeterminate zone,
// and clock-skew behaviour — exercised through the Transaction layer
// with direct inspection of the state word.
#include <gtest/gtest.h>

#include <thread>

#include "src/common/clock.h"
#include "src/htm/htm.h"
#include "src/stat/metrics.h"
#include "src/store/kv_layout.h"
#include "src/txn/cluster.h"
#include "src/txn/lock_state.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace txn {
namespace {

class LeaseProtocolTest : public ::testing::Test {
 protected:
  void SetUpCluster(ClusterConfig config) {
    config.num_nodes = 2;
    config.workers_per_node = 1;
    config.region_bytes = 16 << 20;
    cluster_ = std::make_unique<Cluster>(config);
    TableSpec spec;
    spec.value_size = 8;
    spec.partition = [](uint64_t key) { return static_cast<int>(key % 2); };
    table_ = cluster_->AddTable(spec);
    cluster_->Start();
    // Lease ends derive from softtime: wait for the timer thread's first
    // tick, which under parallel load can come milliseconds after Start.
    const uint64_t started = cluster_->synctime().ReadStrong(1);
    while (cluster_->synctime().ReadStrong(1) == started) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const uint64_t v = 1;
    // Record 0 lives on node 0; accessed remotely from node 1.
    cluster_->hash_table(0, table_)->Insert(0, &v);
    host_ = cluster_->hash_table(0, table_);
    entry_ = host_->FindEntry(0);
  }
  void TearDown() override {
    if (cluster_ != nullptr) {
      cluster_->Stop();
    }
  }

  uint64_t State() { return htm::StrongLoad(host_->StatePtr(entry_)); }

  TxnStatus RemoteRead(Worker* worker, uint64_t* lease_end_out = nullptr) {
    Transaction txn(worker);
    txn.AddRead(table_, 0);
    const TxnStatus status = txn.Run([&](Transaction& t) {
      uint64_t v;
      return t.Read(table_, 0, &v);
    });
    if (lease_end_out != nullptr) {
      *lease_end_out = LeaseEnd(State());
    }
    return status;
  }

  std::unique_ptr<Cluster> cluster_;
  int table_;
  store::ClusterHashTable* host_;
  uint64_t entry_;
};

TEST_F(LeaseProtocolTest, FirstReaderInstallsLease) {
  ClusterConfig config;
  SetUpCluster(config);
  Worker reader(cluster_.get(), 1, 0);
  uint64_t end = 0;
  ASSERT_EQ(RemoteRead(&reader, &end), TxnStatus::kCommitted);
  EXPECT_TRUE(HasLease(State()));
  const uint64_t now = cluster_->synctime().ReadStrong(1);
  EXPECT_GT(end, now);
  EXPECT_LE(end, now + cluster_->config().lease_rw_us + 10000);
}

TEST_F(LeaseProtocolTest, SecondReaderSharesWithoutNewEnd) {
  ClusterConfig config;
  config.lease_rw_us = 200000;  // long: the second read lands well inside
  SetUpCluster(config);
  Worker reader(cluster_.get(), 1, 0);
  uint64_t end1 = 0;
  uint64_t end2 = 0;
  ASSERT_EQ(RemoteRead(&reader, &end1), TxnStatus::kCommitted);
  ASSERT_EQ(RemoteRead(&reader, &end2), TxnStatus::kCommitted);
  EXPECT_EQ(end1, end2) << "sharing must keep the original end time";
}

TEST_F(LeaseProtocolTest, NearlyExpiredLeaseIsRenewed) {
  ClusterConfig config;
  config.lease_rw_us = 30000;
  config.delta_us = 500;
  config.softtime_interval_us = 200;
  SetUpCluster(config);
  Worker reader(cluster_.get(), 1, 0);
  uint64_t end1 = 0;
  ASSERT_EQ(RemoteRead(&reader, &end1), TxnStatus::kCommitted);
  // Wait until softtime itself is 1 ms inside the renewal margin (a
  // fixed sleep can land short of it when the timer thread lags under
  // load). Softtime is monotonic, so the next Start sees at least this.
  const uint64_t margin = 2 * config.delta_us + config.lease_rw_us / 8;
  while (cluster_->synctime().ReadStrong(1) + margin < end1 + 1000) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  uint64_t end2 = 0;
  ASSERT_EQ(RemoteRead(&reader, &end2), TxnStatus::kCommitted);
  EXPECT_GT(end2, end1) << "a nearly-expired lease must be renewed";
}

TEST_F(LeaseProtocolTest, ExpiredLeaseIsStolenByWriter) {
  ClusterConfig config;
  config.lease_rw_us = 2000;
  config.delta_us = 300;
  SetUpCluster(config);
  Worker reader(cluster_.get(), 1, 0);
  ASSERT_EQ(RemoteRead(&reader), TxnStatus::kCommitted);
  ASSERT_TRUE(HasLease(State()));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // expire
  // A remote writer takes the record despite the (expired) lease.
  Worker writer(cluster_.get(), 1, 0);
  Transaction txn(&writer);
  txn.AddWrite(table_, 0);
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    uint64_t v;
    if (!t.Read(table_, 0, &v)) {
      return false;
    }
    ++v;
    return t.Write(table_, 0, &v);
  }),
            TxnStatus::kCommitted);
  EXPECT_EQ(State(), kStateInit);  // unlocked after write-back
  uint64_t value = 0;
  host_->Get(0, &value);
  EXPECT_EQ(value, 2u);
}

TEST_F(LeaseProtocolTest, WriterWaitsOutLeaseViaRetries) {
  ClusterConfig config;
  config.lease_rw_us = 20000;  // 20 ms
  config.delta_us = 500;
  SetUpCluster(config);
  Worker reader(cluster_.get(), 1, 0);
  ASSERT_EQ(RemoteRead(&reader), TxnStatus::kCommitted);
  const uint64_t t0 = MonotonicNanos();
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  Worker writer(cluster_.get(), 1, 0);
  Transaction txn(&writer);
  txn.AddWrite(table_, 0);
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    uint64_t v;
    if (!t.Read(table_, 0, &v)) {
      return false;
    }
    ++v;
    return t.Write(table_, 0, &v);
  }),
            TxnStatus::kCommitted);
  const uint64_t waited_us = (MonotonicNanos() - t0) / 1000;
  // The writer could not commit before the lease expired.
  EXPECT_GE(waited_us, 10000u);
  EXPECT_GE(stat::Registry::Global()
                .TakeSnapshot()
                .DeltaSince(before)
                .Counter("txn.start_conflict"),
            1u);
}

TEST_F(LeaseProtocolTest, SkewedClockWithinDeltaStaysSerializable) {
  ClusterConfig config;
  config.lease_rw_us = 10000;
  config.delta_us = 2000;  // generous DELTA absorbing the injected skew
  SetUpCluster(config);
  cluster_->synctime().SetSkew(1, -1000);  // node 1 runs 1 ms behind
  cluster_->synctime().PublishNow();

  // Reader from node 1 (slow clock) leases; writer on node 0's clock must
  // still respect the lease (DELTA covers the skew).
  Worker reader(cluster_.get(), 1, 0);
  ASSERT_EQ(RemoteRead(&reader), TxnStatus::kCommitted);
  Worker writer(cluster_.get(), 1, 0);
  Transaction txn(&writer);
  txn.AddWrite(table_, 0);
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    uint64_t v;
    if (!t.Read(table_, 0, &v)) {
      return false;
    }
    ++v;
    return t.Write(table_, 0, &v);
  }),
            TxnStatus::kCommitted);
  uint64_t value = 0;
  host_->Get(0, &value);
  EXPECT_EQ(value, 2u);
}

TEST_F(LeaseProtocolTest, ReadOnlyLeasesAllowConcurrentReaders) {
  ClusterConfig config;
  config.lease_ro_us = 100000;
  SetUpCluster(config);
  const uint64_t v = 5;
  cluster_->hash_table(1, table_)->Insert(1, &v);

  // Two read-only transactions from different nodes read both records
  // concurrently; both commit (shared leases everywhere).
  stat::Registry& reg = stat::Registry::Global();
  const stat::Snapshot before = reg.TakeSnapshot();
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Worker worker(cluster_.get(), t, 0);
      for (int i = 0; i < 50; ++i) {
        ReadOnlyTransaction ro(&worker);
        ro.AddRead(table_, 0);
        ro.AddRead(table_, 1);
        if (ro.Execute() == TxnStatus::kCommitted) {
          uint64_t a = 0;
          uint64_t b = 0;
          EXPECT_TRUE(ro.Get(table_, 0, &a));
          EXPECT_TRUE(ro.Get(table_, 1, &b));
          ++committed;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(committed.load(), 100);
  // Each attempt, committed or retried, times its lease acquisition once.
  const stat::Snapshot delta = reg.TakeSnapshot().DeltaSince(before);
  const Histogram* lease_wait = delta.Hist("phase.lease_wait_ns");
  ASSERT_NE(lease_wait, nullptr);
  EXPECT_EQ(lease_wait->count(), delta.Counter("txn.readonly.commit") +
                                     delta.Counter("txn.readonly.retry"));
  EXPECT_GE(lease_wait->count(), 100u);
}

TEST_F(LeaseProtocolTest, OwnerIdSurvivesInLockWord) {
  ClusterConfig config;
  SetUpCluster(config);
  // Take an exclusive lock "from node 1" and verify the owner bits (used
  // by recovery, section 4.6) carry the machine id.
  uint64_t observed = 0;
  ASSERT_EQ(cluster_->fabric().Cas(0, entry_ + store::kEntryStateOffset,
                                   kStateInit, MakeWriteLocked(1), &observed),
            rdma::OpStatus::kOk);
  const uint64_t state = State();
  EXPECT_TRUE(IsWriteLocked(state));
  EXPECT_EQ(LockOwner(state), 1);
  htm::StrongStore(host_->StatePtr(entry_), kStateInit);
}

}  // namespace
}  // namespace txn
}  // namespace drtm
