// Elastic serving tier tests: routing-table semantics, live shard
// migration under traffic (conservation + mid-migration oracle),
// location-cache invalidation across an ownership flip, admission
// control shedding, hot-key tracking / read-lease replicas, and the
// send-queue outstanding-window gauge.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/elastic/admission.h"
#include "src/elastic/hotkey.h"
#include "src/elastic/migration.h"
#include "src/elastic/routing.h"
#include "src/rdma/phase_scatter.h"
#include "src/stat/metrics.h"
#include "src/store/kv_layout.h"
#include "src/txn/cluster.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace elastic {
namespace {

using txn::Cluster;
using txn::ClusterConfig;
using txn::TableSpec;
using txn::Transaction;
using txn::TxnStatus;
using txn::Worker;

constexpr uint64_t kKeys = 256;
constexpr uint64_t kInitialBalance = 1000;

ClusterConfig SmallConfig(int nodes) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.workers_per_node = 2;
  config.region_bytes = 32 << 20;
  return config;
}

class ElasticTest : public ::testing::Test {
 protected:
  void SetUpCluster(int nodes, uint32_t routing_buckets = 64) {
    routing_ = std::make_unique<RoutingTable>(routing_buckets, nodes);
    cluster_ = std::make_unique<Cluster>(SmallConfig(nodes));
    TableSpec spec;
    spec.value_size = 8;
    spec.main_buckets = 1 << 8;
    spec.capacity = 1 << 12;
    spec.partition = routing_->PartitionFn();
    table_ = cluster_->AddTable(spec);
    cluster_->Start();
    for (uint64_t k = 0; k < kKeys; ++k) {
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
        return true;
      }
      a -= amount;
      b += amount;
      return t.Write(table_, from, &a) && t.Write(table_, to, &b);
    });
  }

  uint64_t StrongBalance(uint64_t key) {
    uint64_t out = 0;
    EXPECT_TRUE(
        cluster_->hash_table(cluster_->PartitionOf(table_, key), table_)
            ->Get(key, &out))
        << "key " << key;
    return out;
  }

  uint64_t TotalBalance() {
    uint64_t sum = 0;
    for (uint64_t k = 0; k < kKeys; ++k) {
      sum += StrongBalance(k);
    }
    return sum;
  }

  std::unique_ptr<RoutingTable> routing_;
  std::unique_ptr<Cluster> cluster_;
  int table_ = -1;
};

TEST(RoutingTableTest, OwnershipFreezeAndEpoch) {
  RoutingTable routing(16, 4);
  for (uint32_t b = 0; b < 16; ++b) {
    EXPECT_EQ(routing.OwnerOfBucket(b), static_cast<int>(b % 4));
    EXPECT_FALSE(routing.FrozenBucket(b));
  }
  const uint64_t key = 0xdeadbeef;
  const uint32_t bucket = routing.BucketOf(key);
  EXPECT_EQ(routing.OwnerOf(key), routing.OwnerOfBucket(bucket));

  routing.Freeze(bucket);
  EXPECT_TRUE(routing.Frozen(key));
  routing.SetOwner(bucket, 3);
  EXPECT_EQ(routing.OwnerOf(key), 3);
  EXPECT_TRUE(routing.Frozen(key)) << "flip must preserve the frozen bit";
  routing.Unfreeze(bucket);
  EXPECT_FALSE(routing.Frozen(key));

  const uint64_t before = routing.epoch();
  routing.BumpEpoch();
  EXPECT_EQ(routing.epoch(), before + 1);
  stat::Registry& reg = stat::Registry::Global();
  EXPECT_EQ(reg.GaugeValue(reg.GaugeId("elastic.routing.epoch")),
            static_cast<int64_t>(before + 1));

  auto fn = routing.PartitionFn();
  EXPECT_EQ(fn(key), 3);
  const size_t expected_owned = 4 + (bucket % 4 == 3 ? 0 : 1);
  EXPECT_EQ(routing.BucketsOwnedBy(3).size(), expected_owned);
}

TEST_F(ElasticTest, MigrationUnderTrafficConservesMoney) {
  SetUpCluster(2);
  MigrationEngine engine(cluster_.get(), routing_.get());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Worker worker(cluster_.get(), t % 2, t / 2);
      uint64_t x = 0x9e3779b9u * (t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t from = (x >> 17) % kKeys;
        const uint64_t to = (x >> 41) % kKeys;
        if (from == to) {
          continue;
        }
        if (Transfer(&worker, from, to, 1 + (x & 7)) ==
            TxnStatus::kCommitted) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Let traffic build, then move a slice of node 0's buckets to node 1.
  SpinFor(2'000'000);
  std::vector<uint32_t> owned = routing_->BucketsOwnedBy(0);
  ASSERT_GE(owned.size(), 6u);
  MigrationPlan plan;
  plan.table = table_;
  plan.source = 0;
  plan.dest = 1;
  plan.buckets.assign(owned.begin(), owned.begin() + 6);

  bool oracle_ran = false;
  MigrationReport report = engine.Migrate(plan, [&] {
    // Quiescent point: every plan-bucket key must hold identical bytes
    // on both sides before the flip.
    oracle_ran = true;
    for (uint64_t k = 0; k < kKeys; ++k) {
      bool in_plan = false;
      for (uint32_t b : plan.buckets) {
        in_plan |= routing_->BucketOf(k) == b;
      }
      if (!in_plan) {
        continue;
      }
      uint64_t src_val = 0;
      uint64_t dst_val = 0;
      ASSERT_TRUE(cluster_->hash_table(0, table_)->Get(k, &src_val));
      ASSERT_TRUE(cluster_->hash_table(1, table_)->Get(k, &dst_val));
      EXPECT_EQ(src_val, dst_val) << "key " << k;
    }
  });

  stop.store(true);
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(oracle_ran);
  EXPECT_GT(report.moved_keys, 0u);
  EXPECT_GT(committed.load(), 0u);
  for (uint32_t b : plan.buckets) {
    EXPECT_EQ(routing_->OwnerOfBucket(b), 1);
    EXPECT_FALSE(routing_->FrozenBucket(b));
  }
  // Moved keys route to — and live only on — the destination.
  for (uint64_t k = 0; k < kKeys; ++k) {
    bool in_plan = false;
    for (uint32_t b : plan.buckets) {
      in_plan |= routing_->BucketOf(k) == b;
    }
    if (in_plan) {
      EXPECT_EQ(cluster_->PartitionOf(table_, k), 1);
      EXPECT_EQ(cluster_->hash_table(0, table_)->FindEntry(k),
                store::kInvalidOffset);
    }
  }
  // Conservation: transfers moved money around, never created it.
  EXPECT_EQ(TotalBalance(), kKeys * kInitialBalance);
  // Post-migration traffic touching moved keys still commits.
  Worker worker(cluster_.get(), 0, 0);
  uint64_t moved_key = kKeys;
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (cluster_->PartitionOf(table_, k) == 1) {
      moved_key = k;
      break;
    }
  }
  ASSERT_LT(moved_key, kKeys);
  EXPECT_EQ(Transfer(&worker, moved_key, (moved_key + 1) % kKeys, 1),
            TxnStatus::kCommitted);
}

TEST_F(ElasticTest, OwnershipFlipInvalidatesLocationCaches) {
  SetUpCluster(3);
  // Pick a key homed on node 0 and a client on node 2.
  uint64_t key = kKeys;
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (cluster_->PartitionOf(table_, k) == 0) {
      key = k;
      break;
    }
  }
  ASSERT_LT(key, kKeys);

  // Prime cache(2, 0) with the key's header bucket via a remote RO read.
  Worker client(cluster_.get(), 2, 0);
  {
    txn::ReadOnlyTransaction ro(&client);
    ro.AddRead(table_, key);
    ASSERT_EQ(ro.Execute(), TxnStatus::kCommitted);
    uint64_t v = 0;
    ASSERT_TRUE(ro.Get(table_, key, &v));
    ASSERT_EQ(v, kInitialBalance);
  }
  const uint64_t bucket_off =
      cluster_->hash_table(0, table_)->geometry().MainBucketOffset(key);
  store::LocationCache* cache = cluster_->cache(2, 0);
  ASSERT_NE(cache, nullptr);
  store::Bucket cached;
  ASSERT_TRUE(cache->Lookup(bucket_off, &cached))
      << "RO read should have installed the header bucket";

  // Migrate the key's routing bucket from node 0 to node 1.
  MigrationEngine engine(cluster_.get(), routing_.get());
  MigrationPlan plan;
  plan.table = table_;
  plan.source = 0;
  plan.dest = 1;
  plan.buckets = {routing_->BucketOf(key)};
  const MigrationReport report = engine.Migrate(plan);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.cache_inval_acks, 2);  // every node but the source

  // The stale hint must be gone: a lookup misses and the next access
  // refetches from the new owner instead of reading node 0's memory.
  EXPECT_FALSE(cache->Lookup(bucket_off, &cached));

  // Write a new value through the txn layer (now homed on node 1), then
  // read it back from node 2: the client must observe the new owner's
  // value — the old owner no longer even holds the key.
  Worker writer(cluster_.get(), 1, 0);
  const uint64_t new_value = 424242;
  Transaction txn(&writer);
  txn.AddWrite(table_, key);
  ASSERT_EQ(txn.Run([&](Transaction& t) {
              return t.Write(table_, key, &new_value);
            }),
            TxnStatus::kCommitted);

  txn::ReadOnlyTransaction ro(&client);
  ro.AddRead(table_, key);
  ASSERT_EQ(ro.Execute(), TxnStatus::kCommitted);
  uint64_t observed = 0;
  ASSERT_TRUE(ro.Get(table_, key, &observed));
  EXPECT_EQ(observed, new_value);
  EXPECT_EQ(cluster_->hash_table(0, table_)->FindEntry(key),
            store::kInvalidOffset);
}

TEST_F(ElasticTest, AdmissionControlShedsWhenDrained) {
  SetUpCluster(1);
  AdmissionConfig config;
  config.burst = 4.0;
  config.base_rate_per_us = 1e-9;  // effectively no refill in-test
  AdmissionController admission(cluster_.get(), 0, config);
  int admitted = 0;
  int shed = 0;
  for (int i = 0; i < 16; ++i) {
    (admission.Admit() ? admitted : shed)++;
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(shed, 12);
  EXPECT_EQ(admission.admitted(), 4u);
  EXPECT_EQ(admission.shed(), 12u);
  EXPECT_GE(admission.LastOverload(), 1.0);
  stat::Registry& reg = stat::Registry::Global();
  EXPECT_LE(reg.GaugeValue(reg.GaugeId("elastic.admission.tokens")), 4);
}

TEST(HotKeyTrackerTest, ZipfHotKeysFloatToTheTop) {
  HotKeyTracker tracker(8);
  for (int round = 0; round < 100; ++round) {
    tracker.RecordRead(0, 7);  // the hot key
    tracker.RecordRead(0, static_cast<uint64_t>(100 + round));  // cold tail
    if (round % 2 == 0) {
      tracker.RecordWrite(0, 9);
    }
  }
  const auto reads = tracker.TopReads(3);
  ASSERT_FALSE(reads.empty());
  EXPECT_EQ(reads[0].key, 7u);
  EXPECT_GE(reads[0].count, 100u);

  const auto writes = tracker.TopWrites(1);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].key, 9u);

  RoutingTable routing(16, 2);
  const auto candidates = MigrationCandidateBuckets(tracker, routing, 4);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0], routing.BucketOf(9));
}

TEST_F(ElasticTest, ReadLeaseReplicaServesUntilLeaseExpiry) {
  SetUpCluster(2);
  uint64_t key = kKeys;
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (cluster_->PartitionOf(table_, k) == 1) {
      key = k;
      break;
    }
  }
  ASSERT_LT(key, kKeys);

  Worker client(cluster_.get(), 0, 0);
  ReadLeaseReplica replica(cluster_.get(), 0);
  uint64_t value = 0;
  uint64_t lease_end = 0;
  {
    txn::ReadOnlyTransaction ro(&client);
    ro.AddRead(table_, key);
    ASSERT_EQ(ro.Execute(), TxnStatus::kCommitted);
    ASSERT_TRUE(ro.Get(table_, key, &value));
    lease_end = ro.LeaseEndOf(table_, key);
  }
  ASSERT_GT(lease_end, 0u);
  replica.Publish(table_, key, &value, sizeof(value), lease_end);

  uint64_t served = 0;
  EXPECT_TRUE(replica.TryServe(table_, key, &served, sizeof(served)));
  EXPECT_EQ(served, value);
  EXPECT_GE(replica.hits(), 1u);

  // Wait out the lease (plus DELTA): the replica must stop serving.
  const uint64_t delta = cluster_->config().delta_us;
  while (cluster_->synctime().ReadStrong(0) + delta <= lease_end) {
    SpinFor(200'000);
  }
  EXPECT_FALSE(replica.TryServe(table_, key, &served, sizeof(served)));
  EXPECT_GE(replica.misses(), 1u);
}

TEST(SendQueueOccupancyTest, OutstandingWindowGaugeTracksWqes) {
  rdma::Fabric::Config config;
  config.num_nodes = 2;
  config.region_bytes = 1 << 20;
  rdma::Fabric fabric(config);
  const int64_t base = rdma::OutstandingForTarget(1);

  uint64_t scratch = 0;
  rdma::PhaseScatter scatter(fabric);
  for (int i = 0; i < 5; ++i) {
    scatter.PostRead(1, i, 0, &scratch, sizeof(scratch));
  }
  EXPECT_EQ(rdma::OutstandingForTarget(1), base + 5);
  std::vector<rdma::Completion> comps;
  scatter.Gather(&comps);
  EXPECT_EQ(rdma::OutstandingForTarget(1), base);
  stat::Registry& reg = stat::Registry::Global();
  EXPECT_EQ(reg.GaugeValue(reg.GaugeId("rdma.sendq.outstanding")), base);

  // Abandoned WQEs refund their occupancy at destruction.
  {
    rdma::PhaseScatter leaky(fabric);
    leaky.PostRead(1, 0, 0, &scratch, sizeof(scratch));
    EXPECT_EQ(rdma::OutstandingForTarget(1), base + 1);
  }
  EXPECT_EQ(rdma::OutstandingForTarget(1), base);
}

}  // namespace
}  // namespace elastic
}  // namespace drtm
