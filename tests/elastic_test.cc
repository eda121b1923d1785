// Elastic serving tier tests: routing-table semantics, live shard
// migration under traffic (conservation + mid-migration oracle), and
// location-cache invalidation across an ownership flip.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/elastic/migration.h"
#include "src/elastic/routing.h"
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

}  // namespace
}  // namespace elastic
}  // namespace drtm
