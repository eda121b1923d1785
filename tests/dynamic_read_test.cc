// Tests for discovered (undeclared) read sets: Transaction::ReadDynamic
// in both HTM and fallback modes, and the chopping runtime's interaction
// with logging (chop-info records, section 4.6).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/store/kv_layout.h"
#include "src/txn/chopping.h"
#include "src/txn/cluster.h"
#include "src/txn/lock_state.h"
#include "src/txn/nvram_log.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace txn {
namespace {

class DynamicReadTest : public ::testing::Test {
 protected:
  void SetUpCluster(ClusterConfig config) {
    config.num_nodes = 2;
    config.workers_per_node = 1;
    config.region_bytes = 24 << 20;
    cluster_ = std::make_unique<Cluster>(config);
    TableSpec spec;
    spec.value_size = 8;
    spec.partition = [](uint64_t key) { return static_cast<int>(key % 2); };
    table_ = cluster_->AddTable(spec);
    cluster_->Start();
    for (uint64_t k = 0; k < 32; ++k) {
      const uint64_t v = k * 10;
      cluster_->hash_table(cluster_->PartitionOf(table_, k), table_)
          ->Insert(k, &v);
    }
  }
  void TearDown() override {
    if (cluster_ != nullptr) {
      cluster_->Stop();
    }
  }
  std::unique_ptr<Cluster> cluster_;
  int table_;
};

TEST_F(DynamicReadTest, HtmModeReadsUndeclaredLocalRecords) {
  SetUpCluster(ClusterConfig());
  Worker worker(cluster_.get(), 0, 0);
  Transaction txn(&worker);
  txn.AddRead(table_, 0);  // seed: at least one declared record
  uint64_t sum = 0;
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    uint64_t v;
    if (!t.Read(table_, 0, &v)) {
      return false;
    }
    sum = v;
    // Discovered reads: every local even key.
    for (uint64_t k = 2; k < 32; k += 2) {
      uint64_t dyn = 0;
      if (!t.ReadDynamic(table_, k, &dyn)) {
        return false;
      }
      sum += dyn;
    }
    return true;
  }),
            TxnStatus::kCommitted);
  uint64_t expect = 0;
  for (uint64_t k = 0; k < 32; k += 2) {
    expect += k * 10;
  }
  EXPECT_EQ(sum, expect);
}

TEST_F(DynamicReadTest, HtmModeMissingDynamicKeyReturnsFalse) {
  SetUpCluster(ClusterConfig());
  Worker worker(cluster_.get(), 0, 0);
  Transaction txn(&worker);
  txn.AddRead(table_, 0);
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    uint64_t v;
    t.Read(table_, 0, &v);
    uint64_t dyn = 0;
    EXPECT_FALSE(t.ReadDynamic(table_, 1000, &dyn));  // absent, local
    return true;
  }),
            TxnStatus::kCommitted);
}

TEST_F(DynamicReadTest, FallbackModeLeasesDynamicReads) {
  ClusterConfig config;
  config.htm_retry_limit = 0;  // force fallback
  SetUpCluster(config);
  Worker worker(cluster_.get(), 0, 0);
  Transaction txn(&worker);
  txn.AddWrite(table_, 0);
  uint64_t seen = 0;
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    EXPECT_TRUE(t.in_fallback());
    uint64_t v;
    if (!t.Read(table_, 0, &v)) {
      return false;
    }
    uint64_t dyn = 0;
    if (!t.ReadDynamic(table_, 2, &dyn)) {
      return false;
    }
    seen = dyn;
    ++v;
    return t.Write(table_, 0, &v);
  }),
            TxnStatus::kCommitted);
  EXPECT_EQ(seen, 20u);
  uint64_t v = 0;
  cluster_->hash_table(0, table_)->Get(0, &v);
  EXPECT_EQ(v, 1u);
}

TEST_F(DynamicReadTest, FallbackDynamicReadsConsistentWithWriters) {
  // Two records on node 0 are always kept equal by a local writer; a
  // fallback transaction reading one declared + one dynamic must never
  // observe a mixed pair (the dynamic lease is confirmed pre-apply).
  ClusterConfig config;
  config.htm_retry_limit = 0;
  config.lease_rw_us = 2000;
  SetUpCluster(config);
  // The pair starts equal too: a reader that commits before the writer's
  // first commit must see key 0's initial value in key 2 as well.
  const uint64_t initial = 0;
  ASSERT_TRUE(cluster_->hash_table(0, table_)->Put(2, &initial));
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};

  std::thread writer([&] {
    Worker worker(cluster_.get(), 0, 0);
    uint64_t v = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Transaction txn(&worker);
      txn.AddWrite(table_, 0);
      txn.AddWrite(table_, 2);
      ++v;
      const uint64_t value = v;
      (void)txn.Run([&](Transaction& t) {
        return t.Write(table_, 0, &value) && t.Write(table_, 2, &value);
      });
    }
  });
  std::thread reader([&] {
    Worker worker(cluster_.get(), 0, 0);  // same node, different thread
    while (!stop.load(std::memory_order_acquire)) {
      Transaction txn(&worker);
      txn.AddRead(table_, 0);
      uint64_t a = 0;
      uint64_t b = 0;
      const TxnStatus status = txn.Run([&](Transaction& t) {
        if (!t.Read(table_, 0, &a)) {
          return false;
        }
        return t.ReadDynamic(table_, 2, &b);
      });
      if (status == TxnStatus::kCommitted && a != b) {
        torn.store(true);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  writer.join();
  reader.join();
  EXPECT_FALSE(torn.load());
}

TEST_F(DynamicReadTest, FallbackReconfirmsSharedDeclaredLeaseAfterBody) {
  // A fallback reader shares a declared lease that ends long before its
  // own attempt's leases would. The lease expires mid-body, a writer
  // commits both keys, and the reader then reads the second key
  // dynamically: the post-body confirmation must cover the shared
  // declared lease too, or the reader commits the torn pair {0, 777}.
  ClusterConfig config;
  config.htm_retry_limit = 0;
  config.lease_rw_us = 40000;
  SetUpCluster(config);
  // The softtime word is stale right after Start().
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const uint64_t state_off =
      cluster_->hash_table(0, table_)->FindEntry(0) + store::kEntryStateOffset;
  const uint64_t now = cluster_->synctime().ReadStrong(0);
  uint64_t observed = 0;
  ASSERT_EQ(cluster_->fabric().Cas(0, state_off, kStateInit,
                                   MakeLease(now + 8000), &observed),
            rdma::OpStatus::kOk);
  ASSERT_EQ(observed, kStateInit);

  std::atomic<bool> reader_in_body{false};
  std::atomic<bool> writer_done{false};
  auto wait_for = [](const std::atomic<bool>& flag) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  std::thread writer([&] {
    wait_for(reader_in_body);
    Worker worker(cluster_.get(), 1, 0);
    Transaction txn(&worker);
    txn.AddWrite(table_, 0);
    txn.AddWrite(table_, 2);
    const uint64_t value = 777;
    EXPECT_EQ(txn.Run([&](Transaction& t) {
      return t.Write(table_, 0, &value) && t.Write(table_, 2, &value);
    }),
              TxnStatus::kCommitted);
    writer_done.store(true);
  });
  Worker worker(cluster_.get(), 0, 0);
  Transaction txn(&worker);
  txn.AddRead(table_, 0);
  uint64_t a = 0;
  uint64_t b = 0;
  const TxnStatus status = txn.Run([&](Transaction& t) {
    if (!t.Read(table_, 0, &a)) {
      return false;
    }
    reader_in_body.store(true);
    wait_for(writer_done);
    return t.ReadDynamic(table_, 2, &b);
  });
  writer.join();
  ASSERT_EQ(status, TxnStatus::kCommitted);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, 777u);
}

TEST_F(DynamicReadTest, ChoppedTransactionLogsChopInfo) {
  ClusterConfig config;
  config.logging = true;
  SetUpCluster(config);
  Worker worker(cluster_.get(), 0, 0);
  ChoppedTransaction chain;
  for (int piece = 0; piece < 3; ++piece) {
    const uint64_t key = static_cast<uint64_t>(piece) * 2;  // node 0
    chain.AddPiece(
        [this, key](Transaction& t) { t.AddWrite(table_, key); },
        [this, key](Transaction& t) {
          uint64_t v;
          if (!t.Read(table_, key, &v)) {
            return false;
          }
          ++v;
          return t.Write(table_, key, &v);
        });
  }
  ASSERT_EQ(chain.Run(&worker), TxnStatus::kCommitted);
  // One remaining-piece record {i, total} ahead of each piece plus the
  // final {total, total} chain-complete marker, all sharing the chain id,
  // with ascending piece indices.
  int chop_records = 0;
  uint64_t chain_id = 0;
  cluster_->log(0)->ForEach([&](int, const LogRecord& record) {
    if (record.type != LogType::kChopInfo) {
      return;
    }
    uint32_t piece = 0;
    uint32_t total = 0;
    ASSERT_GE(record.payload.size(), 8u);
    std::memcpy(&piece, record.payload.data(), 4);
    std::memcpy(&total, record.payload.data() + 4, 4);
    if (chop_records == 0) {
      chain_id = record.txn_id;
    } else {
      EXPECT_EQ(record.txn_id, chain_id);
    }
    EXPECT_EQ(piece, static_cast<uint32_t>(chop_records));
    EXPECT_EQ(total, 3u);
    ++chop_records;
  });
  EXPECT_EQ(chop_records, 4);
}

}  // namespace
}  // namespace txn
}  // namespace drtm
