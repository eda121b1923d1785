#include "src/workload/ycsb.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/workload/driver.h"

namespace drtm {
namespace workload {
namespace {

txn::ClusterConfig TestConfig(int nodes) {
  txn::ClusterConfig config;
  config.num_nodes = nodes;
  config.workers_per_node = 2;
  config.region_bytes = 48 << 20;
  return config;
}

class YcsbTest : public ::testing::Test {
 protected:
  void SetUpYcsb(int nodes, YcsbDb::Params params) {
    cluster_ = std::make_unique<txn::Cluster>(TestConfig(nodes));
    db_ = std::make_unique<YcsbDb>(cluster_.get(), params);
    cluster_->Start();
    db_->Load();
  }
  void TearDown() override {
    if (cluster_ != nullptr) {
      cluster_->Stop();
    }
  }
  std::unique_ptr<txn::Cluster> cluster_;
  std::unique_ptr<YcsbDb> db_;
};

TEST_F(YcsbTest, LoadPopulatesAllPartitions) {
  YcsbDb::Params params;
  params.records_per_node = 500;
  SetUpYcsb(2, params);
  EXPECT_EQ(db_->total_records(), 1000u);
  std::vector<uint8_t> out(params.value_size);
  EXPECT_TRUE(cluster_->hash_table(0, db_->table())->Get(0, out.data()));
  EXPECT_TRUE(cluster_->hash_table(1, db_->table())->Get(1, out.data()));
  EXPECT_TRUE(cluster_->hash_table(1, db_->table())->Get(999, out.data()));
}

TEST_F(YcsbTest, WorkloadCReadsAlwaysCommitViaReadOnlyPath) {
  YcsbDb::Params params;
  params.records_per_node = 500;
  params.mix = YcsbDb::Mix::kC;
  SetUpYcsb(2, params);
  txn::Worker worker(cluster_.get(), 0, 0);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  for (int i = 0; i < 200; ++i) {
    const auto result = db_->RunTxn(&worker);
    EXPECT_TRUE(result.committed);
    EXPECT_TRUE(result.was_read_only);
  }
  EXPECT_GE(stat::Registry::Global()
                .TakeSnapshot()
                .DeltaSince(before)
                .Counter("txn.readonly.commit"),
            200u);
}

TEST_F(YcsbTest, WorkloadAUpdatesStick) {
  YcsbDb::Params params;
  params.records_per_node = 200;
  params.mix = YcsbDb::Mix::kA;
  params.distribution = YcsbDb::Distribution::kUniform;
  SetUpYcsb(2, params);
  txn::Worker worker(cluster_.get(), 0, 0);
  int committed = 0;
  for (int i = 0; i < 300; ++i) {
    committed += db_->RunTxn(&worker).committed ? 1 : 0;
  }
  EXPECT_EQ(committed, 300);
  // Writes actually happened somewhere: with 50% updates over 300 ops the
  // probability of zero modified first bytes is negligible.
  int modified = 0;
  std::vector<uint8_t> out(params.value_size);
  for (uint64_t k = 0; k < db_->total_records(); ++k) {
    cluster_->hash_table(cluster_->PartitionOf(db_->table(), k), db_->table())
        ->Get(k, out.data());
    if (out[0] != static_cast<uint8_t>(k & 0xff)) {
      ++modified;
    }
  }
  EXPECT_GT(modified, 0);
}

TEST_F(YcsbTest, MultiOpTransactionsAreAtomic) {
  YcsbDb::Params params;
  params.records_per_node = 100;
  params.mix = YcsbDb::Mix::kA;
  params.ops_per_txn = 4;
  SetUpYcsb(3, params);
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      txn::Worker worker(cluster_.get(), t, 0);
      for (int i = 0; i < 150; ++i) {
        if (db_->RunTxn(&worker).committed) {
          committed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(committed.load(), 450u);
}

TEST_F(YcsbTest, ZipfSkewConcentratesOnHotKeys) {
  YcsbDb::Params params;
  params.records_per_node = 5000;
  params.mix = YcsbDb::Mix::kC;
  params.distribution = YcsbDb::Distribution::kZipfian;
  SetUpYcsb(1, params);
  // Sample keys through the internal picker indirectly: run transactions
  // and observe that hot keys commit fine; distribution checks live in
  // common_test's Zipf tests. Here: the workload is functional under
  // heavy skew.
  txn::Worker worker(cluster_.get(), 0, 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(db_->RunTxn(&worker).committed);
  }
}

TEST_F(YcsbTest, WorkloadFReadModifyWriteSerializable) {
  // F's updates are read-modify-writes of byte 0; with a single hot key
  // and concurrent workers, the final counter must equal the number of
  // committed updates. Use records=1 to force maximal contention.
  YcsbDb::Params params;
  params.records_per_node = 1;
  params.mix = YcsbDb::Mix::kF;
  params.distribution = YcsbDb::Distribution::kUniform;
  params.use_read_only_path = false;
  SetUpYcsb(1, params);
  // Reset byte 0 to zero for clean counting.
  std::vector<uint8_t> zero(params.value_size, 0);
  {
    htm::HtmThread htm;
    while (htm.Transact([&] {
             cluster_->hash_table(0, db_->table())->Put(0, zero.data());
           }) != htm::kCommitted) {
    }
  }
  std::atomic<int> updates{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      txn::Worker worker(cluster_.get(), 0, t);
      Xoshiro256& rng = worker.rng();
      (void)rng;
      for (int i = 0; i < 100; ++i) {
        // Directly run an update txn to control the op type.
        txn::Transaction txn(&worker);
        txn.AddWrite(db_->table(), 0);
        std::vector<uint8_t> buf(params.value_size);
        if (txn.Run([&](txn::Transaction& t2) {
              if (!t2.Read(db_->table(), 0, buf.data())) {
                return false;
              }
              buf[0] = static_cast<uint8_t>(buf[0] + 1);
              return t2.Write(db_->table(), 0, buf.data());
            }) == txn::TxnStatus::kCommitted) {
          updates.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::vector<uint8_t> out(params.value_size);
  cluster_->hash_table(0, db_->table())->Get(0, out.data());
  EXPECT_EQ(out[0], static_cast<uint8_t>(updates.load() & 0xff));
  EXPECT_EQ(updates.load(), 200);
}

}  // namespace
}  // namespace workload
}  // namespace drtm
