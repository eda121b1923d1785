// Stress tests for the DrTM-KV store: one-sided remote readers racing
// local HTM mutators (the paper's core claim is that HTM's strong
// atomicity + incarnation checking make this safe with no checksums or
// per-line versions), cache staleness under churn, and remote
// INSERT/DELETE shipping under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/common/rand.h"
#include "src/htm/htm.h"
#include "src/rdma/fabric.h"
#include "src/rdma/phase_scatter.h"
#include "src/store/cluster_hash.h"
#include "src/store/location_cache.h"
#include "src/store/remote_kv.h"
#include "src/txn/cluster.h"

namespace drtm {
namespace store {
namespace {

rdma::Fabric::Config TestFabric(int nodes) {
  rdma::Fabric::Config config;
  config.num_nodes = nodes;
  config.region_bytes = 64 << 20;
  return config;
}

// Values encode their key and a version; readers verify self-consistency.
void EncodeValue(uint64_t key, uint64_t version, uint8_t* out, size_t n) {
  uint64_t words[2] = {key, version};
  for (size_t i = 0; i < n; ++i) {
    out[i] = reinterpret_cast<uint8_t*>(words)[i % 16] ^
             static_cast<uint8_t>(i);
  }
}

bool DecodeAndCheck(uint64_t key, const uint8_t* in, size_t n) {
  // Reconstruct the two words from the first 16 bytes, then verify the
  // rest of the buffer matches the expansion.
  uint8_t raw[16] = {0};
  for (size_t i = 0; i < 16 && i < n; ++i) {
    raw[i] = in[i] ^ static_cast<uint8_t>(i);
  }
  uint64_t words[2];
  std::memcpy(words, raw, 16);
  if (words[0] != key) {
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint8_t expect =
        reinterpret_cast<uint8_t*>(words)[i % 16] ^ static_cast<uint8_t>(i);
    if (in[i] != expect) {
      return false;
    }
  }
  return true;
}

TEST(RemoteKvStress, RemoteReadersNeverSeeTornValues) {
  rdma::Fabric fabric(TestFabric(2));
  ClusterHashTable::Config config;
  config.main_buckets = 1 << 8;
  config.indirect_buckets = 1 << 7;
  config.capacity = 1 << 11;
  config.value_size = 64;
  ClusterHashTable table(&fabric.memory(1), config);
  constexpr uint64_t kKeys = 128;
  std::vector<uint8_t> value(64);
  for (uint64_t k = 0; k < kKeys; ++k) {
    EncodeValue(k, 0, value.data(), value.size());
    ASSERT_TRUE(table.Insert(k, value.data()));
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<uint64_t> reads_ok{0};

  // Local HTM writers continuously rewrite whole values.
  std::thread writer([&] {
    htm::HtmThread htm;
    Xoshiro256 rng(3);
    std::vector<uint8_t> buf(64);
    uint64_t version = 1;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t key = rng.NextBounded(kKeys);
      EncodeValue(key, version++, buf.data(), buf.size());
      while (htm.Transact([&] { table.Put(key, buf.data()); }) !=
             htm::kCommitted) {
      }
    }
  });

  // Remote readers via one-sided RDMA. Each full Get must return a
  // self-consistent (untorn) value.
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      RemoteKv client(&fabric, 1, table.geometry());
      Xoshiro256 rng(100 + static_cast<uint64_t>(t));
      std::vector<uint8_t> out(64);
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t key = rng.NextBounded(kKeys);
        if (client.Get(key, out.data())) {
          if (!DecodeAndCheck(key, out.data(), out.size())) {
            torn.store(true);
          }
          reads_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  writer.join();
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_FALSE(torn.load());
  EXPECT_GT(reads_ok.load(), 100u);
}

TEST(RemoteKvStress, CachedReadersSurviveDeleteReinsertChurn) {
  rdma::Fabric fabric(TestFabric(2));
  ClusterHashTable::Config config;
  config.main_buckets = 1 << 7;
  config.indirect_buckets = 1 << 7;
  config.capacity = 1 << 10;
  config.value_size = 32;
  ClusterHashTable table(&fabric.memory(1), config);
  constexpr uint64_t kKeys = 64;
  std::vector<uint8_t> value(32);
  for (uint64_t k = 0; k < kKeys; ++k) {
    EncodeValue(k, 0, value.data(), value.size());
    ASSERT_TRUE(table.Insert(k, value.data()));
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> wrong{false};

  // Churner: delete a key and reinsert it (entry cells get recycled, the
  // incarnation bumps — cached locations must never serve a wrong key).
  std::thread churner([&] {
    htm::HtmThread htm;
    Xoshiro256 rng(5);
    std::vector<uint8_t> buf(32);
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t key = rng.NextBounded(kKeys);
      while (htm.Transact([&] { table.Remove(key); }) != htm::kCommitted) {
      }
      EncodeValue(key, 1, buf.data(), buf.size());
      while (htm.Transact([&] { table.Insert(key, buf.data()); }) !=
             htm::kCommitted) {
      }
    }
  });

  LocationCache cache(1 << 20);
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      RemoteKv client(&fabric, 1, table.geometry(), &cache);
      Xoshiro256 rng(200 + static_cast<uint64_t>(t));
      std::vector<uint8_t> out(32);
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t key = rng.NextBounded(kKeys);
        if (client.Get(key, out.data())) {
          // A found value must decode for the requested key — a stale
          // location that resolved to a recycled cell is a bug.
          if (!DecodeAndCheck(key, out.data(), out.size())) {
            wrong.store(true);
          }
        }
        // Misses are fine (key mid-delete).
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  churner.join();
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_FALSE(wrong.load());
}

TEST(RemoteKvStress, ConcurrentShippedInsertsAndRemovals) {
  txn::ClusterConfig config;
  config.num_nodes = 2;
  config.workers_per_node = 2;
  config.region_bytes = 32 << 20;
  txn::Cluster cluster(config);
  txn::TableSpec spec;
  spec.value_size = 8;
  spec.capacity = 1 << 12;
  spec.partition = [](uint64_t key) { return static_cast<int>(key % 2); };
  const int table = cluster.AddTable(spec);
  cluster.Start();

  // Multiple client threads ship INSERT/DELETE for disjoint key ranges to
  // the same host; the host's server thread serializes them under HTM.
  constexpr int kThreads = 3;
  constexpr uint64_t kPerThread = 120;
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        // Keys targeting node 1 from clients on node 0.
        const uint64_t key = 1 + 2 * (static_cast<uint64_t>(t) * 1000 + i);
        const uint64_t value = key * 3;
        ASSERT_TRUE(cluster.RemoteInsert(0, table, key, &value));
        if (i % 3 == 0) {
          ASSERT_TRUE(cluster.RemoteRemove(0, table, key));
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  uint64_t live = 0;
  uint64_t out;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      const uint64_t key = 1 + 2 * (static_cast<uint64_t>(t) * 1000 + i);
      const bool present = cluster.hash_table(1, table)->Get(key, &out);
      EXPECT_EQ(present, i % 3 != 0) << key;
      live += present ? 1 : 0;
    }
  }
  EXPECT_EQ(live, static_cast<uint64_t>(kThreads) * (kPerThread -
                                                     (kPerThread + 2) / 3));
  cluster.Stop();
}

TEST(RemoteKvStress, LookupUnderInsertionChurnFindsStableKeys) {
  rdma::Fabric fabric(TestFabric(2));
  ClusterHashTable::Config config;
  config.main_buckets = 1 << 7;  // force chaining growth under churn
  config.indirect_buckets = 1 << 8;
  config.capacity = 1 << 12;
  config.value_size = 16;
  ClusterHashTable table(&fabric.memory(1), config);
  // Stable keys loaded up front.
  std::vector<uint8_t> value(16, 0xee);
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(table.Insert(k, value.data()));
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> lost{false};

  std::thread inserter([&] {
    htm::HtmThread htm;
    uint64_t next = 10000;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t key = next++;
      while (htm.Transact([&] { table.Insert(key, value.data()); }) !=
             htm::kCommitted) {
      }
      if (next > 12000) {
        break;  // stay within capacity
      }
    }
  });
  std::thread reader([&] {
    RemoteKv client(&fabric, 1, table.geometry());
    Xoshiro256 rng(77);
    std::vector<uint8_t> out(16);
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t key = rng.NextBounded(200);
      // Stable keys must always be found, even while buckets split into
      // indirect headers around them.
      if (!client.Get(key, out.data())) {
        lost.store(true);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  inserter.join();
  reader.join();
  EXPECT_FALSE(lost.load());
}

// A scatter walk whose cache probe misses can find its bucket installed
// by another worker a moment later, when it goes to post the READ. Such
// a walk posts nothing that round; it must still be consumed, or a
// lookup in which no walk posted a READ ends with the key not found.
TEST(RemoteKvStress, ScatterLookupSurvivesConcurrentCacheReinstalls) {
  rdma::Fabric fabric(TestFabric(2));
  ClusterHashTable::Config config;
  config.main_buckets = 1 << 8;
  config.indirect_buckets = 1 << 6;
  config.capacity = 1 << 10;
  config.value_size = 8;
  ClusterHashTable table(&fabric.memory(1), config);
  const Geometry& geo = table.geometry();
  const uint64_t keys[2] = {1, 2};
  ASSERT_NE(geo.MainBucketOffset(keys[0]), geo.MainBucketOffset(keys[1]));
  const uint64_t value = 7;
  Bucket buckets[2];
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(table.Insert(keys[i], &value));
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(fabric.Read(1, geo.MainBucketOffset(keys[i]), &buckets[i],
                          sizeof(Bucket)),
              rdma::OpStatus::kOk);
  }
  LocationCache cache(1 << 20);
  RemoteKv client(&fabric, 1, geo, &cache);

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < 2; ++i) {
        const uint64_t off = geo.MainBucketOffset(keys[i]);
        cache.Invalidate(off);
        cache.Install(off, buckets[i]);
      }
    }
  });
  rdma::PhaseScatter scatter(fabric);
  int misses = 0;
  for (int round = 0; round < 100000; ++round) {
    std::vector<RemoteKv::LookupTask> tasks(2);
    for (int i = 0; i < 2; ++i) {
      tasks[i].client = &client;
      tasks[i].key = keys[i];
    }
    RemoteKv::ScatterLookup(scatter, &tasks);
    for (const RemoteKv::LookupTask& task : tasks) {
      misses += task.result.found ? 0 : 1;
    }
  }
  stop.store(true, std::memory_order_release);
  flipper.join();
  EXPECT_EQ(misses, 0);
}

}  // namespace
}  // namespace store
}  // namespace drtm
