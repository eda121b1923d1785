#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/common/rand.h"
#include "src/htm/htm.h"
#include "src/rdma/fabric.h"
#include "src/store/bplus_tree.h"
#include "src/store/cluster_hash.h"
#include "src/store/farm_hopscotch.h"
#include "src/store/kv_layout.h"
#include "src/store/location_cache.h"
#include "src/store/pilaf_cuckoo.h"
#include "src/store/remote_kv.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace store {
namespace {

rdma::Fabric::Config TestFabric(int nodes, size_t region = 64 << 20) {
  rdma::Fabric::Config config;
  config.num_nodes = nodes;
  config.region_bytes = region;
  config.latency = rdma::LatencyModel::Zero();
  return config;
}

std::vector<uint8_t> MakeValue(uint64_t key, uint32_t size) {
  std::vector<uint8_t> v(size);
  for (uint32_t i = 0; i < size; ++i) {
    v[i] = static_cast<uint8_t>((key * 31 + i) & 0xff);
  }
  return v;
}

// --- HeaderSlot encoding ----------------------------------------------------

TEST(KvLayout, SlotPackRoundTrip) {
  const uint64_t meta =
      HeaderSlot::Pack(SlotType::kEntry, 0x2abc, 0x0000123456789abcULL);
  HeaderSlot slot;
  slot.meta = meta;
  EXPECT_EQ(slot.type(), SlotType::kEntry);
  EXPECT_EQ(slot.lossy_incarnation(), 0x2abc);
  EXPECT_EQ(slot.offset(), 0x0000123456789abcULL);
}

TEST(KvLayout, LossyIncarnationTruncatesTo14Bits) {
  const uint64_t meta = HeaderSlot::Pack(SlotType::kHeader, 0xffff, 1);
  HeaderSlot slot;
  slot.meta = meta;
  EXPECT_EQ(slot.lossy_incarnation(), 0x3fff);
  EXPECT_EQ(slot.type(), SlotType::kHeader);
}

TEST(KvLayout, EntryLayoutMatchesPaper) {
  EXPECT_EQ(sizeof(EntryHeader), 24u);
  EXPECT_EQ(kEntryStateOffset, 16u);
  EXPECT_EQ(kEntryValueOffset, 24u);  // state and value contiguous
  EXPECT_EQ(sizeof(Bucket), 128u);    // one RDMA READ per 8 candidates
}

// --- ClusterHashTable -------------------------------------------------------

class ClusterHashTest : public ::testing::Test {
 protected:
  ClusterHashTest() : fabric_(TestFabric(2)) {
    ClusterHashTable::Config config;
    config.main_buckets = 1 << 8;
    config.indirect_buckets = 1 << 7;
    config.capacity = 1 << 12;
    config.value_size = 32;
    table_ = std::make_unique<ClusterHashTable>(&fabric_.memory(1), config);
  }

  rdma::Fabric fabric_;
  std::unique_ptr<ClusterHashTable> table_;
};

TEST_F(ClusterHashTest, InsertGetRoundTrip) {
  const auto value = MakeValue(7, 32);
  ASSERT_TRUE(table_->Insert(7, value.data()));
  std::vector<uint8_t> out(32);
  ASSERT_TRUE(table_->Get(7, out.data()));
  EXPECT_EQ(out, value);
}

TEST_F(ClusterHashTest, DuplicateInsertRejected) {
  const auto value = MakeValue(7, 32);
  ASSERT_TRUE(table_->Insert(7, value.data()));
  EXPECT_FALSE(table_->Insert(7, value.data()));
  EXPECT_EQ(table_->live_entries(), 1u);
}

TEST_F(ClusterHashTest, GetMissingReturnsFalse) {
  std::vector<uint8_t> out(32);
  EXPECT_FALSE(table_->Get(12345, out.data()));
}

TEST_F(ClusterHashTest, PutBumpsVersion) {
  const auto v1 = MakeValue(9, 32);
  ASSERT_TRUE(table_->Insert(9, v1.data()));
  const uint64_t entry = table_->FindEntry(9);
  ASSERT_NE(entry, kInvalidOffset);
  const uint32_t version_before = *table_->VersionPtr(entry);
  const auto v2 = MakeValue(10, 32);
  ASSERT_TRUE(table_->Put(9, v2.data()));
  EXPECT_EQ(*table_->VersionPtr(entry), version_before + 1);
  std::vector<uint8_t> out(32);
  table_->Get(9, out.data());
  EXPECT_EQ(out, v2);
}

TEST_F(ClusterHashTest, RemoveBumpsIncarnation) {
  const auto value = MakeValue(5, 32);
  ASSERT_TRUE(table_->Insert(5, value.data()));
  const uint64_t entry = table_->FindEntry(5);
  EntryHeader header;
  std::memcpy(&header, table_->EntryPtr(entry), sizeof(header));
  const uint32_t inc_before = header.incarnation;
  ASSERT_TRUE(table_->Remove(5));
  std::memcpy(&header, table_->EntryPtr(entry), sizeof(header));
  EXPECT_EQ(header.incarnation, inc_before + 1);
  std::vector<uint8_t> out(32);
  EXPECT_FALSE(table_->Get(5, out.data()));
  EXPECT_EQ(table_->live_entries(), 0u);
}

TEST_F(ClusterHashTest, RemoveMissingReturnsFalse) {
  EXPECT_FALSE(table_->Remove(4242));
}

TEST_F(ClusterHashTest, ChainsThroughIndirectHeaders) {
  // Force many keys into the table; with 256 main buckets and 2000 keys,
  // many buckets overflow into indirect headers.
  for (uint64_t k = 0; k < 2000; ++k) {
    const auto value = MakeValue(k, 32);
    ASSERT_TRUE(table_->Insert(k, value.data())) << "key " << k;
  }
  EXPECT_EQ(table_->live_entries(), 2000u);
  std::vector<uint8_t> out(32);
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(table_->Get(k, out.data())) << "key " << k;
    EXPECT_EQ(out, MakeValue(k, 32));
  }
}

TEST_F(ClusterHashTest, DeleteThenReinsertReusesEntries) {
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(table_->Insert(k, MakeValue(k, 32).data()));
  }
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(table_->Remove(k));
  }
  for (uint64_t k = 1000; k < 1500; ++k) {
    ASSERT_TRUE(table_->Insert(k, MakeValue(k, 32).data()));
  }
  std::vector<uint8_t> out(32);
  for (uint64_t k = 1000; k < 1500; ++k) {
    ASSERT_TRUE(table_->Get(k, out.data()));
  }
  EXPECT_EQ(table_->live_entries(), 500u);
}

TEST_F(ClusterHashTest, AbortedHtmInsertRollsBack) {
  htm::HtmThread htm;
  const unsigned status = htm.Transact([&] {
    ASSERT_TRUE(table_->Insert(77, MakeValue(77, 32).data()));
    htm.Abort(1);
  });
  EXPECT_NE(status, htm::kCommitted);
  std::vector<uint8_t> out(32);
  EXPECT_FALSE(table_->Get(77, out.data()));
  EXPECT_EQ(table_->live_entries(), 0u);
  // The entry allocator rolled back too: a committed insert succeeds and
  // the table stays consistent.
  htm.Transact([&] { ASSERT_TRUE(table_->Insert(77, MakeValue(77, 32).data())); });
  EXPECT_TRUE(table_->Get(77, out.data()));
}

TEST_F(ClusterHashTest, ConcurrentHtmInsertsAllSurvive) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      htm::HtmThread htm;
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * 1000 + i;
        while (true) {
          bool ok = false;
          const unsigned status = htm.Transact(
              [&] { ok = table_->Insert(key, MakeValue(key, 32).data()); });
          if (status == htm::kCommitted) {
            ASSERT_TRUE(ok);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(table_->live_entries(), kThreads * kPerThread);
  std::vector<uint8_t> out(32);
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      const uint64_t key = static_cast<uint64_t>(t) * 1000 + i;
      ASSERT_TRUE(table_->Get(key, out.data()));
    }
  }
}

// --- RemoteKv ---------------------------------------------------------------

class RemoteKvTest : public ::testing::Test {
 protected:
  RemoteKvTest() : fabric_(TestFabric(2)) {
    ClusterHashTable::Config config;
    config.main_buckets = 1 << 8;
    config.indirect_buckets = 1 << 7;
    config.capacity = 1 << 12;
    config.value_size = 32;
    table_ = std::make_unique<ClusterHashTable>(&fabric_.memory(1), config);
    for (uint64_t k = 0; k < 1000; ++k) {
      table_->Insert(k, MakeValue(k, 32).data());
    }
  }

  rdma::Fabric fabric_;
  std::unique_ptr<ClusterHashTable> table_;
};

TEST_F(RemoteKvTest, UncachedGetFindsValues) {
  RemoteKv client(&fabric_, 1, table_->geometry());
  std::vector<uint8_t> out(32);
  for (uint64_t k = 0; k < 1000; k += 37) {
    ASSERT_TRUE(client.Get(k, out.data())) << "key " << k;
    EXPECT_EQ(out, MakeValue(k, 32));
  }
  EXPECT_FALSE(client.Get(999999, out.data()));
}

TEST_F(RemoteKvTest, LookupCountsReads) {
  RemoteKv client(&fabric_, 1, table_->geometry());
  const RemoteEntryRef ref = client.Lookup(3);
  ASSERT_TRUE(ref.found);
  EXPECT_GE(ref.rdma_reads, 1);
  EXPECT_EQ(ref.entry_off, table_->FindEntry(3));
}

TEST_F(RemoteKvTest, CacheEliminatesRepeatLookupReads) {
  LocationCache cache(1 << 20);
  RemoteKv client(&fabric_, 1, table_->geometry(), &cache);
  std::vector<uint8_t> out(32);
  ASSERT_TRUE(client.Get(3, out.data()));
  stat::Registry& reg = stat::Registry::Global();
  const stat::Snapshot before = reg.TakeSnapshot();
  ASSERT_TRUE(client.Get(3, out.data()));
  // Warm cache: only the entry READ remains, no bucket READ.
  EXPECT_EQ(reg.TakeSnapshot().DeltaSince(before).Counter("rdma.read.ops"),
            1u);
}

TEST_F(RemoteKvTest, StaleCacheDetectedByIncarnation) {
  LocationCache cache(1 << 20);
  RemoteKv client(&fabric_, 1, table_->geometry(), &cache);
  std::vector<uint8_t> out(32);
  ASSERT_TRUE(client.Get(3, out.data()));
  // Host deletes and reinserts the key; the entry cell is recycled with a
  // bumped incarnation, so the cached location must be detected as stale.
  ASSERT_TRUE(table_->Remove(3));
  ASSERT_TRUE(table_->Insert(3, MakeValue(33, 32).data()));
  ASSERT_TRUE(client.Get(3, out.data()));
  EXPECT_EQ(out, MakeValue(33, 32));
}

TEST_F(RemoteKvTest, DeletedKeyMissesThroughCache) {
  LocationCache cache(1 << 20);
  RemoteKv client(&fabric_, 1, table_->geometry(), &cache);
  std::vector<uint8_t> out(32);
  ASSERT_TRUE(client.Get(5, out.data()));
  ASSERT_TRUE(table_->Remove(5));
  EXPECT_FALSE(client.Get(5, out.data()));
}

TEST_F(RemoteKvTest, SnapshotReadEntryReturnsHeader) {
  RemoteKv client(&fabric_, 1, table_->geometry());
  const RemoteEntryRef ref = client.Lookup(8);
  ASSERT_TRUE(ref.found);
  RemoteEntrySnapshot snap;
  ASSERT_TRUE(client.ReadEntry(ref.entry_off, &snap));
  EXPECT_EQ(snap.header.key, 8u);
  EXPECT_EQ(snap.value, MakeValue(8, 32));
}

// --- LocationCache ----------------------------------------------------------

TEST(LocationCache, InstallLookupInvalidate) {
  LocationCache cache(64 << 10);
  Bucket bucket{};
  bucket.slots[0].key = 42;
  cache.Install(128, bucket);
  Bucket out{};
  ASSERT_TRUE(cache.Lookup(128, &out));
  EXPECT_EQ(out.slots[0].key, 42u);
  cache.Invalidate(128);
  EXPECT_FALSE(cache.Lookup(128, &out));
}

TEST(LocationCache, DirectMappedEviction) {
  LocationCache cache(1 << 10);  // tiny: few frames
  Bucket bucket{};
  // Install many buckets; collisions evict older frames silently.
  for (uint64_t off = 0; off < 128 * kBucketBytes; off += kBucketBytes) {
    bucket.slots[0].key = off;
    cache.Install(off, bucket);
  }
  // The most recently installed frame must be retrievable.
  Bucket out{};
  EXPECT_TRUE(cache.Lookup(127 * kBucketBytes, &out));
}

TEST(LocationCache, TracksHitMissStats) {
  LocationCache cache(64 << 10);
  Bucket bucket{};
  Bucket out{};
  EXPECT_FALSE(cache.Lookup(0, &out));
  cache.Install(0, bucket);
  EXPECT_TRUE(cache.Lookup(0, &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LocationCache, AdaptiveAdmissionThrottlesThrashingAndDecays) {
  LocationCache cache(1 << 10, "", /*adaptive_admission=*/true);
  ASSERT_EQ(cache.admit_shift(), 0u);
  Bucket bucket{};
  Bucket out{};
  // Fill every frame so occupancy crosses the 7/8 arming threshold.
  for (uint64_t off = 0; off < 64 * cache.frames() * kBucketBytes;
       off += kBucketBytes) {
    cache.Install(off, bucket);
  }
  ASSERT_GE(cache.occupied() * 8, cache.frames() * 7);
  // A full window of pure misses on a full cache must raise the
  // throttle one step.
  for (uint32_t i = 0; i < LocationCache::kAdmitWindow; ++i) {
    (void)cache.Lookup((1000000 + i) * kBucketBytes, &out);
  }
  EXPECT_EQ(cache.admit_shift(), 1u);
  // With the throttle up, only 1 in 2 frame-claiming installs land.
  const uint64_t probe = 5000000 * kBucketBytes;
  uint32_t landed = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Install(probe + i * 977 * kBucketBytes, bucket);
    if (cache.Lookup(probe + i * 977 * kBucketBytes, &out)) {
      ++landed;
    }
  }
  EXPECT_LT(landed, 8u);
  // A healthy window (>= 25% hits) decays the throttle back to zero.
  // At shift 1 at most one of two consecutive frame claims is rationed,
  // so the second install is guaranteed to land (or the first already
  // did and the second is a free refresh).
  cache.Install(128, bucket);
  cache.Install(128, bucket);
  for (uint32_t i = 0; i < LocationCache::kAdmitWindow; ++i) {
    ASSERT_TRUE(cache.Lookup(128, &out));
  }
  EXPECT_EQ(cache.admit_shift(), 0u);
}

TEST(LocationCache, NextHintRecordsChainShape) {
  LocationCache cache(64 << 10);
  uint64_t next = 0;
  // Never-observed bucket: no hint at all.
  EXPECT_FALSE(cache.NextHint(256, &next));
  // A bucket with a kHeader slot hints at the chained indirect bucket.
  Bucket chained{};
  chained.slots[7].meta = HeaderSlot::Pack(SlotType::kHeader, 0, 4096);
  cache.Install(256, chained);
  ASSERT_TRUE(cache.NextHint(256, &next));
  EXPECT_EQ(next, 4096u);
  // A bucket without one hints a known chain end.
  Bucket leaf{};
  cache.Install(4096, leaf);
  ASSERT_TRUE(cache.NextHint(4096, &next));
  EXPECT_EQ(next, kInvalidOffset);
}

TEST(LocationCache, NextHintSurvivesInvalidate) {
  LocationCache cache(64 << 10);
  Bucket chained{};
  chained.slots[0].meta = HeaderSlot::Pack(SlotType::kHeader, 0, 8192);
  cache.Install(256, chained);
  // An incarnation miss drops the content snapshot but the chain shape
  // stays predictive — that is what lets a revalidation walk batch.
  cache.Invalidate(256);
  Bucket out{};
  EXPECT_FALSE(cache.Lookup(256, &out));
  uint64_t next = 0;
  ASSERT_TRUE(cache.NextHint(256, &next));
  EXPECT_EQ(next, 8192u);
}

TEST(LocationCache, OccupancyAndGaugesTrackResidency) {
  stat::Registry& reg = stat::Registry::Global();
  const uint32_t cap_id = reg.GaugeId("cache.capacity_entries.t1");
  const uint32_t occ_id = reg.GaugeId("cache.occupied_entries.t1");
  const int64_t cap_before = reg.GaugeValue(cap_id);
  const int64_t occ_before = reg.GaugeValue(occ_id);
  {
    LocationCache cache(64 << 10, "t1");
    EXPECT_EQ(reg.GaugeValue(cap_id),
              cap_before + static_cast<int64_t>(cache.frames()));
    EXPECT_EQ(cache.occupied(), 0u);
    Bucket bucket{};
    cache.Install(0, bucket);
    cache.Install(kBucketBytes, bucket);
    cache.Install(0, bucket);  // replacing a resident frame is not growth
    EXPECT_EQ(cache.occupied(), 2u);
    EXPECT_EQ(reg.GaugeValue(occ_id), occ_before + 2);
    cache.Invalidate(0);
    EXPECT_EQ(cache.occupied(), 1u);
    EXPECT_EQ(reg.GaugeValue(occ_id), occ_before + 1);
  }
  // The destructor returns both gauges to their prior levels.
  EXPECT_EQ(reg.GaugeValue(cap_id), cap_before);
  EXPECT_EQ(reg.GaugeValue(occ_id), occ_before);
}

TEST(LocationCache, BudgetFromEnvOverridesEntries) {
  const size_t kDefault = 16 << 20;
  unsetenv("DRTM_LOC_CACHE_ENTRIES");
  EXPECT_EQ(LocationCache::BudgetFromEnv(kDefault), kDefault);
  setenv("DRTM_LOC_CACHE_ENTRIES", "1024", 1);
  EXPECT_EQ(LocationCache::BudgetFromEnv(kDefault),
            1024 * (sizeof(Bucket) + 16));
  setenv("DRTM_LOC_CACHE_ENTRIES", "nonsense", 1);
  EXPECT_EQ(LocationCache::BudgetFromEnv(kDefault), kDefault);
  setenv("DRTM_LOC_CACHE_ENTRIES", "0", 1);
  EXPECT_EQ(LocationCache::BudgetFromEnv(kDefault), kDefault);
  unsetenv("DRTM_LOC_CACHE_ENTRIES");
}

// --- Pipelined chain walks --------------------------------------------------

class ChainedRemoteKvTest : public ::testing::Test {
 protected:
  ChainedRemoteKvTest() : fabric_(TestFabric(2)) {
    // Four main buckets force deep indirect chains: ~100 keys over
    // 4 x 8 slots chains each bucket several hops deep.
    ClusterHashTable::Config config;
    config.main_buckets = 4;
    config.indirect_buckets = 1 << 6;
    config.capacity = 1 << 10;
    config.value_size = 8;
    table_ = std::make_unique<ClusterHashTable>(&fabric_.memory(1), config);
    for (uint64_t k = 0; k < 100; ++k) {
      table_->Insert(k, MakeValue(k, 8).data());
    }
  }

  rdma::Fabric fabric_;
  std::unique_ptr<ClusterHashTable> table_;
};

TEST_F(ChainedRemoteKvTest, PipelinedGetMatchesHostOnDeepChains) {
  LocationCache cache(1 << 20);
  RemoteKv client(&fabric_, 1, table_->geometry(), &cache);
  std::vector<uint8_t> out(8);
  for (int round = 0; round < 2; ++round) {  // cold, then hint-assisted
    for (uint64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(client.Get(k, out.data())) << "key " << k;
      EXPECT_EQ(out, MakeValue(k, 8));
    }
  }
  EXPECT_FALSE(client.Get(999999, out.data()));
}

TEST_F(ChainedRemoteKvTest, ChainHintsCollapseWalkIntoOneDoorbell) {
  // Find a key several hops deep via an uncached client: with no hints
  // every hop is its own doorbell, so doorbells == READs.
  RemoteKv uncached(&fabric_, 1, table_->geometry());
  uint64_t deep_key = 0;
  int cold_reads = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    const RemoteEntryRef ref = uncached.Lookup(k);
    ASSERT_TRUE(ref.found);
    EXPECT_EQ(ref.rdma_doorbells, ref.rdma_reads);
    if (ref.rdma_reads >= 3 && ref.rdma_reads <= 4 && cold_reads == 0) {
      deep_key = k;
      cold_reads = ref.rdma_reads;
    }
  }
  ASSERT_GE(cold_reads, 3) << "fixture did not produce a deep chain";

  // Teach a cache the chain shape, then drop the content snapshots the
  // way an incarnation miss would — hints survive.
  LocationCache cache(1 << 20);
  RemoteKv client(&fabric_, 1, table_->geometry(), &cache);
  const RemoteEntryRef warm = client.Lookup(deep_key);
  ASSERT_TRUE(warm.found);
  uint64_t cur = table_->geometry().MainBucketOffset(deep_key);
  while (cur != kInvalidOffset) {
    cache.Invalidate(cur);
    uint64_t next = kInvalidOffset;
    if (!cache.NextHint(cur, &next)) {
      break;
    }
    cur = next;
  }
  // The revalidation walk speculatively posts the whole predicted chain
  // as one batch: one doorbell instead of one per hop. Speculation may
  // overfetch a bucket past the key's (the batch is posted before the
  // walk knows where the key sits), never more than the window.
  const RemoteEntryRef hinted = client.Lookup(deep_key);
  ASSERT_TRUE(hinted.found);
  EXPECT_EQ(hinted.entry_off, warm.entry_off);
  EXPECT_GE(hinted.rdma_reads, cold_reads);
  EXPECT_LE(hinted.rdma_reads, 4);  // kSpeculationWindow
  EXPECT_EQ(hinted.rdma_doorbells, 1);
}

// --- Pilaf cuckoo baseline --------------------------------------------------

TEST(PilafCuckoo, InsertGetLocalAndRemote) {
  rdma::Fabric fabric(TestFabric(2));
  PilafCuckooTable::Config config;
  config.buckets = 1 << 10;
  config.capacity = 1 << 10;
  config.value_size = 16;
  PilafCuckooTable table(&fabric.memory(1), config);
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(table.Insert(k, MakeValue(k, 16).data())) << k;
  }
  std::vector<uint8_t> out(16);
  for (uint64_t k = 0; k < 500; k += 7) {
    ASSERT_TRUE(table.Get(k, out.data()));
    EXPECT_EQ(out, MakeValue(k, 16));
    int reads = 0;
    ASSERT_TRUE(table.RemoteGet(&fabric, 1, k, out.data(), &reads));
    EXPECT_EQ(out, MakeValue(k, 16));
    EXPECT_GE(reads, 2);  // at least one bucket + one kv READ
    EXPECT_LE(reads, 4);
  }
}

TEST(PilafCuckoo, MissReturnsFalse) {
  rdma::Fabric fabric(TestFabric(2));
  PilafCuckooTable::Config config;
  PilafCuckooTable table(&fabric.memory(1), config);
  std::vector<uint8_t> out(config.value_size);
  int reads = 0;
  EXPECT_FALSE(table.RemoteGet(&fabric, 1, 7, out.data(), &reads));
  EXPECT_EQ(reads, 3);  // all three candidate buckets probed
}

// --- FaRM hopscotch baseline ------------------------------------------------

class FarmHopscotchParamTest
    : public ::testing::TestWithParam<FarmHopscotchTable::Mode> {};

TEST_P(FarmHopscotchParamTest, InsertGetLocalAndRemote) {
  rdma::Fabric fabric(TestFabric(2));
  FarmHopscotchTable::Config config;
  config.buckets = 1 << 10;
  config.value_size = 16;
  config.mode = GetParam();
  FarmHopscotchTable table(&fabric.memory(1), config);
  for (uint64_t k = 0; k < 700; ++k) {
    ASSERT_TRUE(table.Insert(k, MakeValue(k, 16).data())) << k;
  }
  std::vector<uint8_t> out(16);
  for (uint64_t k = 0; k < 700; k += 13) {
    ASSERT_TRUE(table.Get(k, out.data()));
    EXPECT_EQ(out, MakeValue(k, 16));
    int reads = 0;
    ASSERT_TRUE(table.RemoteGet(&fabric, 1, k, out.data(), &reads));
    EXPECT_EQ(out, MakeValue(k, 16));
    EXPECT_GE(reads, 1);
    // Neighborhood READ (possibly split by wraparound), an optional value
    // READ in offset mode, plus overflow-chain hops at high occupancy.
    EXPECT_LE(reads, 8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FarmHopscotchParamTest,
    ::testing::Values(FarmHopscotchTable::Mode::kInlineValue,
                      FarmHopscotchTable::Mode::kOffsetValue));

TEST(FarmHopscotch, InlineModeReadsNoSecondTime) {
  rdma::Fabric fabric(TestFabric(2));
  FarmHopscotchTable::Config config;
  config.buckets = 1 << 10;
  config.value_size = 16;
  config.mode = FarmHopscotchTable::Mode::kInlineValue;
  FarmHopscotchTable table(&fabric.memory(1), config);
  ASSERT_TRUE(table.Insert(3, MakeValue(3, 16).data()));
  std::vector<uint8_t> out(16);
  int reads = 0;
  ASSERT_TRUE(table.RemoteGet(&fabric, 1, 3, out.data(), &reads));
  EXPECT_LE(reads, 2);
  // Inline mode amplifies the READ size by the neighborhood.
  EXPECT_GE(table.NeighborhoodReadBytes(), size_t{8} * (16 + 24));
}

// --- B+ tree ----------------------------------------------------------------

class BPlusTreeTest : public ::testing::Test {
 protected:
  BPlusTreeTest() {
    BPlusTree::Config config;
    config.value_size = 8;
    config.max_nodes = 1 << 14;
    tree_ = std::make_unique<BPlusTree>(config);
  }
  std::unique_ptr<BPlusTree> tree_;
};

TEST_F(BPlusTreeTest, InsertGetAscending) {
  for (uint64_t k = 0; k < 5000; ++k) {
    const uint64_t v = k * 3;
    ASSERT_TRUE(tree_->Insert(k, &v)) << k;
  }
  EXPECT_EQ(tree_->size(), 5000u);
  for (uint64_t k = 0; k < 5000; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(tree_->Get(k, &v)) << k;
    EXPECT_EQ(v, k * 3);
  }
}

TEST_F(BPlusTreeTest, InsertGetRandomOrder) {
  Xoshiro256 rng(77);
  std::set<uint64_t> keys;
  while (keys.size() < 3000) {
    keys.insert(rng.Next() % 100000);
  }
  for (uint64_t k : keys) {
    ASSERT_TRUE(tree_->Insert(k, &k));
  }
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(tree_->Get(k, &v)) << k;
    EXPECT_EQ(v, k);
  }
  uint64_t v;
  EXPECT_FALSE(tree_->Get(100001, &v));
}

TEST_F(BPlusTreeTest, DuplicateRejected) {
  const uint64_t v = 1;
  ASSERT_TRUE(tree_->Insert(9, &v));
  EXPECT_FALSE(tree_->Insert(9, &v));
}

TEST_F(BPlusTreeTest, ScanVisitsRangeInOrder) {
  for (uint64_t k = 0; k < 1000; k += 2) {
    ASSERT_TRUE(tree_->Insert(k, &k));
  }
  std::vector<uint64_t> visited;
  tree_->Scan(100, 200, [&](uint64_t key, const void* value) {
    visited.push_back(key);
    uint64_t v;
    std::memcpy(&v, value, 8);
    EXPECT_EQ(v, key);
    return true;
  });
  ASSERT_EQ(visited.size(), 51u);
  EXPECT_EQ(visited.front(), 100u);
  EXPECT_EQ(visited.back(), 200u);
  for (size_t i = 1; i < visited.size(); ++i) {
    EXPECT_LT(visited[i - 1], visited[i]);
  }
}

TEST_F(BPlusTreeTest, ScanEarlyStop) {
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree_->Insert(k, &k));
  }
  int seen = 0;
  tree_->Scan(0, 99, [&](uint64_t, const void*) { return ++seen < 5; });
  EXPECT_EQ(seen, 5);
}

TEST_F(BPlusTreeTest, PutOverwrites) {
  uint64_t v = 1;
  ASSERT_TRUE(tree_->Insert(4, &v));
  v = 2;
  ASSERT_TRUE(tree_->Put(4, &v));
  uint64_t out = 0;
  ASSERT_TRUE(tree_->Get(4, &out));
  EXPECT_EQ(out, 2u);
  EXPECT_FALSE(tree_->Put(5, &v));
}

TEST_F(BPlusTreeTest, RemoveDeletes) {
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(tree_->Insert(k, &k));
  }
  for (uint64_t k = 0; k < 500; k += 3) {
    ASSERT_TRUE(tree_->Remove(k));
  }
  for (uint64_t k = 0; k < 500; ++k) {
    uint64_t v;
    EXPECT_EQ(tree_->Get(k, &v), k % 3 != 0) << k;
  }
  EXPECT_FALSE(tree_->Remove(0));
}

TEST_F(BPlusTreeTest, FindFloorReturnsLargestBelowBound) {
  for (uint64_t k = 10; k <= 100; k += 10) {
    ASSERT_TRUE(tree_->Insert(k, &k));
  }
  uint64_t key = 0;
  uint64_t value = 0;
  ASSERT_TRUE(tree_->FindFloor(0, 55, &key, &value));
  EXPECT_EQ(key, 50u);
  ASSERT_TRUE(tree_->FindFloor(0, 10, &key, &value));
  EXPECT_EQ(key, 10u);
  EXPECT_FALSE(tree_->FindFloor(0, 5, &key, &value));
}

TEST_F(BPlusTreeTest, AbortedHtmInsertRollsBack) {
  htm::HtmThread htm;
  const unsigned status = htm.Transact([&] {
    const uint64_t v = 8;
    ASSERT_TRUE(tree_->Insert(21, &v));
    htm.Abort(1);
  });
  EXPECT_NE(status, htm::kCommitted);
  uint64_t out;
  EXPECT_FALSE(tree_->Get(21, &out));
  EXPECT_EQ(tree_->size(), 0u);
}

TEST_F(BPlusTreeTest, ConcurrentHtmInsertsAreConsistent) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      htm::HtmThread htm;
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * 10000 + i;
        while (true) {
          bool ok = false;
          const unsigned status =
              htm.Transact([&] { ok = tree_->Insert(key, &key); });
          if (status == htm::kCommitted) {
            ASSERT_TRUE(ok);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(tree_->size(), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      const uint64_t key = static_cast<uint64_t>(t) * 10000 + i;
      uint64_t v;
      ASSERT_TRUE(tree_->Get(key, &v)) << key;
      EXPECT_EQ(v, key);
    }
  }
}

// Property sweep: table behaves like std::map across operation mixes.
class ClusterHashPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterHashPropertyTest, MatchesReferenceMap) {
  rdma::Fabric fabric(TestFabric(1));
  ClusterHashTable::Config config;
  config.main_buckets = 1 << 6;  // small: stress chaining
  config.indirect_buckets = 1 << 7;
  config.capacity = 1 << 11;
  config.value_size = 8;
  ClusterHashTable table(&fabric.memory(0), config);
  std::map<uint64_t, uint64_t> reference;
  Xoshiro256 rng(GetParam());
  for (int op = 0; op < 4000; ++op) {
    const uint64_t key = rng.NextBounded(300);
    const int action = static_cast<int>(rng.NextBounded(4));
    if (action == 0) {
      const uint64_t value = rng.Next();
      const bool inserted = table.Insert(key, &value);
      EXPECT_EQ(inserted, reference.emplace(key, value).second);
    } else if (action == 1) {
      const uint64_t value = rng.Next();
      const bool updated = table.Put(key, &value);
      const auto it = reference.find(key);
      EXPECT_EQ(updated, it != reference.end());
      if (it != reference.end()) {
        it->second = value;
      }
    } else if (action == 2) {
      EXPECT_EQ(table.Remove(key), reference.erase(key) == 1);
    } else {
      uint64_t value = 0;
      const bool found = table.Get(key, &value);
      const auto it = reference.find(key);
      ASSERT_EQ(found, it != reference.end()) << "key " << key;
      if (found) {
        EXPECT_EQ(value, it->second);
      }
    }
  }
  EXPECT_EQ(table.live_entries(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterHashPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property sweep: B+ tree behaves like std::map including scans.
class BPlusTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreePropertyTest, MatchesReferenceMap) {
  BPlusTree::Config config;
  config.value_size = 8;
  config.max_nodes = 1 << 13;
  BPlusTree tree(config);
  std::map<uint64_t, uint64_t> reference;
  Xoshiro256 rng(GetParam() * 977);
  for (int op = 0; op < 3000; ++op) {
    const uint64_t key = rng.NextBounded(500);
    const int action = static_cast<int>(rng.NextBounded(5));
    if (action <= 1) {
      const uint64_t value = rng.Next();
      EXPECT_EQ(tree.Insert(key, &value),
                reference.emplace(key, value).second);
    } else if (action == 2) {
      EXPECT_EQ(tree.Remove(key), reference.erase(key) == 1);
    } else if (action == 3) {
      uint64_t value = 0;
      const bool found = tree.Get(key, &value);
      const auto it = reference.find(key);
      ASSERT_EQ(found, it != reference.end());
      if (found) {
        EXPECT_EQ(value, it->second);
      }
    } else {
      const uint64_t lo = key;
      const uint64_t hi = key + 50;
      std::vector<uint64_t> got;
      tree.Scan(lo, hi, [&](uint64_t k, const void*) {
        got.push_back(k);
        return true;
      });
      std::vector<uint64_t> expect;
      for (auto it = reference.lower_bound(lo);
           it != reference.end() && it->first <= hi; ++it) {
        expect.push_back(it->first);
      }
      ASSERT_EQ(got, expect);
    }
  }
  EXPECT_EQ(tree.size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- Stores inside HTM regions ----------------------------------------------
//
// Local transactions run store operations inside one HTM region, where
// traversals read node and bucket images and writes are buffered. These
// sweeps run batches of 1-8 operations per region against a std::map
// model: the results inside the region must match the model with the
// batch's earlier operations applied (read-your-writes over images), and
// an explicitly aborted batch (about 1 in 8) must leave the store exactly
// as the model without the batch.

enum StoreAction { kInsert, kPut, kRemove, kGet, kScan, kNumActions };

struct StoreOp {
  int action;
  uint64_t key;
  uint64_t value;
};

struct OpResult {
  bool ok = false;
  uint64_t value = 0;
  std::vector<std::pair<uint64_t, uint64_t>> rows;  // kScan only
  bool operator==(const OpResult& o) const {
    return ok == o.ok && value == o.value && rows == o.rows;
  }
};

constexpr uint64_t kScanSpan = 40;

OpResult ApplyModel(std::map<uint64_t, uint64_t>* model, const StoreOp& op) {
  OpResult r;
  const auto it = model->find(op.key);
  switch (op.action) {
    case kInsert:
      r.ok = model->emplace(op.key, op.value).second;
      break;
    case kPut:
      r.ok = it != model->end();
      if (r.ok) {
        it->second = op.value;
      }
      break;
    case kRemove:
      r.ok = it != model->end();
      if (r.ok) {
        model->erase(it);
      }
      break;
    case kGet:
      r.ok = it != model->end();
      r.value = r.ok ? it->second : 0;
      break;
    default:
      for (auto s = model->lower_bound(op.key);
           s != model->end() && s->first <= op.key + kScanSpan; ++s) {
        r.rows.emplace_back(s->first, s->second);
      }
      r.ok = !r.rows.empty();
      break;
  }
  return r;
}

OpResult ApplyTree(BPlusTree* tree, const StoreOp& op) {
  OpResult r;
  switch (op.action) {
    case kInsert:
      r.ok = tree->Insert(op.key, &op.value);
      break;
    case kPut:
      r.ok = tree->Put(op.key, &op.value);
      break;
    case kRemove:
      r.ok = tree->Remove(op.key);
      break;
    case kGet:
      r.ok = tree->Get(op.key, &r.value);
      break;
    default:
      tree->Scan(op.key, op.key + kScanSpan, [&](uint64_t k, const void* v) {
        uint64_t value;
        std::memcpy(&value, v, sizeof(value));
        r.rows.emplace_back(k, value);
        return true;
      });
      r.ok = !r.rows.empty();
      break;
  }
  return r;
}

OpResult ApplyHash(ClusterHashTable* table, const StoreOp& op) {
  OpResult r;
  switch (op.action) {
    case kInsert:
      r.ok = table->Insert(op.key, &op.value);
      break;
    case kPut:
      r.ok = table->Put(op.key, &op.value);
      break;
    case kRemove:
      r.ok = table->Remove(op.key);
      break;
    default:
      r.ok = table->Get(op.key, &r.value);
      break;
  }
  return r;
}

// Runs `batches` random batches through apply() inside HTM regions and
// checks them against the model. `actions` bounds the op kinds drawn.
template <typename Apply, typename Size>
void RunHtmBatches(uint64_t seed, int batches, uint64_t key_range,
                   int actions, Apply apply, Size size) {
  std::map<uint64_t, uint64_t> reference;
  Xoshiro256 rng(seed);
  htm::HtmThread htm;
  int aborted = 0;
  for (int batch = 0; batch < batches; ++batch) {
    std::vector<StoreOp> ops(1 + rng.NextBounded(8));
    for (StoreOp& op : ops) {
      op.action = static_cast<int>(rng.NextBounded(actions));
      op.key = rng.NextBounded(key_range);
      op.value = rng.Next();
    }
    const bool abort = rng.NextBounded(8) == 0;
    std::vector<OpResult> got;
    const unsigned status = htm.Transact([&] {
      got.clear();
      for (const StoreOp& op : ops) {
        got.push_back(apply(op));
      }
      if (abort) {
        htm.Abort(7);
      }
    });
    if (abort) {
      ASSERT_NE(status, htm::kCommitted);
      ASSERT_EQ(htm::AbortUserCode(status), 7u);
      ++aborted;
    } else {
      ASSERT_EQ(status, htm::kCommitted) << "batch " << batch;
    }
    std::map<uint64_t, uint64_t> model = reference;
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_EQ(got[i], ApplyModel(&model, ops[i]))
          << "batch " << batch << " op " << i << " action " << ops[i].action
          << " key " << ops[i].key;
    }
    if (!abort) {
      reference = std::move(model);
    }
    // Committed or rolled back, the store outside a region is the model.
    for (const StoreOp& op : ops) {
      const StoreOp get{kGet, op.key, 0};
      ASSERT_EQ(apply(get), ApplyModel(&reference, get))
          << "batch " << batch << " key " << op.key;
    }
  }
  EXPECT_EQ(size(), reference.size());
  EXPECT_GT(aborted, 0);
}

class BPlusTreeHtmPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeHtmPropertyTest, BatchesMatchReferenceMap) {
  BPlusTree::Config config;
  config.value_size = 8;
  config.max_nodes = 1 << 13;
  BPlusTree tree(config);
  RunHtmBatches(
      GetParam() * 131, 600, 500, kNumActions,
      [&](const StoreOp& op) { return ApplyTree(&tree, op); },
      [&] { return tree.size(); });
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeHtmPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

class ClusterHashHtmPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ClusterHashHtmPropertyTest, BatchesMatchReferenceMap) {
  rdma::Fabric fabric(TestFabric(1));
  ClusterHashTable::Config config;
  config.main_buckets = 1 << 6;  // small: stress chaining
  config.indirect_buckets = 1 << 7;
  config.capacity = 1 << 11;
  config.value_size = 8;
  ClusterHashTable table(&fabric.memory(0), config);
  RunHtmBatches(
      GetParam() * 137, 600, 300, kScan,
      [&](const StoreOp& op) { return ApplyHash(&table, op); },
      [&] { return table.live_entries(); });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterHashHtmPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

// A leaf's header line holds its header and keys [0, 7); key 7 starts
// the second line, key 15 shares a line with the first values. Inserts
// and removes at the front, middle and end of one-leaf trees of 7, 8 and
// 16 keys cross each boundary (7 -> 8 adds the second key read, 16 ->
// 17 splits, 8 -> 7 drops it), inside HTM regions.
TEST(BPlusTreeHtmTest, LeafImageBoundaries) {
  for (const uint64_t n : {7, 8, 16}) {
    for (const int where : {0, 1, 2}) {  // front, middle, end
      BPlusTree::Config config;
      config.value_size = 8;
      config.max_nodes = 64;
      BPlusTree tree(config);
      std::map<uint64_t, uint64_t> reference;
      for (uint64_t k = 1; k <= n; ++k) {
        ASSERT_TRUE(tree.Insert(10 * k, &k));
        reference[10 * k] = k;
      }
      const uint64_t added = where == 0 ? 5 : where == 1 ? 10 * (n / 2) + 5
                                                         : 10 * n + 5;
      const uint64_t removed = where == 0 ? 10 : where == 1 ? 10 * (n / 2)
                                                            : 10 * n;
      htm::HtmThread htm;
      bool inserted = false;
      uint64_t seen = 0;
      ASSERT_EQ(htm.Transact([&] {
                  inserted = tree.Insert(added, &added);
                  tree.Get(added, &seen);  // read-your-writes in the image
                }),
                htm::kCommitted);
      ASSERT_TRUE(inserted);
      EXPECT_EQ(seen, added);
      reference[added] = added;
      bool gone = false;
      bool still_there = true;
      ASSERT_EQ(htm.Transact([&] {
                  gone = tree.Remove(removed);
                  still_there = tree.Get(removed, &seen);
                }),
                htm::kCommitted);
      ASSERT_TRUE(gone);
      EXPECT_FALSE(still_there);
      reference.erase(removed);
      // A rolled-back remove of the new key leaves it in place.
      EXPECT_NE(htm.Transact([&] {
                  tree.Remove(added);
                  htm.Abort(1);
                }),
                htm::kCommitted);

      std::vector<std::pair<uint64_t, uint64_t>> rows;
      ASSERT_EQ(htm.Transact([&] {
                  rows.clear();
                  tree.Scan(0, ~uint64_t{0}, [&](uint64_t k, const void* v) {
                    uint64_t value;
                    std::memcpy(&value, v, sizeof(value));
                    rows.emplace_back(k, value);
                    return true;
                  });
                }),
                htm::kCommitted);
      const std::vector<std::pair<uint64_t, uint64_t>> expect(
          reference.begin(), reference.end());
      EXPECT_EQ(rows, expect) << "n " << n << " where " << where;
      EXPECT_EQ(tree.size(), reference.size());
    }
  }
}

// A lookup reads only the lines that hold a leaf's live keys. Key 15's
// slot shares a line with the leaf's first values, so reading it would
// make a lookup in a leaf of fewer keys conflict with a Put of key 0.
TEST(BPlusTreeHtmTest, LookupDoesNotReadKeySlotsPastNumKeys) {
  BPlusTree::Config config;
  config.value_size = 8;
  config.max_nodes = 64;
  BPlusTree tree(config);
  for (uint64_t k = 0; k < 9; ++k) {
    ASSERT_TRUE(tree.Insert(k, &k));
  }
  htm::HtmThread htm;
  uint64_t value = 0;
  const unsigned status = htm.Transact([&] {
    ASSERT_TRUE(tree.Get(8, &value));  // value 8 sits past the first values
    std::thread writer([&] {
      htm::HtmThread other;
      const uint64_t v = 100;
      while (other.Transact([&] { tree.Put(0, &v); }) != htm::kCommitted) {
      }
    });
    writer.join();
  });
  EXPECT_EQ(status, htm::kCommitted);
  EXPECT_EQ(value, 8u);
  uint64_t v0 = 0;
  ASSERT_TRUE(tree.Get(0, &v0));
  EXPECT_EQ(v0, 100u);
}

// --- Leaf finger and insertion-point splits ---------------------------------
//
// Inside one region the tree starts at the leaf its last descent reached
// when the key is in that leaf's range. These check every way a finger
// could outlive the range it recorded: splits in the region itself, a
// rolled-back region, strong inserts between regions, and two trees in
// one region.

BPlusTree::Config FingerTreeConfig() {
  BPlusTree::Config config;
  config.value_size = 8;
  config.max_nodes = 1 << 10;
  return config;
}

// Every row of tree, read outside any region.
std::vector<std::pair<uint64_t, uint64_t>> AllRows(BPlusTree* tree) {
  std::vector<std::pair<uint64_t, uint64_t>> rows;
  tree->Scan(0, ~uint64_t{0}, [&](uint64_t k, const void* v) {
    uint64_t value;
    std::memcpy(&value, v, sizeof(value));
    rows.emplace_back(k, value);
    return true;
  });
  return rows;
}

// The tree holds exactly reference, by scan and by a lookup of each key.
void ExpectTreeIs(BPlusTree* tree,
                  const std::map<uint64_t, uint64_t>& reference) {
  const std::vector<std::pair<uint64_t, uint64_t>> expect(reference.begin(),
                                                          reference.end());
  EXPECT_EQ(AllRows(tree), expect);
  EXPECT_EQ(tree->size(), reference.size());
  for (const auto& [k, v] : reference) {
    uint64_t value = 0;
    ASSERT_TRUE(tree->Get(k, &value)) << k;
    EXPECT_EQ(value, v) << k;
  }
}

TEST(BPlusTreeFingerTest, AscendingRunAcrossSplitsInOneRegion) {
  BPlusTree tree(FingerTreeConfig());
  htm::HtmThread htm;
  std::map<uint64_t, uint64_t> reference;
  bool all_seen = false;
  ASSERT_EQ(htm.Transact([&] {
              all_seen = true;
              for (uint64_t k = 0; k < 300; ++k) {
                const uint64_t v = 3 * k;
                all_seen &= tree.Insert(k, &v);
                uint64_t seen = 0;
                all_seen &= tree.Get(k, &seen) && seen == v;
              }
              for (uint64_t k = 0; k < 300; ++k) {
                uint64_t seen = 0;
                all_seen &= tree.Get(k, &seen) && seen == 3 * k;
              }
            }),
            htm::kCommitted);
  EXPECT_TRUE(all_seen);
  for (uint64_t k = 0; k < 300; ++k) {
    reference[k] = 3 * k;
  }
  ExpectTreeIs(&tree, reference);
}

TEST(BPlusTreeFingerTest, FingerOfAbortedRegionIsNotReused) {
  BPlusTree tree(FingerTreeConfig());
  std::map<uint64_t, uint64_t> reference;
  for (uint64_t k = 0; k < 200; k += 2) {
    ASSERT_TRUE(tree.Insert(k, &k));
    reference[k] = k;
  }
  htm::HtmThread htm;
  // The rolled-back region leaves its finger on the tail leaf, whose
  // range is unbounded above (or on a tail leaf it split off itself).
  EXPECT_NE(htm.Transact([&] {
              uint64_t v;
              tree.Get(198, &v);
              tree.Insert(1000, &v);
              htm.Abort(1);
            }),
            htm::kCommitted);
  // Strong appends split that leaf (or reuse the rolled-back node ids):
  // the old tail leaf no longer covers the tail.
  for (uint64_t k = 200; k < 400; ++k) {
    ASSERT_TRUE(tree.Insert(k, &k));
    reference[k] = k;
  }
  bool ok = false;
  uint64_t got = 0;
  ASSERT_EQ(htm.Transact([&] {
              const uint64_t v = 7;
              ok = tree.Get(399, &got) && tree.Insert(1000, &v);
            }),
            htm::kCommitted);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, 399u);
  reference[1000] = 7;
  ExpectTreeIs(&tree, reference);
}

TEST(BPlusTreeFingerTest, StrongInsertBetweenRegionsIsRouted) {
  BPlusTree tree(FingerTreeConfig());
  std::map<uint64_t, uint64_t> reference;
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(tree.Insert(k, &k));
    reference[k] = k;
  }
  htm::HtmThread htm;
  uint64_t got = 0;
  // The finger: the one leaf, range unbounded.
  ASSERT_EQ(htm.Transact([&] { tree.Get(5, &got); }), htm::kCommitted);
  // Strong inserts split that leaf. Each must descend from the root: the
  // old leaf has room again after its split but no longer holds the tail.
  for (uint64_t k = 10; k < 60; ++k) {
    ASSERT_TRUE(tree.Insert(k, &k));
    reference[k] = k;
  }
  bool ok = false;
  ASSERT_EQ(htm.Transact([&] {
              const uint64_t v = 99;
              ok = tree.Get(17, &got) && tree.Insert(60, &v);
            }),
            htm::kCommitted);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, 17u);
  reference[60] = 99;
  ExpectTreeIs(&tree, reference);
}

TEST(BPlusTreeFingerTest, TwoTreesInterleavedInOneRegion) {
  BPlusTree a(FingerTreeConfig());
  BPlusTree b(FingerTreeConfig());
  std::map<uint64_t, uint64_t> ref_a;
  std::map<uint64_t, uint64_t> ref_b;
  // Different shapes, so one tree's leaf ids mean other ranges in the other.
  for (uint64_t k = 0; k < 300; k += 2) {
    ASSERT_TRUE(b.Insert(k, &k));
    ref_b[k] = k;
  }
  htm::HtmThread htm;
  bool ok = false;
  ASSERT_EQ(htm.Transact([&] {
              ok = true;
              for (uint64_t k = 0; k < 150; ++k) {
                const uint64_t va = k + 1000;
                const uint64_t vb = k + 2000;
                uint64_t seen = 0;
                ok &= a.Insert(k, &va);
                ok &= b.Insert(2 * k + 1, &vb);
                ok &= a.Get(k, &seen) && seen == va;
                ok &= b.Get(2 * k, &seen) && seen == 2 * k;
                ok &= b.Put(2 * k, &vb);
              }
            }),
            htm::kCommitted);
  EXPECT_TRUE(ok);
  for (uint64_t k = 0; k < 150; ++k) {
    ref_a[k] = k + 1000;
    ref_b[2 * k + 1] = k + 2000;
    ref_b[2 * k] = k + 2000;
  }
  ExpectTreeIs(&a, ref_a);
  ExpectTreeIs(&b, ref_b);
}

// New-order's shape: each region appends a run of 10 keys to one of 4
// ascending ranges (districts). Middle splits would leave the nodes
// about half full (~8,500 nodes for these 80,000 keys).
TEST(BPlusTreeFingerTest, AscendingRunsFillNodes) {
  constexpr uint64_t kRanges = 4;
  constexpr uint64_t kPerRange = 20000;
  constexpr uint64_t kRun = 10;
  BPlusTree::Config config;
  config.value_size = 8;
  config.max_nodes = 1 << 14;
  BPlusTree tree(config);
  std::vector<uint64_t> order;
  for (uint64_t r = 0; r < kRanges; ++r) {
    order.insert(order.end(), kPerRange / kRun, r);
  }
  Xoshiro256 rng(23);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  std::vector<uint64_t> next(kRanges, 0);
  htm::HtmThread htm;
  for (const uint64_t r : order) {
    const uint64_t base = (r << 32) | next[r];
    bool ok = false;
    ASSERT_EQ(htm.Transact([&] {
                ok = true;
                for (uint64_t j = 0; j < kRun; ++j) {
                  const uint64_t key = base + j;
                  ok &= tree.Insert(key, &key);
                }
              }),
              htm::kCommitted);
    ASSERT_TRUE(ok);
    next[r] += kRun;
  }
  ASSERT_EQ(tree.size(), kRanges * kPerRange);
  const double keys_per_node =
      static_cast<double>(tree.size()) / static_cast<double>(tree.node_count());
  EXPECT_GE(keys_per_node, 12.0) << tree.node_count() << " nodes";
  for (uint64_t r = 0; r < kRanges; ++r) {
    for (uint64_t i = 0; i < kPerRange; i += 997) {
      uint64_t v = 0;
      ASSERT_TRUE(tree.Get((r << 32) | i, &v));
      EXPECT_EQ(v, (r << 32) | i);
    }
  }
}

// Removes leave emptied leaves in the chain. A scan must end at the leaf
// whose range holds hi rather than walk on through them looking for a
// key past hi: here the walk to the last live key would take more lines
// than the read set holds.
TEST(BPlusTreeFingerTest, ScanEndsAtHisLeafPastEmptiedLeaves) {
  BPlusTree tree(FingerTreeConfig());
  for (uint64_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(tree.Insert(k, &k));
  }
  for (uint64_t k = 0; k < 2999; ++k) {
    if (k != 50) {
      ASSERT_TRUE(tree.Remove(k));
    }
  }
  htm::Config htm_config;
  htm_config.max_read_lines = 64;  // fewer lines than the tree has leaves
  htm::HtmThread htm(htm_config);
  std::vector<uint64_t> seen;
  for (const uint64_t lo : {0, 40, 60}) {
    ASSERT_EQ(htm.Transact([&] {
                seen.clear();
                tree.Scan(lo, 100, [&](uint64_t k, const void*) {
                  seen.push_back(k);
                  return true;
                });
              }),
              htm::kCommitted)
        << "lo " << lo;
    EXPECT_EQ(seen, lo <= 50 ? std::vector<uint64_t>{50}
                             : std::vector<uint64_t>{});
  }
}

// A region whose footprint overflows the read set can never commit, so
// TransactUntilCommitted must fail loudly rather than retry it forever:
// here a scan walking more emptied leaves than the read set holds.
TEST(BPlusTreeDeathTest, CapacityAbortInRetriedRegionFailsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BPlusTree::Config config;
  config.value_size = 8;
  config.max_nodes = 1 << 10;
  BPlusTree tree(config);
  for (uint64_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(tree.Insert(k, &k));
  }
  for (uint64_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(tree.Remove(k));
  }
  htm::Config htm_config;
  htm_config.max_read_lines = 64;  // fewer lines than the tree has leaves
  EXPECT_DEATH(
      {
        htm::HtmThread htm(htm_config);
        htm.TransactUntilCommitted([&] {
          tree.Scan(0, ~uint64_t{0}, [](uint64_t, const void*) {
            return true;
          });
        });
      },
      "capacity abort.*read lines 64 of 64");
}

}  // namespace
}  // namespace store
}  // namespace drtm
