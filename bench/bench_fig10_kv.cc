// Figure 10: the DrTM-KV evaluation.
//  (a) one-sided RDMA READ throughput vs payload size;
//  (b) remote GET throughput vs value size for Pilaf, FaRM-KV/I,
//      FaRM-KV/O, DrTM-KV and DrTM-KV/$ (location cache);
//  (c) latency vs throughput at 64-byte values (client-thread sweep);
//  (d) DrTM-KV/$ throughput vs cache size, cold vs warm, uniform vs
//      Zipf(0.99).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/common/rand.h"
#include "src/common/zipf.h"
#include "src/rdma/fabric.h"
#include "src/store/cluster_hash.h"
#include "src/store/farm_hopscotch.h"
#include "src/store/location_cache.h"
#include "src/store/pilaf_cuckoo.h"
#include "src/store/remote_kv.h"

namespace {

using namespace drtm;

constexpr uint64_t kKeys = 50000;
constexpr double kLatencyScale = 0.25;  // calibrated model, shrunk for host

std::unique_ptr<rdma::Fabric> MakeFabric() {
  rdma::Fabric::Config config;
  config.num_nodes = 2;
  config.region_bytes = size_t{512} << 20;
  config.latency = rdma::LatencyModel::Calibrated(kLatencyScale);
  return std::make_unique<rdma::Fabric>(config);
}

struct KeyPicker {
  bool zipf_dist;
  std::unique_ptr<ZipfGenerator> zipf;
  Xoshiro256 rng;

  explicit KeyPicker(bool z, uint64_t seed)
      : zipf_dist(z),
        zipf(z ? std::make_unique<ZipfGenerator>(kKeys, 0.99, seed) : nullptr),
        rng(seed) {}
  uint64_t Next() {
    return zipf_dist ? zipf->Next() : rng.NextBounded(kKeys);
  }
};

// --- (a) raw READ throughput -------------------------------------------------

void PartA(uint64_t duration_ms, stat::BenchReport* report) {
  benchutil::Header("Fig 10(a)", "one-sided RDMA READ throughput vs payload");
  benchutil::PaperNote(
      "throughput decays with payload; ~26.3 Mops for small payloads on 40 "
      "client threads");
  auto fabric = MakeFabric();
  // Independent target regions per client (parallel NIC streams).
  const uint64_t offs[2] = {fabric->memory(1).Allocate(1 << 20),
                            fabric->memory(1).Allocate(1 << 20)};
  std::printf("%-10s %12s\n", "payload_B", "ops_per_sec");
  stat::BenchReport::Series& series = report->AddSeries("raw_read_tput");
  for (const size_t payload : {16u, 64u, 256u, 1024u, 4096u}) {
    std::vector<std::vector<uint8_t>> bufs(2,
                                           std::vector<uint8_t>(payload));
    const double ops = benchutil::MeasureOpsPerSec(
        2, duration_ms, [&](int t) {
          fabric->Read(1, offs[t], bufs[static_cast<size_t>(t)].data(),
                       payload);
        });
    std::printf("%-10zu %12.0f\n", payload, ops);
    benchutil::AddPoint(&series, {{"payload_B", std::to_string(payload)}},
                        {{"ops_per_sec", ops}});
  }
}

// --- (b)/(c)/(d) GET throughput ----------------------------------------------

enum class System { kPilaf, kFarmInline, kFarmOffset, kDrtm, kDrtmCached };

const char* Name(System system) {
  switch (system) {
    case System::kPilaf:
      return "pilaf";
    case System::kFarmInline:
      return "farm-kv/I";
    case System::kFarmOffset:
      return "farm-kv/O";
    case System::kDrtm:
      return "drtm-kv";
    case System::kDrtmCached:
      return "drtm-kv/$";
  }
  return "?";
}

struct Stores {
  std::unique_ptr<rdma::Fabric> fabric;
  std::unique_ptr<store::PilafCuckooTable> pilaf;
  std::unique_ptr<store::FarmHopscotchTable> farm_inline;
  std::unique_ptr<store::FarmHopscotchTable> farm_offset;
  std::unique_ptr<store::ClusterHashTable> drtm;
};

Stores BuildStores(uint32_t value_size) {
  Stores stores;
  stores.fabric = MakeFabric();
  std::vector<uint8_t> value(value_size, 0x5a);

  store::PilafCuckooTable::Config pilaf_config;
  pilaf_config.buckets = 1 << 16;  // ~76% occupancy, like the paper's runs
  pilaf_config.capacity = kKeys + 16;
  pilaf_config.value_size = value_size;
  stores.pilaf = std::make_unique<store::PilafCuckooTable>(
      &stores.fabric->memory(1), pilaf_config);

  store::FarmHopscotchTable::Config farm_config;
  farm_config.buckets = 1 << 17;
  farm_config.value_size = value_size;
  farm_config.mode = store::FarmHopscotchTable::Mode::kInlineValue;
  stores.farm_inline = std::make_unique<store::FarmHopscotchTable>(
      &stores.fabric->memory(1), farm_config);
  farm_config.mode = store::FarmHopscotchTable::Mode::kOffsetValue;
  stores.farm_offset = std::make_unique<store::FarmHopscotchTable>(
      &stores.fabric->memory(1), farm_config);

  store::ClusterHashTable::Config drtm_config;
  drtm_config.main_buckets = 1 << 14;
  drtm_config.indirect_buckets = 1 << 13;
  drtm_config.capacity = kKeys + 64;
  drtm_config.value_size = value_size;
  stores.drtm = std::make_unique<store::ClusterHashTable>(
      &stores.fabric->memory(1), drtm_config);

  for (uint64_t k = 0; k < kKeys; ++k) {
    stores.pilaf->Insert(k, value.data());
    stores.farm_inline->Insert(k, value.data());
    stores.farm_offset->Insert(k, value.data());
    stores.drtm->Insert(k, value.data());
  }
  return stores;
}

struct GetResult {
  double ops_per_sec;
  double mean_latency_us;
};

GetResult MeasureGets(Stores& stores, System system, uint32_t value_size,
                      int threads, uint64_t duration_ms, bool zipf_dist,
                      store::LocationCache* cache) {
  std::vector<KeyPicker> pickers;
  std::vector<std::unique_ptr<store::RemoteKv>> clients;
  for (int t = 0; t < threads; ++t) {
    pickers.emplace_back(zipf_dist, 100 + static_cast<uint64_t>(t));
    clients.push_back(std::make_unique<store::RemoteKv>(
        stores.fabric.get(), 1, stores.drtm->geometry(),
        (system == System::kDrtmCached) ? cache : nullptr));
  }
  std::vector<std::vector<uint8_t>> outs(
      static_cast<size_t>(threads), std::vector<uint8_t>(value_size));
  std::vector<Histogram> latencies(static_cast<size_t>(threads));
  const double ops = benchutil::MeasureOpsPerSec(
      threads, duration_ms, [&](int t) {
        const uint64_t key = pickers[static_cast<size_t>(t)].Next();
        uint8_t* out = outs[static_cast<size_t>(t)].data();
        const uint64_t begin = MonotonicNanos();
        int reads = 0;
        switch (system) {
          case System::kPilaf:
            stores.pilaf->RemoteGet(stores.fabric.get(), 1, key, out, &reads);
            break;
          case System::kFarmInline:
            stores.farm_inline->RemoteGet(stores.fabric.get(), 1, key, out,
                                          &reads);
            break;
          case System::kFarmOffset:
            stores.farm_offset->RemoteGet(stores.fabric.get(), 1, key, out,
                                          &reads);
            break;
          case System::kDrtm:
          case System::kDrtmCached:
            clients[static_cast<size_t>(t)]->Get(key, out);
            break;
        }
        latencies[static_cast<size_t>(t)].Record(
            (MonotonicNanos() - begin) / 1000);
      });
  Histogram merged;
  for (const Histogram& h : latencies) {
    merged.Merge(h);
  }
  return GetResult{ops, merged.Mean()};
}

void PartB(uint64_t duration_ms, stat::BenchReport* report) {
  benchutil::Header("Fig 10(b)", "GET throughput vs value size (uniform)");
  benchutil::PaperNote(
      "farm-kv/I wins only at small values (single READ, amplified size); "
      "drtm-kv/$ best overall (2.09x farm-kv/O, 2.74x pilaf at 128 B)");
  const std::vector<uint32_t> sizes =
      benchutil::Quick() ? std::vector<uint32_t>{64, 512}
                         : std::vector<uint32_t>{16, 64, 128, 256, 512, 1024};
  std::printf("%-8s %10s %12s %12s %10s %12s\n", "value_B", "pilaf",
              "farm-kv/I", "farm-kv/O", "drtm-kv", "drtm-kv/$");
  stat::BenchReport::Series& series = report->AddSeries("get_tput_vs_value");
  for (const uint32_t size : sizes) {
    Stores stores = BuildStores(size);
    store::LocationCache cache(8 << 20);
    double results[5];
    for (const System system :
         {System::kPilaf, System::kFarmInline, System::kFarmOffset,
          System::kDrtm, System::kDrtmCached}) {
      results[static_cast<int>(system)] =
          MeasureGets(stores, system, size, 2, duration_ms, false, &cache)
              .ops_per_sec;
      benchutil::AddPoint(&series,
                          {{"value_B", std::to_string(size)},
                           {"system", Name(system)}},
                          {{"ops_per_sec", results[static_cast<int>(system)]}});
    }
    std::printf("%-8u %10.0f %12.0f %12.0f %10.0f %12.0f\n", size, results[0],
                results[1], results[2], results[3], results[4]);
  }
}

void PartC(uint64_t duration_ms, stat::BenchReport* report) {
  benchutil::Header("Fig 10(c)", "latency vs throughput at 64 B values");
  benchutil::PaperNote(
      "farm-kv/I: lowest latency, poorest peak; drtm-kv ~ farm-kv/O; "
      "drtm-kv/$ both lowest latency and highest throughput");
  Stores stores = BuildStores(64);
  std::printf("%-10s %8s %12s %12s\n", "system", "threads", "ops_per_sec",
              "mean_us");
  const std::vector<int> thread_counts =
      benchutil::Quick() ? std::vector<int>{2} : std::vector<int>{1, 2, 4};
  stat::BenchReport::Series& series = report->AddSeries("latency_vs_tput");
  for (const System system :
       {System::kPilaf, System::kFarmInline, System::kFarmOffset,
        System::kDrtm, System::kDrtmCached}) {
    store::LocationCache cache(8 << 20);
    for (const int threads : thread_counts) {
      const GetResult result =
          MeasureGets(stores, system, 64, threads, duration_ms, false, &cache);
      std::printf("%-10s %8d %12.0f %12.1f\n", Name(system), threads,
                  result.ops_per_sec, result.mean_latency_us);
      benchutil::AddPoint(&series,
                          {{"system", Name(system)},
                           {"threads", std::to_string(threads)}},
                          {{"ops_per_sec", result.ops_per_sec},
                           {"mean_us", result.mean_latency_us}});
    }
  }
}

void PartD(uint64_t duration_ms, stat::BenchReport* report) {
  benchutil::Header("Fig 10(d)", "DrTM-KV/$ throughput vs cache size");
  benchutil::PaperNote(
      "a full-location cache reaches raw-READ throughput; skewed workloads "
      "tolerate small caches (20 MB of 320 MB still 19.1 of 25.1 Mops); "
      "uniform drops fast; cold ~ warm thanks to whole-bucket fetches");
  Stores stores = BuildStores(64);
  // Full location footprint here: main+indirect buckets * 144 B/frame.
  const size_t full = (1 << 14) * 2 * (sizeof(store::Bucket) + 16);
  std::printf("%-10s %12s %10s %12s\n", "cache", "dist", "state",
              "ops_per_sec");
  const std::vector<size_t> cache_sizes =
      benchutil::Quick()
          ? std::vector<size_t>{full / 16, full}
          : std::vector<size_t>{full / 64, full / 16, full / 4, full};
  stat::BenchReport::Series& series = report->AddSeries("cache_sweep");
  for (const bool zipf_dist : {false, true}) {
    for (const size_t cache_bytes : cache_sizes) {
      for (const bool warm : {false, true}) {
        store::LocationCache cache(cache_bytes);
        if (warm) {
          // 10-second warmup in the paper; here: one full pass.
          store::RemoteKv warmer(stores.fabric.get(), 1,
                                 stores.drtm->geometry(), &cache);
          std::vector<uint8_t> out(64);
          KeyPicker picker(zipf_dist, 55);
          for (uint64_t i = 0; i < kKeys; ++i) {
            warmer.Get(picker.Next(), out.data());
          }
        }
        const GetResult result = MeasureGets(stores, System::kDrtmCached, 64,
                                             2, duration_ms, zipf_dist,
                                             &cache);
        std::printf("%-10zu %12s %10s %12.0f\n", cache_bytes,
                    zipf_dist ? "zipf" : "uniform", warm ? "warm" : "cold",
                    result.ops_per_sec);
        benchutil::AddPoint(&series,
                            {{"cache_bytes", std::to_string(cache_bytes)},
                             {"dist", zipf_dist ? "zipf" : "uniform"},
                             {"state", warm ? "warm" : "cold"}},
                            {{"ops_per_sec", result.ops_per_sec}});
      }
    }
  }
}

// --- (e) chain-walk cost: scalar vs hint-pipelined ---------------------------

void PartE(stat::BenchReport* report) {
  benchutil::Header("Fig 10(e)",
                    "bucket-chain walk cost: doorbells per lookup");
  benchutil::PaperNote(
      "chain-shape hints let a revalidation walk post the whole predicted "
      "chain as one doorbell batch instead of one round trip per hop");
  auto fabric = MakeFabric();
  // Deliberately chain-heavy: ~3 entries per main-bucket slot force
  // multi-hop walks, the case doorbell batching targets.
  const uint64_t keys = benchutil::Quick() ? 3000 : 10000;
  store::ClusterHashTable::Config config;
  config.main_buckets = benchutil::Quick() ? (1 << 7) : (1 << 9);
  config.indirect_buckets = 1 << 10;
  config.capacity = 1 << 14;
  config.value_size = 64;
  store::ClusterHashTable table(&fabric->memory(1), config);
  std::vector<uint8_t> value(64, 0x5a);
  for (uint64_t k = 0; k < keys; ++k) {
    table.Insert(k, value.data());
  }
  std::printf("%-14s %18s %22s\n", "walk", "reads_per_lookup",
              "doorbells_per_lookup");
  stat::BenchReport::Series& series = report->AddSeries("lookup_cost");
  const auto add = [&](const char* walk, double reads, double doorbells) {
    std::printf("%-14s %18.2f %22.2f\n", walk, reads, doorbells);
    benchutil::AddPoint(&series, {{"walk", walk}},
                        {{"reads_per_lookup", reads},
                         {"doorbells_per_lookup", doorbells}});
  };

  // Scalar walk: no hints, so every hop is its own doorbell.
  {
    store::RemoteKv client(fabric.get(), 1, table.geometry());
    uint64_t reads = 0;
    uint64_t doorbells = 0;
    for (uint64_t k = 0; k < keys; ++k) {
      const store::RemoteEntryRef ref = client.Lookup(k);
      reads += static_cast<uint64_t>(ref.rdma_reads);
      doorbells += static_cast<uint64_t>(ref.rdma_doorbells);
    }
    add("uncached", double(reads) / double(keys),
        double(doorbells) / double(keys));
  }

  // Revalidation walk: the cache knows every chain's shape but each
  // content snapshot has been dropped (what an incarnation miss does).
  // The walk refetches every hop, pipelined into one doorbell.
  {
    store::LocationCache cache(8 << 20);
    store::RemoteKv client(fabric.get(), 1, table.geometry(), &cache);
    std::vector<uint8_t> out(64);
    for (uint64_t k = 0; k < keys; ++k) {
      client.Get(k, out.data());
    }
    uint64_t reads = 0;
    uint64_t doorbells = 0;
    for (uint64_t k = 0; k < keys; ++k) {
      uint64_t cur = table.geometry().MainBucketOffset(k);
      while (cur != store::kInvalidOffset) {
        cache.Invalidate(cur);
        uint64_t next = store::kInvalidOffset;
        if (!cache.NextHint(cur, &next)) {
          break;
        }
        cur = next;
      }
      const store::RemoteEntryRef ref = client.Lookup(k);
      reads += static_cast<uint64_t>(ref.rdma_reads);
      doorbells += static_cast<uint64_t>(ref.rdma_doorbells);
    }
    add("revalidation", double(reads) / double(keys),
        double(doorbells) / double(keys));
  }
}

}  // namespace

int main() {
  const uint64_t duration_ms = benchutil::DurationMs(300);
  const stat::Snapshot window = benchutil::BeginReportWindow();
  stat::BenchReport report;
  report.bench = "fig10_kv";
  report.title = "DrTM-KV evaluation (raw READ, GET sweeps, location cache)";
  report.AddConfig("duration_ms", std::to_string(duration_ms));
  report.AddConfig("latency_scale", std::to_string(kLatencyScale));
  report.AddConfig("keys", std::to_string(kKeys));
  report.AddConfig("quick", benchutil::Quick() ? "1" : "0");
  PartA(duration_ms, &report);
  PartB(duration_ms, &report);
  PartC(duration_ms, &report);
  PartD(duration_ms, &report);
  PartE(&report);
  benchutil::FinishReport(&report, window);
  return 0;
}
