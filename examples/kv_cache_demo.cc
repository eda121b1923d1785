// DrTM-KV demo: remote GETs over one-sided RDMA with and without the
// location-based cache, printing the average number of RDMA READs per
// lookup (the metric of the paper's Table 4 / Fig. 10(d)).
#include <cstdio>
#include <vector>

#include "src/common/zipf.h"
#include "src/rdma/fabric.h"
#include "src/stat/metrics.h"
#include "src/store/cluster_hash.h"
#include "src/store/location_cache.h"
#include "src/store/remote_kv.h"

int main() {
  using namespace drtm;

  rdma::Fabric::Config config;
  config.num_nodes = 2;
  config.region_bytes = 256 << 20;
  config.latency = rdma::LatencyModel::Calibrated(0.1);
  rdma::Fabric fabric(config);

  store::ClusterHashTable::Config table_config;
  table_config.main_buckets = 1 << 14;
  table_config.indirect_buckets = 1 << 12;
  table_config.capacity = 1 << 17;
  table_config.value_size = 64;
  store::ClusterHashTable host(&fabric.memory(1), table_config);

  constexpr uint64_t kKeys = 100000;
  std::vector<uint8_t> value(64, 0xcd);
  for (uint64_t k = 0; k < kKeys; ++k) {
    host.Insert(k, value.data());
  }
  std::printf("host node 1 holds %llu key-value pairs\n",
              static_cast<unsigned long long>(host.live_entries()));

  ZipfGenerator zipf(kKeys, 0.99, 7);
  constexpr int kLookups = 20000;

  // Returns the registry delta over the run.
  auto run = [&](store::LocationCache* cache, const char* label) {
    store::RemoteKv client(&fabric, 1, host.geometry(), cache);
    stat::Registry& registry = stat::Registry::Global();
    const stat::Snapshot before = registry.TakeSnapshot();
    std::vector<uint8_t> out(64);
    int found = 0;
    for (int i = 0; i < kLookups; ++i) {
      found += client.Get(zipf.Next(), out.data()) ? 1 : 0;
    }
    const stat::Snapshot delta = registry.TakeSnapshot().DeltaSince(before);
    const double reads_per_lookup =
        static_cast<double>(delta.Counter("rdma.read.ops")) / kLookups;
    std::printf("%-28s %d/%d found, %.3f RDMA READs per GET\n", label, found,
                kLookups, reads_per_lookup);
    return delta;
  };

  run(nullptr, "uncached client:");
  store::LocationCache cache(16 << 20);  // 16 MB caches ~1M locations
  const stat::Snapshot cached = run(&cache, "location-cached client:");
  std::printf("cache: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(cached.Counter("cache.hit")),
              static_cast<unsigned long long>(cached.Counter("cache.miss")));
  return 0;
}
