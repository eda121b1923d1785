// TPC-C demo: a small cluster runs the standard mix for a second and
// reports per-type throughput plus the database consistency check.
#include <atomic>
#include <cstdio>

#include "src/workload/driver.h"
#include "src/workload/tpcc.h"

int main() {
  using namespace drtm;

  txn::ClusterConfig config;
  config.num_nodes = 2;
  config.workers_per_node = 2;
  config.region_bytes = 96 << 20;
  config.latency = rdma::LatencyModel::Calibrated(0.1);
  txn::Cluster cluster(config);

  workload::TpccDb::Params params;
  params.warehouses = 4;
  params.customers_per_district = 120;
  params.items = 500;
  workload::TpccDb db(&cluster, params);

  cluster.Start();
  db.Load();
  std::printf("loaded %d warehouses over %d nodes\n", params.warehouses,
              config.num_nodes);

  std::atomic<uint64_t> per_type[5] = {};
  workload::RunOptions options;
  options.nodes = config.num_nodes;
  options.workers_per_node = config.workers_per_node;
  options.warmup_ms = 200;
  options.duration_ms = 1000;
  const workload::RunResult result =
      workload::RunWorkers(&cluster, options, [&](txn::Worker& worker) {
        const auto mix = db.RunMix(&worker);
        if (mix.status == txn::TxnStatus::kCommitted) {
          per_type[static_cast<int>(mix.type)].fetch_add(1);
          return true;
        }
        return false;
      });

  static const char* kNames[5] = {"new-order", "payment", "order-status",
                                  "delivery", "stock-level"};
  std::printf("standard-mix throughput: %.0f txns/sec (abort rate %.2f%%)\n",
              result.Throughput(), result.AbortRate() * 100);
  for (int i = 0; i < 5; ++i) {
    std::printf("  %-12s %8llu committed\n", kNames[i],
                static_cast<unsigned long long>(per_type[i].load()));
  }
  std::printf("latency (us): %s\n", result.latency_us.Summary().c_str());
  const stat::Snapshot& s = result.stats_delta;
  std::printf("HTM: %llu commits, %llu aborts; fallbacks: %llu\n",
              static_cast<unsigned long long>(s.Counter("htm.commit")),
              static_cast<unsigned long long>(s.Counter("htm.abort.total")),
              static_cast<unsigned long long>(s.Counter("txn.fallback")));

  const bool consistent = db.CheckConsistency();
  std::printf("consistency check: %s\n", consistent ? "PASS" : "FAIL");
  cluster.Stop();
  return consistent ? 0 : 1;
}
