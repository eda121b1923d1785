// Shared TPC-C runners for the Fig. 12-16 / Table 6 benchmarks.
//
// Host-scaling note: the simulation runs every "machine" as threads on
// one small host, so aggregate wall-clock throughput saturates at the
// host's core count — machine-count sweeps therefore keep the *total*
// worker-thread count constant and spread it over more logical machines.
// What that preserves (and what the paper's figures are about): the
// relative cost of distribution, and the DrTM-vs-Calvin gap.
#ifndef BENCH_TPCC_BENCH_COMMON_H_
#define BENCH_TPCC_BENCH_COMMON_H_

#include <atomic>
#include <memory>

#include "bench/bench_util.h"
#include "src/txn/cluster.h"
#include "src/workload/driver.h"
#include "src/workload/tpcc.h"

namespace drtm {
namespace benchutil {

struct TpccOptions {
  int nodes = 2;
  int workers_per_node = 2;
  int warehouses_per_node = 2;
  uint64_t duration_ms = 800;
  uint64_t warmup_ms = 200;
  double latency_scale = 0.1;
  bool logging = false;
  bool new_order_only = false;
  double cross_warehouse_new_order = 0.01;  // <0 keeps the spec default
  std::function<void(txn::ClusterConfig*)> config_hook;
};

struct TpccOutcome {
  double mix_tps = 0;
  double neworder_tps = 0;
  workload::RunResult result;
  double capacity_abort_rate = 0;  // capacity aborts / HTM attempts
  double fallback_rate = 0;        // fallbacks / committed
  bool consistent = false;
};

inline TpccOutcome RunTpcc(const TpccOptions& options) {
  txn::ClusterConfig config;
  config.num_nodes = options.nodes;
  config.workers_per_node = options.workers_per_node;
  config.region_bytes = size_t{48} << 20;
  config.latency = rdma::LatencyModel::Calibrated(options.latency_scale);
  config.logging = options.logging;
  if (options.config_hook) {
    options.config_hook(&config);
  }
  txn::Cluster cluster(config);

  workload::TpccDb::Params params;
  params.warehouses = options.nodes * options.warehouses_per_node;
  params.customers_per_district = 100;
  params.items = 400;
  params.name_count = 30;
  params.initial_orders_per_district = 8;
  if (options.cross_warehouse_new_order >= 0) {
    params.cross_warehouse_new_order = options.cross_warehouse_new_order;
  }
  workload::TpccDb db(&cluster, params);
  cluster.Start();
  db.Load();

  std::atomic<uint64_t> neworder_committed{0};
  workload::RunOptions run;
  run.nodes = options.nodes;
  run.workers_per_node = options.workers_per_node;
  run.warmup_ms = options.warmup_ms;
  run.duration_ms = options.duration_ms;
  const workload::RunResult result =
      workload::RunWorkers(&cluster, run, [&](txn::Worker& worker) {
        if (options.new_order_only) {
          const bool ok =
              db.RunNewOrder(&worker) == txn::TxnStatus::kCommitted;
          if (ok) {
            neworder_committed.fetch_add(1, std::memory_order_relaxed);
          }
          return ok;
        }
        const auto mix = db.RunMix(&worker);
        const bool ok = mix.status == txn::TxnStatus::kCommitted;
        if (ok && mix.type == workload::TpccDb::TxnType::kNewOrder) {
          neworder_committed.fetch_add(1, std::memory_order_relaxed);
        }
        return ok;
      });

  TpccOutcome outcome;
  outcome.result = result;
  outcome.mix_tps = result.Throughput();
  outcome.neworder_tps =
      static_cast<double>(neworder_committed.load()) / result.seconds;
  outcome.capacity_abort_rate = CapacityAbortRate(result.stats_delta);
  outcome.fallback_rate =
      Ratio(result.stats_delta.Counter("txn.fallback"), result.committed);
  outcome.consistent = db.CheckConsistency();
  cluster.Stop();
  return outcome;
}

}  // namespace benchutil
}  // namespace drtm

#endif  // BENCH_TPCC_BENCH_COMMON_H_
