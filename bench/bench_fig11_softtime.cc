// Figure 11 (ablation): softtime acquisition strategies.
//
// DrTM's timer thread publishes softtime; a transaction that reads the
// softtime word *transactionally* conflicts with the timer. Strategy (b)
// reads it in every local operation; DrTM's default (c) reuses the
// Start-phase value and reads softtime transactionally only for the
// lease confirmation right before commit. The ablation drives a
// lease-heavy workload (remote readers keep local records leased, so
// local writers must check lease expiry) and reports throughput and HTM
// abort rates across softtime update intervals.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/workload/driver.h"

namespace {

using namespace drtm;

struct Outcome {
  double tps;
  double htm_abort_rate;
};

Outcome Run(bool read_every_op, uint64_t interval_us, uint64_t duration_ms) {
  txn::ClusterConfig config;
  config.num_nodes = 2;
  config.workers_per_node = 2;
  config.region_bytes = 24 << 20;
  config.latency = rdma::LatencyModel::Calibrated(0.05);
  config.softtime_read_every_local_op = read_every_op;
  config.softtime_interval_us = interval_us;
  config.delta_us = interval_us + 100;
  config.lease_rw_us = 8000;
  txn::Cluster cluster(config);
  txn::TableSpec spec;
  spec.value_size = 8;
  spec.capacity = 1 << 12;
  spec.partition = [](uint64_t key) { return static_cast<int>(key >> 32); };
  const int table = cluster.AddTable(spec);
  cluster.Start();
  for (int node = 0; node < 2; ++node) {
    for (uint64_t i = 0; i < 64; ++i) {
      const uint64_t v = 0;
      cluster.hash_table(node, table)->Insert(
          (static_cast<uint64_t>(node) << 32) | i, &v);
    }
  }
  workload::RunOptions run;
  run.nodes = 2;
  run.workers_per_node = 2;
  run.warmup_ms = 100;
  run.duration_ms = duration_ms;
  run.record_latency = false;
  const workload::RunResult result =
      workload::RunWorkers(&cluster, run, [&](txn::Worker& worker) {
        Xoshiro256& rng = worker.rng();
        // Half the workers read remote hot records (installing leases on
        // the peer's records); the other half write local hot records
        // (whose lease checks consult softtime).
        if (worker.worker_id() == 0) {
          const int peer = 1 - worker.node();
          txn::Transaction txn(&worker);
          const uint64_t key =
              (static_cast<uint64_t>(peer) << 32) | rng.NextBounded(64);
          txn.AddRead(table, key);
          return txn.Run([&](txn::Transaction& t) {
            uint64_t v;
            return t.Read(table, key, &v);
          }) == txn::TxnStatus::kCommitted;
        }
        txn::Transaction txn(&worker);
        const uint64_t key = (static_cast<uint64_t>(worker.node()) << 32) |
                             rng.NextBounded(64);
        txn.AddWrite(table, key);
        return txn.Run([&](txn::Transaction& t) {
          uint64_t v;
          if (!t.Read(table, key, &v)) {
            return false;
          }
          ++v;
          return t.Write(table, key, &v);
        }) == txn::TxnStatus::kCommitted;
      });
  cluster.Stop();
  const stat::Snapshot& window = result.stats_delta;
  return Outcome{result.Throughput(),
                 benchutil::Ratio(window.Counter("htm.abort.total"),
                                  benchutil::HtmAttempts(window))};
}

}  // namespace

int main() {
  const uint64_t duration_ms = benchutil::DurationMs(500);
  benchutil::Header("Fig 11 (ablation)", "softtime strategy vs false aborts");
  benchutil::PaperNote(
      "reading softtime transactionally in every local op (b) widens the "
      "conflict window with the timer; DrTM (c) reuses the Start value and "
      "reads fresh softtime only at lease confirmation");

  std::printf("%-22s %12s %10s %12s\n", "strategy", "interval_us", "tps",
              "htm_aborts");
  const std::vector<uint64_t> intervals =
      benchutil::Quick() ? std::vector<uint64_t>{100}
                         : std::vector<uint64_t>{50, 200, 1000};
  for (const uint64_t interval : intervals) {
    const Outcome every = Run(true, interval, duration_ms);
    const Outcome confirm = Run(false, interval, duration_ms);
    std::printf("%-22s %12llu %10.0f %11.2f%%\n", "(b) every local op",
                static_cast<unsigned long long>(interval), every.tps,
                every.htm_abort_rate * 100);
    std::printf("%-22s %12llu %10.0f %11.2f%%\n", "(c) confirm only",
                static_cast<unsigned long long>(interval), confirm.tps,
                confirm.htm_abort_rate * 100);
  }
  return 0;
}
