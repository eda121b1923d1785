// Figure 17: the read-lease micro-benchmarks.
//
//  * read-write: transactions access 10 records (10% of accesses remote,
//    like a 10% cross-warehouse new-order); a varying fraction of the
//    accesses are reads. Without leases every remote read takes the
//    exclusive lock, so added read-share exposes no extra concurrency;
//    with leases throughput climbs with the read ratio.
//  * hotspot: transactions access 10 records of which one is a *read* of
//    a small global hot set (120 records spread over all machines).
//    Leases let all machines share the hot records; exclusive locking
//    serializes on them. The paper measures up to 29% improvement at 6
//    machines.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/workload/driver.h"

namespace {

using namespace drtm;

struct Setup {
  std::unique_ptr<txn::Cluster> cluster;
  int table;
};

Setup MakeCluster(int nodes, int workers, bool lease) {
  txn::ClusterConfig config;
  config.num_nodes = nodes;
  config.workers_per_node = workers;
  config.region_bytes = 24 << 20;
  config.latency = rdma::LatencyModel::Calibrated(0.5);
  config.enable_read_lease = lease;
  // Paper-like proportions: short leases (0.4 ms there) relative to
  // transaction length, so writers wait bounded time for readers.
  config.lease_rw_us = 800;
  config.lease_ro_us = 1500;
  config.softtime_interval_us = 50;
  config.delta_us = 100;
  Setup setup;
  setup.cluster = std::make_unique<txn::Cluster>(config);
  txn::TableSpec spec;
  spec.value_size = 8;
  spec.capacity = 1 << 14;
  spec.main_buckets = 1 << 11;
  spec.indirect_buckets = 1 << 10;
  spec.partition = [](uint64_t key) { return static_cast<int>(key >> 32); };
  setup.table = setup.cluster->AddTable(spec);
  setup.cluster->Start();
  for (int node = 0; node < nodes; ++node) {
    for (uint64_t i = 0; i < 4000; ++i) {
      const uint64_t v = 1;
      setup.cluster
          ->hash_table(node, setup.table)
          ->Insert((static_cast<uint64_t>(node) << 32) | i, &v);
    }
  }
  return setup;
}

// One read-write transaction: 10 records, `read_pct` of the accesses are
// reads, ~10% of the records remote (the paper derives this micro from a
// 10% cross-warehouse new-order). Remote picks are NURand-skewed so
// concurrent remote readers genuinely share records.
bool ReadWriteTxn(Setup& setup, txn::Worker& worker, int read_pct) {
  Xoshiro256& rng = worker.rng();
  const int nodes = setup.cluster->num_nodes();
  std::vector<std::pair<uint64_t, bool>> records;  // key, is_write
  for (int i = 0; i < 10; ++i) {
    int node = worker.node();
    uint64_t index;
    if (nodes > 1 && rng.Bernoulli(0.10)) {
      do {
        node =
            static_cast<int>(rng.NextBounded(static_cast<uint64_t>(nodes)));
      } while (node == worker.node());
      // Mild skew over a wide range, like new-order's NURand item picks:
      // readers share the popular records while writers rarely land on a
      // leased one.
      index = (rng.NextBounded(64) | rng.NextBounded(4000)) % 4000;
    } else {
      index = rng.NextBounded(4000);
    }
    const uint64_t key = (static_cast<uint64_t>(node) << 32) | index;
    const bool is_write =
        static_cast<int>(rng.NextBounded(100)) >= read_pct;
    bool duplicate = false;
    for (auto& [existing, write] : records) {
      if (existing == key) {
        write |= is_write;
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      records.emplace_back(key, is_write);
    }
  }
  txn::Transaction txn(&worker);
  for (const auto& [key, is_write] : records) {
    if (is_write) {
      txn.AddWrite(setup.table, key);
    } else {
      txn.AddRead(setup.table, key);
    }
  }
  return txn.Run([&](txn::Transaction& t) {
    for (const auto& [key, is_write] : records) {
      uint64_t value = 0;
      if (!t.Read(setup.table, key, &value)) {
        return false;
      }
      if (is_write) {
        ++value;
        if (!t.Write(setup.table, key, &value)) {
          return false;
        }
      }
    }
    return true;
  }) == txn::TxnStatus::kCommitted;
}

// Hotspot transaction: 9 local skewless writes plus one read of a global
// hot set of 120 records spread over all machines.
bool HotspotTxn(Setup& setup, txn::Worker& worker) {
  Xoshiro256& rng = worker.rng();
  const int nodes = setup.cluster->num_nodes();
  const uint64_t hot_index = rng.NextBounded(120);
  const int hot_node = static_cast<int>(hot_index % static_cast<uint64_t>(nodes));
  const uint64_t hot_key = (static_cast<uint64_t>(hot_node) << 32) |
                           (hot_index / static_cast<uint64_t>(nodes));
  txn::Transaction txn(&worker);
  std::vector<uint64_t> writes;
  for (int i = 0; i < 9; ++i) {
    const uint64_t key = (static_cast<uint64_t>(worker.node()) << 32) |
                         (200 + rng.NextBounded(3800));
    writes.push_back(key);
    txn.AddWrite(setup.table, key);
  }
  txn.AddRead(setup.table, hot_key);
  return txn.Run([&](txn::Transaction& t) {
    uint64_t hot = 0;
    if (!t.Read(setup.table, hot_key, &hot)) {
      return false;
    }
    for (const uint64_t key : writes) {
      uint64_t value = 0;
      if (!t.Read(setup.table, key, &value)) {
        return false;
      }
      ++value;
      if (!t.Write(setup.table, key, &value)) {
        return false;
      }
    }
    return true;
  }) == txn::TxnStatus::kCommitted;
}

double Measure(int nodes, int workers, bool lease, uint64_t duration_ms,
               const std::function<bool(Setup&, txn::Worker&)>& body) {
  Setup setup = MakeCluster(nodes, workers, lease);
  workload::RunOptions run;
  run.nodes = nodes;
  run.workers_per_node = workers;
  run.warmup_ms = 150;
  run.duration_ms = duration_ms;
  run.record_latency = false;
  const workload::RunResult result = workload::RunWorkers(
      setup.cluster.get(), run,
      [&](txn::Worker& worker) { return body(setup, worker); });
  setup.cluster->Stop();
  return result.Throughput() / nodes;  // per-node, like the paper
}

}  // namespace

int main() {
  const uint64_t duration_ms = benchutil::DurationMs(600);
  benchutil::Header("Fig 17", "read-lease micro-benchmarks (per-node tps)");
  benchutil::PaperNote(
      "read-write: without leases the read ratio barely helps; with leases "
      "throughput grows with reads. hotspot: lease improvement grows with "
      "machines, up to 29%% at 6");

  stat::BenchReport report;
  report.bench = "fig17_lease";
  report.title = "read-lease micro-benchmarks (per-node tps)";
  report.AddConfig("duration_ms", std::to_string(duration_ms));
  report.AddConfig("quick", benchutil::Quick() ? "1" : "0");
  const stat::Snapshot window = stat::Registry::Global().TakeSnapshot();

  std::printf("-- read-write transaction (3 machines) --\n");
  std::printf("%-9s %14s %14s %10s\n", "read%%", "lease_tps", "nolease_tps",
              "gain");
  const std::vector<int> ratios = benchutil::Quick()
                                      ? std::vector<int>{0, 90}
                                      : std::vector<int>{0, 30, 60, 90, 100};
  stat::BenchReport::Series& rw_series = report.AddSeries("read_write");
  for (const int read_pct : ratios) {
    const double with_lease =
        Measure(3, 2, true, duration_ms, [&](Setup& s, txn::Worker& w) {
          return ReadWriteTxn(s, w, read_pct);
        });
    const double without_lease =
        Measure(3, 2, false, duration_ms, [&](Setup& s, txn::Worker& w) {
          return ReadWriteTxn(s, w, read_pct);
        });
    std::printf("%-9d %14.0f %14.0f %9.1f%%\n", read_pct, with_lease,
                without_lease,
                (with_lease / without_lease - 1.0) * 100);
    benchutil::AddPoint(&rw_series,
                        {{"read_pct", std::to_string(read_pct)}},
                        {{"lease_tps", with_lease},
                         {"nolease_tps", without_lease},
                         {"gain", with_lease / without_lease - 1.0}});
  }

  std::printf("-- hotspot transaction --\n");
  std::printf("%-9s %14s %14s %10s\n", "machines", "lease_tps", "nolease_tps",
              "gain");
  const std::vector<int> machines =
      benchutil::Quick() ? std::vector<int>{2} : std::vector<int>{2, 3, 4};
  stat::BenchReport::Series& hot_series = report.AddSeries("hotspot");
  for (const int m : machines) {
    const double with_lease =
        Measure(m, 1, true, duration_ms, HotspotTxn);
    const double without_lease =
        Measure(m, 1, false, duration_ms, HotspotTxn);
    std::printf("%-9d %14.0f %14.0f %9.1f%%\n", m, with_lease, without_lease,
                (with_lease / without_lease - 1.0) * 100);
    benchutil::AddPoint(&hot_series, {{"machines", std::to_string(m)}},
                        {{"lease_tps", with_lease},
                         {"nolease_tps", without_lease},
                         {"gain", with_lease / without_lease - 1.0}});
  }

  // Scatter-engine doorbell accounting over the whole run (the ro_lease
  // phase is the one this micro-benchmark exercises hardest).
  report.stats = stat::Registry::Global().TakeSnapshot().DeltaSince(window);
  {
    stat::BenchReport::Series& s = report.AddSeries("scatter_phases");
    for (const char* phase :
         {"lookup", "start_lock", "prefetch", "writeback", "ro_lease"}) {
      const std::string base = std::string("rdma.scatter.") + phase + ".";
      const double rounds =
          static_cast<double>(report.stats.Counter(base + "rounds"));
      const double doorbells =
          static_cast<double>(report.stats.Counter(base + "doorbells"));
      benchutil::AddPoint(
          &s, {{"phase", phase}},
          {{"rounds", rounds},
           {"doorbells", doorbells},
           {"overlap_saved_ns",
            static_cast<double>(
                report.stats.Counter(base + "overlap_saved_ns"))},
           {"doorbells_per_round", rounds > 0 ? doorbells / rounds : 0}});
    }
  }
  report.WriteJsonFile();
  return 0;
}
