// HTM capacity stress: YCSB update transactions with value sizes swept
// toward the write-set line budget (htm::Config::max_write_lines x 64 B
// cache lines, ~32 KB by default). Once a value no longer fits, every
// HTM attempt aborts with kAbortCapacity deterministically — retrying is
// pure waste. The monolithic run (`adaptive`) shows the adaptive retry
// budget at work: it stops retrying a capacity-dominant mix and reaches
// the 2PL fallback sooner. The `chopped` run adds the chop planner
// (ClusterConfig::enable_chop_planner), which slices the oversized write
// into a chain of budget-sized WriteRange pieces that commit in HTM —
// flattening the capacity cliff instead of falling back over it.
// The abort_causes series records the per-size cause breakdown
// (capacity / conflict / lock / lease / explicit) for both runs.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/workload/driver.h"
#include "src/workload/ycsb.h"

namespace {

using namespace drtm;

struct Outcome {
  double tps = 0;
  double capacity_abort_rate = 0;  // capacity aborts / HTM attempts
  double fallback_rate = 0;        // fallbacks / committed
  int64_t retry_budget = 0;        // txn.adaptive.retry_budget at the end
  stat::Snapshot stats;
};

Outcome Measure(uint32_t value_size, bool chop, uint64_t duration_ms) {
  txn::ClusterConfig config;
  config.num_nodes = 2;
  config.workers_per_node = 2;
  config.region_bytes = size_t{96} << 20;
  config.latency = rdma::LatencyModel::Calibrated(0.1);
  config.enable_chop_planner = chop;
  txn::Cluster cluster(config);

  workload::YcsbDb::Params params;
  params.records_per_node = 1024;
  params.value_size = value_size;
  params.mix = workload::YcsbDb::Mix::kA;
  // Update-only: the line budget constrains writes, and 36 KB lease
  // reads cost the same everywhere — they would only dilute the sweep.
  params.update_fraction = 1.0;
  params.distribution = workload::YcsbDb::Distribution::kUniform;
  params.ops_per_txn = 1;
  workload::YcsbDb db(&cluster, params);
  cluster.Start();
  db.Load();

  workload::RunOptions run;
  run.nodes = config.num_nodes;
  run.workers_per_node = config.workers_per_node;
  run.warmup_ms = 100;
  run.duration_ms = duration_ms;
  run.record_latency = false;
  const workload::RunResult result = workload::RunWorkers(
      &cluster, run,
      [&](txn::Worker& worker) { return db.RunTxn(&worker).committed; });
  cluster.Stop();

  Outcome out;
  out.tps = result.Throughput();
  out.capacity_abort_rate = benchutil::CapacityAbortRate(result.stats_delta);
  out.fallback_rate = benchutil::Ratio(
      result.stats_delta.Counter("txn.fallback"), result.committed);
  out.retry_budget = result.stats_delta.Gauge("txn.adaptive.retry_budget");
  out.stats = result.stats_delta;
  return out;
}

}  // namespace

int main() {
  const uint64_t duration_ms = benchutil::DurationMs(500);
  benchutil::Header("capacity", "YCSB-A vs HTM write-set capacity");
  benchutil::PaperNote(
      "values past the write-line budget (512 lines x 64 B) abort every "
      "HTM attempt; the adaptive budget stops retrying them and the chop "
      "planner slices them into chains that commit in HTM");

  // The write-set budget in bytes, from the default htm::Config.
  const htm::Config htm_defaults;
  const size_t budget_bytes = htm_defaults.max_write_lines * 64;
  const std::vector<uint32_t> value_sizes =
      benchutil::Quick()
          ? std::vector<uint32_t>{4096, static_cast<uint32_t>(budget_bytes +
                                                              4096)}
          : std::vector<uint32_t>{1024, 8192,
                                  static_cast<uint32_t>(budget_bytes / 2),
                                  static_cast<uint32_t>(budget_bytes - 4096),
                                  static_cast<uint32_t>(budget_bytes + 4096),
                                  static_cast<uint32_t>(budget_bytes + 16384)};

  stat::BenchReport report;
  report.bench = "capacity_ycsb";
  report.title = "YCSB-A vs HTM write-set capacity";
  report.AddConfig("duration_ms", std::to_string(duration_ms));
  report.AddConfig("write_budget_bytes", std::to_string(budget_bytes));
  report.AddConfig("quick", benchutil::Quick() ? "1" : "0");
  stat::BenchReport::Series& chopped_series = report.AddSeries("chopped");
  stat::BenchReport::Series& adaptive_series = report.AddSeries("adaptive");
  stat::BenchReport::Series& abort_series = report.AddSeries("abort_causes");

  std::printf("%-12s %12s %12s %10s %10s %8s\n", "value_bytes", "chop_tps",
              "adapt_tps", "cap_abort", "fallback", "budget");
  for (const uint32_t value_size : value_sizes) {
    const Outcome chopped = Measure(value_size, true, duration_ms);
    const Outcome adaptive = Measure(value_size, false, duration_ms);
    std::printf("%-12u %12.0f %12.0f %9.1f%% %9.2f %8lld\n", value_size,
                chopped.tps, adaptive.tps, chopped.capacity_abort_rate * 100,
                chopped.fallback_rate,
                static_cast<long long>(adaptive.retry_budget));
    benchutil::AddPoint(
        &chopped_series, {{"value_bytes", std::to_string(value_size)}},
        {{"tps", chopped.tps},
         {"capacity_abort_rate", chopped.capacity_abort_rate},
         {"fallback_rate", chopped.fallback_rate}});
    benchutil::AddPoint(
        &adaptive_series, {{"value_bytes", std::to_string(value_size)}},
        {{"tps", adaptive.tps},
         {"capacity_abort_rate", adaptive.capacity_abort_rate},
         {"fallback_rate", adaptive.fallback_rate},
         {"retry_budget", static_cast<double>(adaptive.retry_budget)}});
    benchutil::AddAbortCauses(
        &abort_series,
        {{"value_bytes", std::to_string(value_size)}, {"config", "chopped"}},
        chopped.stats);
    benchutil::AddAbortCauses(
        &abort_series,
        {{"value_bytes", std::to_string(value_size)}, {"config", "monolithic"}},
        adaptive.stats);
    report.stats.Merge(chopped.stats);
  }

  report.WriteJsonFile();
  return 0;
}
