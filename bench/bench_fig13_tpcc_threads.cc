// Figure 13: TPC-C throughput vs worker threads per machine, including
// the DrTM(S) configuration (two logical nodes per machine, which the
// paper uses to sidestep the non-NUMA-friendly B+ tree) and a Calvin
// point at its hard-coded 8 threads.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/calvin_tpcc_common.h"
#include "bench/tpcc_bench_common.h"
#include "src/replay/recorder.h"

int main() {
  using namespace drtm;
  const uint64_t duration_ms = benchutil::DurationMs(800);
  benchutil::Header("Fig 13", "TPC-C throughput vs threads per machine");
  benchutil::PaperNote(
      "DrTM scales to 8 threads (5.56x); beyond a socket the B+ tree "
      "degrades; DrTM(S) with 2 logical nodes reaches 8.29x at 16 threads; "
      "Calvin runs only at 8 threads, far below");

  constexpr int kMachines = 2;
  const std::vector<int> thread_counts =
      benchutil::Quick() ? std::vector<int>{1, 4}
                         : std::vector<int>{1, 2, 4, 8};

  stat::RegisterStandardPhaseTimers();
  stat::BenchReport report;
  report.bench = "fig13_tpcc_threads";
  report.title = "TPC-C throughput vs threads per machine";
  report.AddConfig("machines", std::to_string(kMachines));
  report.AddConfig("duration_ms", std::to_string(duration_ms));
  report.AddConfig("quick", benchutil::Quick() ? "1" : "0");
  stat::BenchReport::Series& mix_series = report.AddSeries("drtm_mix");
  stat::BenchReport::Series& abort_series = report.AddSeries("abort_causes");

  std::printf("%-9s %14s %14s %10s\n", "threads", "drtm_neworder",
              "drtm_mix_tps", "speedup");
  double base_mix = 0;
  for (const int threads : thread_counts) {
    benchutil::TpccOptions options;
    options.nodes = kMachines;
    options.workers_per_node = threads;
    options.warehouses_per_node = 4;
    options.duration_ms = duration_ms;
    const benchutil::TpccOutcome drtm = benchutil::RunTpcc(options);
    if (base_mix == 0) {
      base_mix = drtm.mix_tps;
    }
    std::printf("%-9d %14.0f %14.0f %9.2fx%s\n", threads, drtm.neworder_tps,
                drtm.mix_tps, drtm.mix_tps / base_mix,
                drtm.consistent ? "" : "  (CONSISTENCY FAIL)");
    benchutil::AddPoint(&mix_series, {{"threads", std::to_string(threads)}},
                        {{"mix_tps", drtm.mix_tps},
                         {"neworder_tps", drtm.neworder_tps},
                         {"speedup", drtm.mix_tps / base_mix},
                         {"fallback_rate", drtm.fallback_rate},
                         {"consistent", drtm.consistent ? 1.0 : 0.0}});
    // Abort-cause breakdown per thread count (ROADMAP: abort-mix
    // measurement) — what drives the scaling losses at each point.
    benchutil::AddAbortCauses(&abort_series,
                              {{"threads", std::to_string(threads)}},
                              drtm.result.stats_delta);
    report.stats.Merge(drtm.result.stats_delta);
  }

  // DrTM(S): the same hardware presented as twice the logical nodes with
  // half the threads each; cross-"socket" interaction uses the RDMA path.
  {
    benchutil::TpccOptions options;
    options.nodes = kMachines * 2;
    options.workers_per_node = thread_counts.back() / 2;
    options.warehouses_per_node = 2;
    options.duration_ms = duration_ms;
    const benchutil::TpccOutcome drtm_s = benchutil::RunTpcc(options);
    std::printf("%-9s %14.0f %14.0f %9.2fx\n", "DrTM(S)", drtm_s.neworder_tps,
                drtm_s.mix_tps, drtm_s.mix_tps / base_mix);
    stat::BenchReport::Series& s = report.AddSeries("drtm_s");
    benchutil::AddPoint(
        &s,
        {{"logical_nodes", std::to_string(kMachines * 2)},
         {"threads", std::to_string(thread_counts.back() / 2)}},
        {{"mix_tps", drtm_s.mix_tps}, {"neworder_tps", drtm_s.neworder_tps}});
    report.stats.Merge(drtm_s.result.stats_delta);
  }

  // Record-mode overhead at the 4-thread point: the same mix run twice,
  // replay recorder disarmed vs armed (per-thread ring pushes + the
  // publish-hook write-set capture are the entire cost — the gate stays
  // open in record mode). The budget is <= 10% on mix_tps;
  // record_overhead_pct is lower-is-better for bench_diff.
  {
    benchutil::TpccOptions options;
    options.nodes = kMachines;
    options.workers_per_node = 4;
    options.warehouses_per_node = 4;
    options.duration_ms = duration_ms;
    const benchutil::TpccOutcome off = benchutil::RunTpcc(options);
    replay::Recorder::Global().Arm(replay::Recorder::Config{});
    const benchutil::TpccOutcome on = benchutil::RunTpcc(options);
    replay::Recorder::Global().Disarm();
    const double overhead_pct =
        off.mix_tps > 0 ? (off.mix_tps - on.mix_tps) / off.mix_tps * 100.0
                        : 0.0;
    std::printf("%-9s %14.0f %14.0f %8.1f%%\n", "record@4", off.mix_tps,
                on.mix_tps, overhead_pct);
    stat::BenchReport::Series& s = report.AddSeries("record_overhead");
    benchutil::AddPoint(&s, {{"threads", "4"}},
                        {{"mix_tps_record_off", off.mix_tps},
                         {"mix_tps_record_on", on.mix_tps},
                         {"record_overhead_pct", overhead_pct}});
  }

  // Calvin's single point (its release is hard-coded to 8 workers).
  {
    benchutil::CalvinTpccOptions calvin;
    calvin.nodes = kMachines;
    calvin.workers_per_node = 8;
    calvin.warehouses_per_node = 4;
    calvin.clients = 8;
    calvin.duration_ms = duration_ms;
    const double calvin_tps = RunCalvinTpccNewOrder(calvin);
    std::printf("%-9s %14s %14.0f\n", "calvin@8", "-", calvin_tps);
    stat::BenchReport::Series& s = report.AddSeries("calvin");
    benchutil::AddPoint(&s, {{"threads", "8"}},
                        {{"neworder_tps", calvin_tps}});
  }

  // Scatter-engine observability (merged over every DrTM run above):
  // doorbells each phase rang, how many scatter rounds they rode on, and
  // the modeled latency the cross-target overlap saved — plus the 2PL
  // fallback's latency tail.
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
           {"wqes", static_cast<double>(report.stats.Counter(base + "wqes"))},
           {"overlap_saved_ns",
            static_cast<double>(
                report.stats.Counter(base + "overlap_saved_ns"))},
           {"doorbells_per_round", rounds > 0 ? doorbells / rounds : 0}});
    }
    stat::BenchReport::Series& lat = report.AddSeries("fallback_latency");
    const Histogram* hist = report.stats.Hist("phase.fallback_ns");
    benchutil::AddPoint(
        &lat, {{"metric", "phase.fallback_ns"}},
        {{"p50_ns",
          hist ? static_cast<double>(hist->Percentile(50)) : 0.0},
         {"p99_ns",
          hist ? static_cast<double>(hist->Percentile(99)) : 0.0},
         {"count", hist ? static_cast<double>(hist->count()) : 0.0}});
  }

  report.WriteJsonFile();
  return 0;
}
