// Shared helpers for the reproduction benchmarks. Each binary regenerates
// one table or figure of the paper and prints the paper's corresponding
// numbers next to the measured ones (absolute values differ — the
// substrate is a simulator on a small host — the reproduced target is the
// *shape*: who wins, by what rough factor, where the knees are).
//
// Environment knobs:
//   DRTM_BENCH_MS     per-point measure duration in ms (default per bench)
//   DRTM_BENCH_QUICK  when set, sweeps use fewer points
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/stat/bench_report.h"
#include "src/stat/metrics.h"
#include "src/stat/timer.h"

namespace drtm {
namespace benchutil {

inline uint64_t DurationMs(uint64_t dflt) {
  const char* env = std::getenv("DRTM_BENCH_MS");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : dflt;
}

inline bool Quick() { return std::getenv("DRTM_BENCH_QUICK") != nullptr; }

inline void Header(const char* id, const char* title) {
  std::printf("\n=== %s: %s ===\n", id, title);
}

inline void PaperNote(const char* note) { std::printf("paper: %s\n", note); }

// Runs `threads` copies of op for duration_ms and returns ops/sec.
// op(thread_index) performs one operation.
inline double MeasureOpsPerSec(int threads, uint64_t duration_ms,
                               const std::function<void(int)>& op) {
  std::atomic<bool> running{true};
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t local = 0;
      while (running.load(std::memory_order_acquire)) {
        op(t);
        ++local;
      }
      total.fetch_add(local);
    });
  }
  const uint64_t begin = MonotonicNanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  running.store(false, std::memory_order_release);
  const uint64_t end = MonotonicNanos();
  for (auto& thread : pool) {
    thread.join();
  }
  return static_cast<double>(total.load()) /
         (static_cast<double>(end - begin) / 1e9);
}

// Opens a report window: pre-registers the standard phase timers (so the
// report always carries the full histogram set) and returns the current
// registry state as the baseline to subtract at the end.
inline stat::Snapshot BeginReportWindow() {
  stat::RegisterStandardPhaseTimers();
  return stat::Registry::Global().TakeSnapshot();
}

// Closes the window opened by BeginReportWindow and writes
// BENCH_<report->bench>.json (honouring DRTM_BENCH_OUT).
inline std::string FinishReport(stat::BenchReport* report,
                                const stat::Snapshot& window_begin) {
  report->stats =
      stat::Registry::Global().TakeSnapshot().DeltaSince(window_begin);
  return report->WriteJsonFile();
}

// Convenience for sweep points: one labelled point with named values.
inline void AddPoint(
    stat::BenchReport::Series* series,
    std::vector<std::pair<std::string, std::string>> labels,
    std::vector<std::pair<std::string, double>> values) {
  series->points.push_back(
      stat::BenchReport::Point{std::move(labels), std::move(values)});
}

// num / den, or 0 for an empty window.
inline double Ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

// HTM regions attempted in a window, as perfbench counts them.
inline uint64_t HtmAttempts(const stat::Snapshot& window) {
  return window.Counter("htm.commit") + window.Counter("htm.abort.total");
}

// Transaction-level capacity aborts per HTM attempt in a window.
inline double CapacityAbortRate(const stat::Snapshot& window) {
  return Ratio(window.Counter("txn.capacity_abort"), HtmAttempts(window));
}

// One abort-cause breakdown point (transaction-level counts from a
// registry window), the same six keys in every bench so bench_diff
// trends line up.
inline void AddAbortCauses(
    stat::BenchReport::Series* series,
    std::vector<std::pair<std::string, std::string>> labels,
    const stat::Snapshot& window) {
  const auto count = [&](const char* name) {
    return static_cast<double>(window.Counter(name));
  };
  AddPoint(series, std::move(labels),
           {{"capacity_aborts", count("txn.capacity_abort")},
            {"conflict_aborts", count("txn.conflict_abort")},
            {"lock_aborts", count("txn.lock_abort")},
            {"lease_aborts", count("txn.lease_abort")},
            {"explicit_aborts", count("txn.user_abort")},
            {"fallbacks", count("txn.fallback")}});
}

}  // namespace benchutil
}  // namespace drtm

#endif  // BENCH_BENCH_UTIL_H_
