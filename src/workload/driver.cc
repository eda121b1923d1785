#include "src/workload/driver.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/barrier.h"
#include "src/common/clock.h"

namespace drtm {
namespace workload {

RunResult RunWorkers(txn::Cluster* cluster, const RunOptions& options,
                     const std::function<bool(txn::Worker&)>& step) {
  const int total_threads = options.nodes * options.workers_per_node;
  Barrier start_barrier(static_cast<size_t>(total_threads) + 1);
  std::atomic<bool> warming{true};
  std::atomic<bool> running{true};

  RunResult result;
  std::mutex result_mu;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(total_threads));

  for (int i = 0; i < total_threads; ++i) {
    const int node = i % options.nodes;
    const int worker_id = i / options.nodes;
    threads.emplace_back([&, node, worker_id] {
      txn::Worker worker(cluster, node, worker_id);
      start_barrier.Wait();
      while (warming.load(std::memory_order_acquire)) {
        (void)step(worker);
      }
      uint64_t committed = 0;
      uint64_t attempted = 0;
      Histogram latency;
      while (running.load(std::memory_order_acquire)) {
        const uint64_t begin =
            options.record_latency ? MonotonicNanos() : 0;
        const bool ok = step(worker);
        ++attempted;
        if (ok) {
          ++committed;
          if (options.record_latency) {
            latency.Record((MonotonicNanos() - begin) / 1000);
          }
        }
      }
      std::lock_guard<std::mutex> lock(result_mu);
      result.committed += committed;
      result.attempted += attempted;
      result.latency_us.Merge(latency);
    });
  }

  start_barrier.Wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(options.warmup_ms));
  warming.store(false, std::memory_order_release);
  const stat::Snapshot stats_begin = stat::Registry::Global().TakeSnapshot();
  const uint64_t measure_begin = MonotonicNanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(options.duration_ms));
  running.store(false, std::memory_order_release);
  const uint64_t measure_end = MonotonicNanos();
  for (auto& thread : threads) {
    thread.join();
  }
  result.seconds =
      static_cast<double>(measure_end - measure_begin) / 1e9;
  result.stats_delta =
      stat::Registry::Global().TakeSnapshot().DeltaSince(stats_begin);
  return result;
}

}  // namespace workload
}  // namespace drtm
