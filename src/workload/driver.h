// Multi-threaded closed-loop benchmark driver: N worker threads per node
// run a workload step function for a fixed duration after a warmup, and
// the per-thread commit counts and latencies are merged.
#ifndef SRC_WORKLOAD_DRIVER_H_
#define SRC_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <functional>

#include "src/common/histogram.h"
#include "src/stat/metrics.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace workload {

struct RunResult {
  double seconds = 0;
  uint64_t committed = 0;
  uint64_t attempted = 0;
  Histogram latency_us;
  // Global-registry delta covering only the measured window (the warmup
  // is excluded): counters by name plus phase/RDMA histograms. The
  // registry is the only counter store, so every per-run count (HTM
  // outcomes, fallbacks, RDMA ops) is read from here.
  stat::Snapshot stats_delta;

  double Throughput() const {
    return seconds > 0 ? static_cast<double>(committed) / seconds : 0;
  }
  double AbortRate() const {
    return attempted > 0
               ? 1.0 - static_cast<double>(committed) /
                           static_cast<double>(attempted)
               : 0;
  }
};

struct RunOptions {
  int nodes = 1;             // worker threads are spread over nodes 0..nodes-1
  int workers_per_node = 1;
  uint64_t warmup_ms = 200;
  uint64_t duration_ms = 1000;
  bool record_latency = true;
};

// step returns true when the attempt committed. Each worker thread gets
// its own txn::Worker bound to node (thread_index % nodes).
RunResult RunWorkers(txn::Cluster* cluster, const RunOptions& options,
                     const std::function<bool(txn::Worker&)>& step);

}  // namespace workload
}  // namespace drtm

#endif  // SRC_WORKLOAD_DRIVER_H_
