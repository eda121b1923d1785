// Per-phase counters for the cross-node scatter-gather phase engine
// (rdma::PhaseScatter). Each transaction phase that scatters doorbells
// across target nodes gets its own counter set, so BENCH_*.json reports
// can show doorbells-per-phase and how much latency the overlap saved:
//
//   rdma.scatter.<phase>.rounds            gather rounds executed
//   rdma.scatter.<phase>.doorbells         doorbells rung (1 per target)
//   rdma.scatter.<phase>.wqes              WQEs those doorbells carried
//   rdma.scatter.<phase>.overlap_saved_ns  sum(batch_ns) - max(batch_ns),
//                                          the serial-posting cost the
//                                          overlap avoided
//   rdma.scatter.<phase>.targets           histogram: targets per round
#ifndef SRC_STAT_SCATTER_STATS_H_
#define SRC_STAT_SCATTER_STATS_H_

#include <cstdint>
#include <string_view>

namespace drtm {
namespace stat {

struct ScatterPhaseIds {
  uint32_t rounds = 0;
  uint32_t doorbells = 0;
  uint32_t wqes = 0;
  uint32_t overlap_saved_ns = 0;
  uint32_t targets = 0;  // timer id (histogram)
};

// Registers (idempotently) the counter set for one phase name.
ScatterPhaseIds RegisterScatterPhase(std::string_view phase);

// Canonical phase sets used by the transaction layer and the remote KV
// client, resolved once per process.
const ScatterPhaseIds& ScatterLookupIds();     // chain-walk lookups
const ScatterPhaseIds& ScatterStartLockIds();  // Start: lock CAS + probes
const ScatterPhaseIds& ScatterPrefetchIds();   // Start: value prefetch
const ScatterPhaseIds& ScatterWritebackIds();  // Commit: write-back+unlock
const ScatterPhaseIds& ScatterRoLeaseIds();    // read-only lease + confirm

}  // namespace stat
}  // namespace drtm

#endif  // SRC_STAT_SCATTER_STATS_H_
