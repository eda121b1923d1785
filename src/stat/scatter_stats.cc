#include "src/stat/scatter_stats.h"

#include <string>

#include "src/stat/metrics.h"

namespace drtm {
namespace stat {

ScatterPhaseIds RegisterScatterPhase(std::string_view phase) {
  Registry& reg = Registry::Global();
  const std::string prefix = "rdma.scatter." + std::string(phase);
  ScatterPhaseIds ids;
  ids.rounds = reg.CounterId(prefix + ".rounds");
  ids.doorbells = reg.CounterId(prefix + ".doorbells");
  ids.wqes = reg.CounterId(prefix + ".wqes");
  ids.overlap_saved_ns = reg.CounterId(prefix + ".overlap_saved_ns");
  ids.targets = reg.TimerId(prefix + ".targets");
  return ids;
}

#define DRTM_SCATTER_PHASE(fn, name)                          \
  const ScatterPhaseIds& fn() {                               \
    static const ScatterPhaseIds ids = RegisterScatterPhase(name); \
    return ids;                                               \
  }

DRTM_SCATTER_PHASE(ScatterLookupIds, "lookup")
DRTM_SCATTER_PHASE(ScatterStartLockIds, "start_lock")
DRTM_SCATTER_PHASE(ScatterPrefetchIds, "prefetch")
DRTM_SCATTER_PHASE(ScatterWritebackIds, "writeback")
DRTM_SCATTER_PHASE(ScatterRoLeaseIds, "ro_lease")

#undef DRTM_SCATTER_PHASE

}  // namespace stat
}  // namespace drtm
