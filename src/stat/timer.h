// Scoped phase timers: RAII stopwatches recording elapsed nanoseconds
// into a registry histogram. The timer id comes from Registry::TimerId
// and is typically resolved once per site via a function-local static.
//
//   static const uint32_t kId =
//       stat::Registry::Global().TimerId("phase.htm_attempt_ns");
//   { stat::ScopedTimer timer(kId); ... timed region ... }
//
// Phase-timer naming convention: "phase.<name>_ns". The standard phases
// instrumented by the transaction and RDMA layers:
//   phase.htm_attempt_ns     one HTM region attempt (body + commit)
//   phase.fallback_ns        one full fallback (2PL) execution
//   phase.lock_acquire_ns    exclusive-lock acquisition (RDMA CAS loop)
//   phase.lease_wait_ns      shared-lease acquisition (read + CAS loop);
//                            a read-only attempt's lease + prefetch
//   phase.commit_ns          write-back + unlock after XEND
//   phase.log_append_ns      one NVRAM log append
#ifndef SRC_STAT_TIMER_H_
#define SRC_STAT_TIMER_H_

#include <cstdint>

#include "src/common/clock.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace stat {

class ScopedTimer {
 public:
  explicit ScopedTimer(uint32_t timer_id,
                       Registry* registry = &Registry::Global())
      : registry_(registry), timer_id_(timer_id), begin_(MonotonicNanos()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (registry_ != nullptr) {
      registry_->Record(timer_id_, MonotonicNanos() - begin_);
    }
  }

  // Abandons the measurement (e.g. the phase ended on an error path the
  // caller does not want polluting the distribution).
  void Cancel() { registry_ = nullptr; }

 private:
  Registry* registry_;
  uint32_t timer_id_;
  uint64_t begin_;
};

// Pre-registers the standard phase timers listed above so that every
// snapshot (and hence every bench report) carries the full histogram
// set, including phases that never fired in this process.
inline void RegisterStandardPhaseTimers(
    Registry& registry = Registry::Global()) {
  registry.TimerId("phase.htm_attempt_ns");
  registry.TimerId("phase.fallback_ns");
  registry.TimerId("phase.lock_acquire_ns");
  registry.TimerId("phase.lease_wait_ns");
  registry.TimerId("phase.commit_ns");
  registry.TimerId("phase.log_append_ns");
}

}  // namespace stat
}  // namespace drtm

#endif  // SRC_STAT_TIMER_H_
