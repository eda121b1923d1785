#include "src/elastic/admission.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/rdma/phase_scatter.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace elastic {

AdmissionController::AdmissionController(txn::Cluster* cluster, int node,
                                         AdmissionConfig config)
    : cluster_(cluster),
      node_(node),
      config_(config),
      tokens_(config.burst),
      last_refill_us_(MonotonicMicros()) {
  stat::Registry& reg = stat::Registry::Global();
  admitted_counter_ = reg.CounterId("elastic.admission.admitted");
  shed_counter_ = reg.CounterId("elastic.admission.shed");
  tokens_gauge_ = reg.GaugeId("elastic.admission.tokens");
}

double AdmissionController::Overload() const {
  const double q =
      static_cast<double>(cluster_->ServerQueueDepth(node_)) /
      static_cast<double>(std::max<int64_t>(config_.knee_queue_depth, 1));
  const double s =
      static_cast<double>(
          std::max<int64_t>(rdma::OutstandingForTarget(node_), 0)) /
      static_cast<double>(std::max<int64_t>(config_.knee_outstanding, 1));
  return std::max(1.0, std::max(q, s) * config_.latency_bias);
}

bool AdmissionController::Admit() {
  stat::Registry& reg = stat::Registry::Global();
  SpinLatchGuard guard(latch_);
  const uint64_t now = MonotonicMicros();
  const double overload = Overload();
  last_overload_ = overload;
  if (now > last_refill_us_) {
    const double elapsed = static_cast<double>(now - last_refill_us_);
    tokens_ = std::min(config_.burst,
                       tokens_ + elapsed * config_.base_rate_per_us / overload);
    last_refill_us_ = now;
  }
  reg.GaugeSet(tokens_gauge_, static_cast<int64_t>(tokens_));
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    ++admitted_;
    reg.Add(admitted_counter_);
    return true;
  }
  ++shed_;
  reg.Add(shed_counter_);
  return false;
}

double AdmissionController::LastOverload() const {
  SpinLatchGuard guard(latch_);
  return last_overload_;
}

}  // namespace elastic
}  // namespace drtm
