// Per-node admission control: a token bucket whose refill rate is
// keyed off the two congestion signals the simulation exposes — the
// node's server-thread RPC backlog (Cluster::ServerQueueDepth) and the
// doorbell-batched send-queue outstanding-window occupancy toward the
// node (rdma::OutstandingForTarget). Past a knee the refill
// rate falls proportionally to the overload, so new transactions are
// shed at the door instead of queueing into the latency cliff.
//
// The latency_bias knob trades tail latency against shed rate: > 1
// treats a given backlog as proportionally more overloaded (sheds
// earlier, keeps p99 flat), < 1 rides closer to the knee.
//
// Exported: counters elastic.admission.admitted / elastic.admission.shed
// and gauge elastic.admission.tokens (the post-refill level observed by
// the most recent Admit()).
#ifndef SRC_ELASTIC_ADMISSION_H_
#define SRC_ELASTIC_ADMISSION_H_

#include <atomic>
#include <cstdint>

#include "src/common/spin_latch.h"
#include "src/txn/cluster.h"

namespace drtm {
namespace elastic {

struct AdmissionConfig {
  // Refill rate when unloaded, tokens per microsecond. One token admits
  // one transaction, so this is also the unloaded admit ceiling in
  // txns/us per node.
  double base_rate_per_us = 1.0;
  // Bucket capacity: the burst admitted from idle.
  double burst = 64.0;
  // Backlog knees: at a queue depth / outstanding window of exactly the
  // knee, the refill rate starts dropping (rate = base / overload).
  int64_t knee_queue_depth = 48;
  int64_t knee_outstanding = 64;
  // Latency-vs-shed knob (see file comment).
  double latency_bias = 1.0;
};

class AdmissionController {
 public:
  AdmissionController(txn::Cluster* cluster, int node, AdmissionConfig config);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Called at transaction entry. True: admitted (one token consumed).
  // False: shed at the door — the caller drops or redirects the request
  // without touching the txn layer. Thread-safe; callers on the same
  // node share the bucket.
  bool Admit();

  // The overload factor the last refill saw (>= 1.0 means at/past the
  // knee). Exposed for tests and the resharding bench's knee probe.
  double LastOverload() const;

  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }

 private:
  double Overload() const;

  txn::Cluster* cluster_;
  const int node_;
  const AdmissionConfig config_;

  mutable SpinLatch latch_;
  double tokens_;
  uint64_t last_refill_us_;
  double last_overload_ = 1.0;
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};

  uint32_t admitted_counter_;
  uint32_t shed_counter_;
  uint32_t tokens_gauge_;
};

}  // namespace elastic
}  // namespace drtm

#endif  // SRC_ELASTIC_ADMISSION_H_
