#include "src/rdma/phase_scatter.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace rdma {

namespace {

struct BatchIds {
  uint32_t doorbells = 0;
  uint32_t wqes = 0;
  uint32_t size = 0;
  uint32_t batch_ns = 0;
};

const BatchIds& Batch() {
  static const BatchIds ids = [] {
    stat::Registry& reg = stat::Registry::Global();
    BatchIds b;
    b.doorbells = reg.CounterId("rdma.batch.doorbells");
    b.wqes = reg.CounterId("rdma.batch.wqes");
    b.size = reg.TimerId("rdma.batch.size");
    b.batch_ns = reg.TimerId("rdma.batch_ns");
    return b;
  }();
  return ids;
}

void CountDoorbell(size_t wqes, uint64_t batch_ns) {
  stat::Registry& reg = stat::Registry::Global();
  reg.Add(Batch().doorbells);
  reg.Add(Batch().wqes, wqes);
  reg.Record(Batch().size, wqes);
  reg.Record(Batch().batch_ns, batch_ns);
}

}  // namespace

PhaseScatter::PhaseScatter(Fabric& fabric, const stat::ScatterPhaseIds* ids)
    : fabric_(fabric), ids_(ids) {}

void PhaseScatter::PostRead(int target, WrId wr_id, uint64_t offset,
                            void* dst, size_t len) {
  Enqueue(target, Wqe{Wqe::kRead, wr_id, offset, dst, nullptr, len, 0, 0});
}

void PhaseScatter::PostWrite(int target, WrId wr_id, uint64_t offset,
                             const void* src, size_t len) {
  Enqueue(target, Wqe{Wqe::kWrite, wr_id, offset, nullptr, src, len, 0, 0});
}

void PhaseScatter::PostCas(int target, WrId wr_id, uint64_t offset,
                           uint64_t expected, uint64_t desired) {
  Enqueue(target, Wqe{Wqe::kCas, wr_id, offset, nullptr, nullptr, 0,
                      expected, desired});
}

void PhaseScatter::PostFaa(int target, WrId wr_id, uint64_t offset,
                           uint64_t delta) {
  Enqueue(target, Wqe{Wqe::kFaa, wr_id, offset, nullptr, nullptr, 0, 0, delta});
}

void PhaseScatter::Enqueue(int target, const Wqe& wqe) {
  auto it = std::find_if(queues_.begin(), queues_.end(),
                         [&](const Queue& q) { return q.target == target; });
  if (it == queues_.end()) {
    queues_.push_back(Queue{target, {}});
    it = queues_.end() - 1;
  }
  it->wqes.push_back(wqe);
  if (it->wqes.size() >= kMaxOutstanding) {
    Stamp(*it, MonotonicNanos());
    Drain(*it, &early_);
  }
}

size_t PhaseScatter::Gather(std::vector<Completion>* out) {
  // Scatter: ring every target's doorbell back to back without waiting.
  // Each batch's deadline is stamped from the same instant, so their
  // modeled in-flight windows overlap in wall time.
  const uint64_t now = MonotonicNanos();
  size_t wqes = 0;
  size_t doorbells = 0;
  uint64_t sum_batch_ns = 0;
  uint64_t max_batch_ns = 0;
  for (Queue& q : queues_) {
    if (q.wqes.empty()) {
      continue;
    }
    Stamp(q, now);
    wqes += q.wqes.size();
    ++doorbells;
    sum_batch_ns += q.batch_ns;
    max_batch_ns = std::max(max_batch_ns, q.batch_ns);
  }
  const size_t gathered = early_.size() + wqes;
  out->insert(out->end(), early_.begin(), early_.end());
  early_.clear();
  // Gather: complete each batch, waiting only for its own remaining
  // deadline (everything after the longest one is already past). The
  // round ends here, so every queue is re-armed.
  for (Queue& q : queues_) {
    if (!q.wqes.empty()) {
      Drain(q, out);
    }
    q.errored = false;
  }
  if (wqes == 0) {
    return gathered;
  }
  if (ids_ != nullptr) {
    stat::Registry& reg = stat::Registry::Global();
    reg.Add(ids_->rounds);
    reg.Add(ids_->doorbells, doorbells);
    reg.Add(ids_->wqes, wqes);
    reg.Add(ids_->overlap_saved_ns, sum_batch_ns - max_batch_ns);
    reg.Record(ids_->targets, doorbells);
  }
  return gathered;
}

void PhaseScatter::Stamp(Queue& q, uint64_t now) const {
  q.batch_ns = DoorbellNs(fabric_.latency(), q.wqes.data(), q.wqes.size());
  q.deadline_ns = now + q.batch_ns;
}

void PhaseScatter::Drain(Queue& q, std::vector<Completion>* out) {
  const uint64_t now = MonotonicNanos();
  if (q.deadline_ns > now) {
    SpinFor(q.deadline_ns - now);
  }
  // Execute the WQEs in post order. Reliable-connection semantics: the
  // first WQE that fails moves the QP to the error state, and every
  // WQE behind it completes flushed (kNodeDown) WITHOUT executing —
  // in a later auto-rung doorbell of the same round too. Later-posted
  // ops must not land when an earlier one did not — e.g. a commit's
  // unlock WRITE must never apply if its write-back WRITE was lost, or
  // the failure handler's write-back retry would re-lock the entry
  // after the stale unlock and leak the lock forever. The next round
  // starts from a re-armed QP (transient faults do not poison the queue
  // for good; a dead node keeps failing via IsAlive).
  for (const Wqe& wqe : q.wqes) {
    Completion comp;
    comp.target = q.target;
    comp.wr_id = wqe.wr_id;
    comp.status = q.errored
                      ? OpStatus::kNodeDown
                      : ExecuteWqe(fabric_, q.target, wqe, &comp.observed);
    q.errored = comp.status != OpStatus::kOk;
    out->push_back(comp);
  }
  CountDoorbell(q.wqes.size(), q.batch_ns);
  q.wqes.clear();
}

uint64_t PhaseScatter::DoorbellNs(const LatencyModel& lat, const Wqe* wqes,
                                  size_t n) {
  // One doorbell pays the largest base cost among the batched opcodes
  // (the NIC executes the batch back to back; the slowest opcode's round
  // trip dominates), plus every WQE's per-byte payload cost.
  uint64_t max_base_ns = 0;
  uint64_t payload_ns = 0;
  for (size_t i = 0; i < n; ++i) {
    const Wqe& wqe = wqes[i];
    switch (wqe.opcode) {
      case Wqe::kRead:
        max_base_ns = std::max(max_base_ns, lat.read_base_ns);
        payload_ns += uint64_t(lat.read_per_byte_ns * double(wqe.len));
        break;
      case Wqe::kWrite:
        max_base_ns = std::max(max_base_ns, lat.write_base_ns);
        payload_ns += uint64_t(lat.write_per_byte_ns * double(wqe.len));
        break;
      case Wqe::kCas:
        max_base_ns = std::max(max_base_ns, lat.cas_ns);
        break;
      case Wqe::kFaa:
        max_base_ns = std::max(max_base_ns, lat.faa_ns);
        break;
    }
  }
  return lat.BatchNs(max_base_ns, payload_ns, n);
}

OpStatus PhaseScatter::ExecuteWqe(Fabric& fabric, int target,
                                  const Wqe& wqe, uint64_t* observed) {
  switch (wqe.opcode) {
    case Wqe::kRead:
      return fabric.ExecuteRead(target, wqe.offset, wqe.dst, wqe.len);
    case Wqe::kWrite:
      return fabric.ExecuteWrite(target, wqe.offset, wqe.src, wqe.len);
    case Wqe::kCas:
      return fabric.ExecuteCas(target, wqe.offset, wqe.expected, wqe.operand,
                               observed);
    case Wqe::kFaa:
      return fabric.ExecuteFaa(target, wqe.offset, wqe.operand, observed);
  }
  return OpStatus::kNodeDown;
}

OpStatus PhaseScatter::RunOne(Fabric& fabric, int target, const Wqe& wqe,
                              uint64_t* observed) {
  const uint64_t batch_ns = DoorbellNs(fabric.latency(), &wqe, 1);
  SpinFor(batch_ns);
  const OpStatus status = ExecuteWqe(fabric, target, wqe, observed);
  CountDoorbell(1, batch_ns);
  return status;
}

}  // namespace rdma
}  // namespace drtm
