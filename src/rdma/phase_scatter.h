// The RDMA submission engine (paper section 6.3, FaRM-style doorbell
// batching): every one-sided verb is posted and gathered here.
//
// A PhaseScatter drives one send queue per target node, the way a verbs
// initiator drives one reliable-connection QP per peer.
// PostRead/PostWrite/PostCas/PostFaa enqueue a work-queue entry (WQE) on
// the target's queue without touching the network, tagged with a wr_id
// the caller chooses; the WQE's completion echoes it back, as ibverbs
// does, so callers index their own per-WQE state by it. Gather() rings
// one doorbell per target with pending WQEs, all of them before any batch
// completes, so the batches are in flight together and a phase touching
// k nodes pays roughly the longest batch's modeled latency instead of
// the per-target sum. The scalar Fabric::Read/Write/Cas/Faa are one-WQE
// doorbells of the same engine.
//
// A doorbell charges LatencyModel::BatchNs: the largest base cost among
// its opcodes, every WQE's per-byte payload cost and a small per-WQE
// issue overhead. A one-WQE doorbell therefore costs exactly
// ReadNs/WriteNs/CasNs/FaaNs.
//
// Semantics mirror the hardware contract DrTM relies on:
//   * Within one target, WQEs execute and complete in post order
//     (in-order QP). Across targets there is no ordering.
//   * Each WQE executes through the HTM strong-access path
//     (Fabric::Execute*), so strong atomicity and conflicting-HTM-abort
//     behaviour hold per op. A batch is NOT atomic as a unit. RDMA
//     atomics serialize on the target NIC latch at both AtomicLevels.
//   * A WQE against a dead node completes with kNodeDown. The first WQE
//     that fails errors the queue, and every WQE behind it until the end
//     of the Gather() round completes with kNodeDown without executing
//     (the flush a real RC QP performs in the error state), auto-rung
//     doorbells included. The next round starts on a re-armed queue.
//   * Posting the kMaxOutstanding-th pending WQE to one target rings that
//     target's doorbell at once and waits it out (a full hardware send
//     queue forces a flush). Its completions come back with the next
//     Gather().
//
// A PhaseScatter is owned by one initiator thread and is not
// thread-safe, like a verbs QP. Given a stat::ScatterPhaseIds set, each
// Gather() also records the phase's rounds, doorbells, WQEs and the
// time the overlap saved (sum - max of the batch latencies). Every
// doorbell moves the sharded rdma.batch.* counters; no live occupancy is
// kept, and a window's mean occupancy is rdma.batch.wqes /
// rdma.batch.doorbells over that window.
#ifndef SRC_RDMA_PHASE_SCATTER_H_
#define SRC_RDMA_PHASE_SCATTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/stat/scatter_stats.h"

namespace drtm {
namespace rdma {

using WrId = uint64_t;

struct Completion {
  int target = -1;
  WrId wr_id = 0;
  OpStatus status = OpStatus::kOk;
  // Pre-op value for CAS/FAA WQEs; undefined for READ/WRITE.
  uint64_t observed = 0;
};

class PhaseScatter {
 public:
  // The hardware send-queue depth: the auto-doorbell threshold per target.
  static constexpr size_t kMaxOutstanding = 16;

  // `ids` selects the per-phase counter set (stat/scatter_stats.h);
  // nullptr disables phase accounting (rdma.batch.* still moves).
  explicit PhaseScatter(Fabric& fabric,
                        const stat::ScatterPhaseIds* ids = nullptr);

  PhaseScatter(const PhaseScatter&) = delete;
  PhaseScatter& operator=(const PhaseScatter&) = delete;

  // The op has NOT executed on return. Buffers must stay valid until the
  // completion is gathered.
  void PostRead(int target, WrId wr_id, uint64_t offset, void* dst,
                size_t len);
  void PostWrite(int target, WrId wr_id, uint64_t offset, const void* src,
                 size_t len);
  // The pre-swap / pre-add value is reported via Completion::observed.
  void PostCas(int target, WrId wr_id, uint64_t offset, uint64_t expected,
               uint64_t desired);
  void PostFaa(int target, WrId wr_id, uint64_t offset, uint64_t delta);

  // Rings one doorbell per target with pending WQEs, all before any batch
  // completes, then completes each batch and appends one completion per
  // WQE to *out (in post order within a target). Returns the number
  // appended; an empty round records nothing.
  size_t Gather(std::vector<Completion>* out);

 private:
  friend class Fabric;  // the scalar verbs are one-WQE doorbells

  struct Wqe {
    enum Opcode : uint8_t { kRead, kWrite, kCas, kFaa };
    Opcode opcode;
    WrId wr_id;
    uint64_t offset;
    void* dst;          // kRead
    const void* src;    // kWrite
    size_t len;         // kRead / kWrite
    uint64_t expected;  // kCas
    uint64_t operand;   // kCas: the swap value; kFaa: the addend
  };

  struct Queue {
    int target;
    std::vector<Wqe> wqes;
    // The rung doorbell's modeled latency and completion deadline on the
    // MonotonicNanos clock.
    uint64_t batch_ns = 0;
    uint64_t deadline_ns = 0;
    // In the error state since a WQE failed this round; Gather re-arms.
    bool errored = false;
  };

  // One doorbell's modeled latency.
  static uint64_t DoorbellNs(const LatencyModel& lat, const Wqe* wqes,
                             size_t n);
  // Executes one WQE; `observed` receives a CAS/FAA's pre-op value.
  static OpStatus ExecuteWqe(Fabric& fabric, int target, const Wqe& wqe,
                             uint64_t* observed);
  // A scalar verb: one WQE rung, waited out and executed on the spot.
  static OpStatus RunOne(Fabric& fabric, int target, const Wqe& wqe,
                         uint64_t* observed);

  void Enqueue(int target, const Wqe& wqe);
  // Rings the queue's doorbell at `now` without waiting.
  void Stamp(Queue& q, uint64_t now) const;
  // Waits out what is left of the rung batch's deadline, then executes
  // it into *out and empties the queue.
  void Drain(Queue& q, std::vector<Completion>* out);

  Fabric& fabric_;
  const stat::ScatterPhaseIds* ids_;
  // First-use order; small per-phase cardinality makes linear scans
  // cheaper than a hash map.
  std::vector<Queue> queues_;
  // Completions of auto-rung doorbells, handed out by the next Gather().
  std::vector<Completion> early_;
};

}  // namespace rdma
}  // namespace drtm

#endif  // SRC_RDMA_PHASE_SCATTER_H_
