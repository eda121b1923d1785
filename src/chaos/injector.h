// The chaos injector: named injection points threaded through the
// existing layers, armed with a FaultPlan.
//
// Point catalog (the names a plan's events bind to):
//   rdma.read.wqe / rdma.write.wqe / rdma.cas.wqe / rdma.faa.wqe
//       per-work-request hooks in the fabric's executors
//       (Fabric::Execute*). Every one-sided verb, scalar or batched, is
//       a WQE of the one submission engine (rdma::PhaseScatter), so one
//       hook per opcode covers them all.
//   rdma.send
//       two-sided SEND/RPC submission.
//   log.append
//       NvramLog::Append, between the payload write and the head-counter
//       publish — a kCrashPoint here leaves a torn (invisible) record.
//   log.replay
//       NvramLog::ForEach, per record — a kCrashPoint truncates a
//       recovery scan mid-replay.
//   log.epoch.seal
//       NvramLog::SealAndSubmit, before the checksum/backpatch — a
//       kCrashPoint here dies with records staged in an unsealed epoch,
//       which recovery must treat as invisible (torn tail).
//   log.epoch.flush
//       NvramLog flush submission (the emulated doorbell) — a kAbandon
//       drops one flush; the next epoch's cumulative end-LSN heals it.
//   log.chop
//       the chopped-transaction runtime, between a chain's remaining-piece
//       record and the piece body — a kCrashPoint dies with pieces < k
//       committed and the chain locks still held; recovery reports the
//       chain's resume point and releases its locks.
//   txn.fallback.unlock
//       the 2PL fallback's lock-release loop, per reference — a
//       kCrashPoint abandons the remaining releases and suppresses the
//       Complete log record, exactly the state a machine dying mid-release
//       leaves behind.
//   rpc.dispatch / rpc.insert / rpc.remove
//       the server-thread RPC path: every request at the dispatch switch,
//       plus the shipped structural INSERT/DELETE ops — kFailOp/kAbandon
//       read as a dropped request (empty reply). In kTransientPoints, so
//       random plans draw them.
//   rpc.upsert / rpc.erase / rpc.cache_inval
//       the elastic tier's migration dual-write, erase and
//       location-cache invalidation broadcast channels. NOT in
//       kTransientPoints (fixed CI seeds keep byte-identical schedules);
//       scripted plans target them by name.
//
// drtm-lint's CP01 rule cross-checks this catalog: every mutating
// RDMA/log/RPC entry point must reach one of these hooks on some path.
//
// Design constraints honoured here:
//   * Disarmed cost is one relaxed atomic load — the hooks live on hot
//     paths (every RDMA op).
//   * Armed, the plan is immutable: per-point arrival counters are
//     atomics, event lookup is a binary search in a sorted-by-arrival
//     vector, and no injector lock is ever held while calling a
//     crash/revive/skew handler (handlers join server threads, which may
//     themselves be inside a hook).
//   * Every firing is recorded; FiringLog() prints the exact schedule a
//     failing run needs for one-command reproduction.
#ifndef SRC_CHAOS_INJECTOR_H_
#define SRC_CHAOS_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/chaos/fault_plan.h"

namespace drtm {
namespace chaos {

// What an instrumented site should do with the current arrival.
struct Decision {
  enum class Kind : uint8_t {
    kNone = 0,   // proceed normally
    kFailOp,     // report kNodeDown for this op (transient)
    kTornWrite,  // apply only `arg` bytes, then report kNodeDown
    kDelayNs,    // spin `arg` extra nanoseconds, then proceed
    kAbandon,    // simulated power-cut: abandon the site's remaining work
  };
  Kind kind = Kind::kNone;
  uint64_t arg = 0;
};

class Injector {
 public:
  static Injector& Global();

  // Registers (or finds) a point by name and returns its dense id.
  // Sites cache the id in a function-local static.
  uint32_t Point(const std::string& name);

  // Arms the plan: resets arrival counters, firing log and NIC windows.
  // Handlers survive re-arming; Disarm() restores the zero-cost path.
  void Arm(const FaultPlan& plan);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // The site hook. target_node is the op's target (or the local node for
  // log/txn points); used for NIC windows and defaulted-node events.
  Decision OnPoint(uint32_t point, int target_node);

  // Control-plane handlers, registered by the harness (chaos_run) so the
  // injector does not depend on txn::Cluster. Unregistered handlers turn
  // the corresponding events into recorded no-ops.
  void SetCrashHandler(std::function<void(int)> fn);
  void SetReviveHandler(std::function<void(int)> fn);
  void SetSkewHandler(std::function<void(int, int64_t)> fn);

  struct Firing {
    uint64_t seq;       // global firing order
    std::string point;
    uint64_t arrival;
    FaultKind kind;
    int32_t node;
    int64_t arg;
  };
  std::vector<Firing> Firings() const;
  // Observer invoked synchronously on every firing (after it is recorded
  // in the firing log). Record-mode replay uses this to interleave chaos
  // firings into the replay event stream; pass nullptr to clear.
  void SetFiringObserver(std::function<void(const Firing&)> fn);
  // Deterministic text form: "fire <n>: point=... arrival=... kind=..."
  // per line, in firing order.
  std::string FiringLog() const;
  size_t firing_count() const {
    return fired_total_.load(std::memory_order_relaxed);
  }

 private:
  Injector() = default;

  struct PointState {
    std::string name;
    bool is_rdma = false;  // NIC-down windows apply here
    std::atomic<uint64_t> arrivals{0};
    // Sorted by arrival; index into armed_events_.
    std::vector<std::pair<uint64_t, size_t>> triggers;
  };

  void RecordFiring(const PointState& point, uint64_t arrival,
                    const FaultEvent& event, int node);

  std::atomic<bool> armed_{false};

  mutable std::mutex mu_;  // guards points_ growth, handlers, firings_
  std::vector<std::unique_ptr<PointState>> points_;
  std::vector<FaultEvent> armed_events_;
  std::vector<Firing> firings_;
  std::atomic<uint64_t> fired_total_{0};

  // Count-based NIC-down windows: ops remaining to drop per node.
  static constexpr int kMaxNodes = 64;
  std::atomic<int64_t> nic_drop_[kMaxNodes] = {};

  std::function<void(int)> crash_handler_;
  std::function<void(int)> revive_handler_;
  std::function<void(int, int64_t)> skew_handler_;
  std::function<void(const Firing&)> firing_observer_;
};

// The one-line site hook: zero-cost when disarmed.
inline Decision Check(uint32_t point, int target_node) {
  Injector& injector = Injector::Global();
  if (!injector.armed()) {
    return Decision{};
  }
  return injector.OnPoint(point, target_node);
}

}  // namespace chaos
}  // namespace drtm

#endif  // SRC_CHAOS_INJECTOR_H_
