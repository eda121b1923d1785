#include "src/rdma/fabric.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>

#include "src/chaos/injector.h"
#include "src/common/clock.h"
#include "src/htm/htm.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace rdma {

namespace {

// Registry ids for the one-sided verbs and the simulated NIC latency the
// fabric model charged for each op.  Resolved once per process.
struct VerbIds {
  uint32_t reads = 0;
  uint32_t read_bytes = 0;
  uint32_t read_ns = 0;
  uint32_t writes = 0;
  uint32_t write_bytes = 0;
  uint32_t write_ns = 0;
  uint32_t cas_ops = 0;
  uint32_t cas_ns = 0;
  uint32_t faa_ops = 0;
  uint32_t faa_ns = 0;
  uint32_t sends = 0;
  uint32_t send_ns = 0;
};

const VerbIds& Verbs() {
  static const VerbIds ids = [] {
    stat::Registry& reg = stat::Registry::Global();
    VerbIds v;
    v.reads = reg.CounterId("rdma.read.ops");
    v.read_bytes = reg.CounterId("rdma.read.bytes");
    v.read_ns = reg.TimerId("rdma.read_ns");
    v.writes = reg.CounterId("rdma.write.ops");
    v.write_bytes = reg.CounterId("rdma.write.bytes");
    v.write_ns = reg.TimerId("rdma.write_ns");
    v.cas_ops = reg.CounterId("rdma.cas.ops");
    v.cas_ns = reg.TimerId("rdma.cas_ns");
    v.faa_ops = reg.CounterId("rdma.faa.ops");
    v.faa_ns = reg.TimerId("rdma.faa_ns");
    v.sends = reg.CounterId("rdma.send.ops");
    v.send_ns = reg.TimerId("rdma.send_ns");
    return v;
  }();
  return ids;
}

// Per-WQE chaos injection points. Placed in the shared executors so the
// scalar verbs, the doorbell-batched SendQueue and the PhaseScatter
// engine are all covered by the same hooks (they funnel through
// Execute*). A kDelayNs decision models a NIC latency spike; kFailOp /
// kAbandon surface as kNodeDown exactly like a real fail-stop target.
struct WqePoints {
  uint32_t read;
  uint32_t write;
  uint32_t cas;
  uint32_t faa;
  uint32_t send;
};

const WqePoints& ChaosPoints() {
  static const WqePoints points = [] {
    chaos::Injector& injector = chaos::Injector::Global();
    WqePoints p;
    p.read = injector.Point("rdma.read.wqe");
    p.write = injector.Point("rdma.write.wqe");
    p.cas = injector.Point("rdma.cas.wqe");
    p.faa = injector.Point("rdma.faa.wqe");
    p.send = injector.Point("rdma.send");
    return p;
  }();
  return points;
}

}  // namespace

struct Fabric::PendingRpc {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::vector<uint8_t> reply;
};

Fabric::Fabric(const Config& config) : config_(config) {
  nodes_.reserve(static_cast<size_t>(config.num_nodes));
  queues_.reserve(static_cast<size_t>(config.num_nodes));
  nic_latches_.reserve(static_cast<size_t>(config.num_nodes));
  alive_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<size_t>(config.num_nodes));
  for (int i = 0; i < config.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<NodeMemory>(i, config.region_bytes));
    queues_.push_back(std::make_unique<MessageQueue>());
    nic_latches_.push_back(std::make_unique<SpinLatch>());
    alive_[static_cast<size_t>(i)].store(true, std::memory_order_relaxed);
  }
}

Fabric::~Fabric() {
  for (auto& q : queues_) {
    q->Shutdown();
  }
}

OpStatus Fabric::ExecuteRead(int target, uint64_t offset, void* dst,
                             size_t len) {
  if (!IsAlive(target)) {
    return OpStatus::kNodeDown;
  }
  const chaos::Decision fault = chaos::Check(ChaosPoints().read, target);
  if (fault.kind == chaos::Decision::Kind::kFailOp ||
      fault.kind == chaos::Decision::Kind::kAbandon) {
    return OpStatus::kNodeDown;
  }
  if (fault.kind == chaos::Decision::Kind::kDelayNs) {
    SpinFor(fault.arg);
  }
  htm::StrongRead(dst, memory(target).At(offset), len);
  stat::Registry& reg = stat::Registry::Global();
  reg.Add(Verbs().reads);
  reg.Add(Verbs().read_bytes, len);
  return OpStatus::kOk;
}

OpStatus Fabric::ExecuteWrite(int target, uint64_t offset, const void* src,
                              size_t len) {
  if (!IsAlive(target)) {
    return OpStatus::kNodeDown;
  }
  const chaos::Decision fault = chaos::Check(ChaosPoints().write, target);
  if (fault.kind == chaos::Decision::Kind::kFailOp ||
      fault.kind == chaos::Decision::Kind::kAbandon) {
    return OpStatus::kNodeDown;
  }
  if (fault.kind == chaos::Decision::Kind::kTornWrite) {
    // Partial application: the NIC died mid-transfer. The prefix lands
    // (through the same strong-access path, so HTM conflicts still fire),
    // the caller sees a failed op.
    const size_t prefix = std::min(static_cast<size_t>(fault.arg), len);
    if (prefix > 0) {
      htm::StrongWrite(memory(target).At(offset), src, prefix);
    }
    return OpStatus::kNodeDown;
  }
  if (fault.kind == chaos::Decision::Kind::kDelayNs) {
    SpinFor(fault.arg);
  }
  htm::StrongWrite(memory(target).At(offset), src, len);
  stat::Registry& reg = stat::Registry::Global();
  reg.Add(Verbs().writes);
  reg.Add(Verbs().write_bytes, len);
  return OpStatus::kOk;
}

OpStatus Fabric::ExecuteCas(int target, uint64_t offset, uint64_t expected,
                            uint64_t desired, uint64_t* observed) {
  if (!IsAlive(target)) {
    return OpStatus::kNodeDown;
  }
  const chaos::Decision fault = chaos::Check(ChaosPoints().cas, target);
  if (fault.kind == chaos::Decision::Kind::kFailOp ||
      fault.kind == chaos::Decision::Kind::kAbandon) {
    return OpStatus::kNodeDown;
  }
  if (fault.kind == chaos::Decision::Kind::kDelayNs) {
    SpinFor(fault.arg);
  }
  uint64_t* addr = static_cast<uint64_t*>(memory(target).At(offset));
  {
    // RDMA atomics serialize on the target NIC regardless of level; the
    // difference between HCA and GLOB is whether processor atomics also
    // serialize with them, which the transaction layer enforces by policy.
    SpinLatchGuard nic(*nic_latches_[static_cast<size_t>(target)]);
    *observed = htm::StrongCas64(addr, expected, desired);
  }
  stat::Registry::Global().Add(Verbs().cas_ops);
  return OpStatus::kOk;
}

OpStatus Fabric::ExecuteFaa(int target, uint64_t offset, uint64_t delta,
                            uint64_t* observed) {
  if (!IsAlive(target)) {
    return OpStatus::kNodeDown;
  }
  const chaos::Decision fault = chaos::Check(ChaosPoints().faa, target);
  if (fault.kind == chaos::Decision::Kind::kFailOp ||
      fault.kind == chaos::Decision::Kind::kAbandon) {
    return OpStatus::kNodeDown;
  }
  if (fault.kind == chaos::Decision::Kind::kDelayNs) {
    SpinFor(fault.arg);
  }
  uint64_t* addr = static_cast<uint64_t*>(memory(target).At(offset));
  {
    SpinLatchGuard nic(*nic_latches_[static_cast<size_t>(target)]);
    *observed = htm::StrongFaa64(addr, delta);
  }
  stat::Registry::Global().Add(Verbs().faa_ops);
  return OpStatus::kOk;
}

template <typename Execute>
OpStatus Fabric::Scalar(int target, uint64_t latency_ns, uint32_t timer_id,
                        Execute&& execute) {
  if (!IsAlive(target)) {
    return OpStatus::kNodeDown;
  }
  SpinFor(latency_ns);
  const OpStatus status = execute();
  if (status == OpStatus::kOk) {
    stat::Registry::Global().Record(timer_id, latency_ns);
  }
  return status;
}

OpStatus Fabric::Read(int target, uint64_t offset, void* dst, size_t len) {
  return Scalar(target, config_.latency.ReadNs(len), Verbs().read_ns,
                [&] { return ExecuteRead(target, offset, dst, len); });
}

OpStatus Fabric::Write(int target, uint64_t offset, const void* src,
                       size_t len) {
  return Scalar(target, config_.latency.WriteNs(len), Verbs().write_ns,
                [&] { return ExecuteWrite(target, offset, src, len); });
}

OpStatus Fabric::Cas(int target, uint64_t offset, uint64_t expected,
                     uint64_t desired, uint64_t* observed) {
  return Scalar(target, config_.latency.CasNs(), Verbs().cas_ns, [&] {
    return ExecuteCas(target, offset, expected, desired, observed);
  });
}

OpStatus Fabric::Faa(int target, uint64_t offset, uint64_t delta,
                     uint64_t* observed) {
  return Scalar(target, config_.latency.FaaNs(), Verbs().faa_ns,
                [&] { return ExecuteFaa(target, offset, delta, observed); });
}

OpStatus Fabric::Send(int from, int to, uint32_t kind,
                      std::vector<uint8_t> payload) {
  if (!IsAlive(to)) {
    return OpStatus::kNodeDown;
  }
  const chaos::Decision fault = chaos::Check(ChaosPoints().send, to);
  if (fault.kind == chaos::Decision::Kind::kFailOp ||
      fault.kind == chaos::Decision::Kind::kAbandon) {
    return OpStatus::kNodeDown;
  }
  if (fault.kind == chaos::Decision::Kind::kDelayNs) {
    SpinFor(fault.arg);
  }
  const uint64_t latency_ns = config_.latency.SendNs(payload.size());
  SpinFor(latency_ns);
  Message msg;
  msg.from = from;
  msg.kind = kind;
  msg.rpc_id = 0;
  msg.payload = std::move(payload);
  queue(to).Push(std::move(msg));
  stat::Registry& reg = stat::Registry::Global();
  reg.Add(Verbs().sends);
  reg.Record(Verbs().send_ns, latency_ns);
  return OpStatus::kOk;
}

OpStatus Fabric::Rpc(int from, int to, uint32_t kind,
                     std::vector<uint8_t> payload, std::vector<uint8_t>* reply,
                     uint64_t timeout_us) {
  if (!IsAlive(to)) {
    return OpStatus::kNodeDown;
  }
  const chaos::Decision fault = chaos::Check(ChaosPoints().send, to);
  if (fault.kind == chaos::Decision::Kind::kFailOp ||
      fault.kind == chaos::Decision::Kind::kAbandon) {
    return OpStatus::kNodeDown;
  }
  if (fault.kind == chaos::Decision::Kind::kDelayNs) {
    SpinFor(fault.arg);
  }
  const uint64_t rpc_id = next_rpc_id_.fetch_add(1, std::memory_order_relaxed);
  auto pending = std::make_shared<PendingRpc>();
  {
    std::lock_guard<std::mutex> lock(rpc_mu_);
    pending_rpcs_.emplace(rpc_id, pending);
  }
  const uint64_t latency_ns = config_.latency.SendNs(payload.size());
  SpinFor(latency_ns);
  Message msg;
  msg.from = from;
  msg.kind = kind;
  msg.rpc_id = rpc_id;
  msg.payload = std::move(payload);
  queue(to).Push(std::move(msg));
  {
    stat::Registry& reg = stat::Registry::Global();
    reg.Add(Verbs().sends);
    reg.Record(Verbs().send_ns, latency_ns);
  }

  std::unique_lock<std::mutex> lock(pending->mu);
  const bool ok =
      pending->cv.wait_for(lock, std::chrono::microseconds(timeout_us),
                           [&] { return pending->done; });
  {
    std::lock_guard<std::mutex> map_lock(rpc_mu_);
    pending_rpcs_.erase(rpc_id);
  }
  if (!ok) {
    return IsAlive(to) ? OpStatus::kTimeout : OpStatus::kNodeDown;
  }
  if (reply != nullptr) {
    *reply = std::move(pending->reply);
  }
  return OpStatus::kOk;
}

void Fabric::Reply(const Message& request, std::vector<uint8_t> payload) {
  if (request.rpc_id == 0) {
    return;
  }
  SpinFor(config_.latency.SendNs(payload.size()));
  std::shared_ptr<PendingRpc> pending;
  {
    std::lock_guard<std::mutex> lock(rpc_mu_);
    auto it = pending_rpcs_.find(request.rpc_id);
    if (it == pending_rpcs_.end()) {
      return;  // Caller timed out and abandoned the RPC.
    }
    pending = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(pending->mu);
    pending->reply = std::move(payload);
    pending->done = true;
  }
  pending->cv.notify_one();
}

}  // namespace rdma
}  // namespace drtm
