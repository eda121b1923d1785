#include "src/rdma/fabric.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>

#include "src/chaos/injector.h"
#include "src/common/clock.h"
#include "src/htm/htm.h"
#include "src/rdma/phase_scatter.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace rdma {

namespace {

// Registry ids for the verbs. The modeled latency of one-sided verbs is
// recorded per doorbell by the submission engine (rdma.batch_ns).
struct VerbIds {
  uint32_t reads = 0;
  uint32_t read_bytes = 0;
  uint32_t writes = 0;
  uint32_t write_bytes = 0;
  uint32_t cas_ops = 0;
  uint32_t faa_ops = 0;
  uint32_t sends = 0;
  uint32_t send_ns = 0;
};

const VerbIds& Verbs() {
  static const VerbIds ids = [] {
    stat::Registry& reg = stat::Registry::Global();
    VerbIds v;
    v.reads = reg.CounterId("rdma.read.ops");
    v.read_bytes = reg.CounterId("rdma.read.bytes");
    v.writes = reg.CounterId("rdma.write.ops");
    v.write_bytes = reg.CounterId("rdma.write.bytes");
    v.cas_ops = reg.CounterId("rdma.cas.ops");
    v.faa_ops = reg.CounterId("rdma.faa.ops");
    v.sends = reg.CounterId("rdma.send.ops");
    v.send_ns = reg.TimerId("rdma.send_ns");
    return v;
  }();
  return ids;
}

// Per-WQE chaos injection points. Placed in the executors, which every
// one-sided verb funnels through, so one hook covers them all. A
// kDelayNs decision models a NIC latency spike; kFailOp / kAbandon
// surface as kNodeDown exactly like a real fail-stop target.
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

// Every verb's preamble: false (the op fails with kNodeDown) when the
// target is dead or the chaos point fails the op; a latency spike is
// spun out here. `fault` keeps the decision for the torn-write case.
bool VerbAdmitted(const Fabric& fabric, int target, uint32_t point,
                  chaos::Decision* fault) {
  if (!fabric.IsAlive(target)) {
    return false;
  }
  *fault = chaos::Check(point, target);
  if (fault->kind == chaos::Decision::Kind::kFailOp ||
      fault->kind == chaos::Decision::Kind::kAbandon) {
    return false;
  }
  if (fault->kind == chaos::Decision::Kind::kDelayNs) {
    SpinFor(fault->arg);
  }
  return true;
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
  chaos::Decision fault;
  if (!VerbAdmitted(*this, target, ChaosPoints().read, &fault)) {
    return OpStatus::kNodeDown;
  }
  htm::StrongRead(dst, memory(target).At(offset), len);
  stat::Registry& reg = stat::Registry::Global();
  reg.Add(Verbs().reads);
  reg.Add(Verbs().read_bytes, len);
  return OpStatus::kOk;
}

OpStatus Fabric::ExecuteWrite(int target, uint64_t offset, const void* src,
                              size_t len) {
  chaos::Decision fault;
  if (!VerbAdmitted(*this, target, ChaosPoints().write, &fault)) {
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
  htm::StrongWrite(memory(target).At(offset), src, len);
  stat::Registry& reg = stat::Registry::Global();
  reg.Add(Verbs().writes);
  reg.Add(Verbs().write_bytes, len);
  return OpStatus::kOk;
}

OpStatus Fabric::ExecuteCas(int target, uint64_t offset, uint64_t expected,
                            uint64_t desired, uint64_t* observed) {
  chaos::Decision fault;
  if (!VerbAdmitted(*this, target, ChaosPoints().cas, &fault)) {
    return OpStatus::kNodeDown;
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
  chaos::Decision fault;
  if (!VerbAdmitted(*this, target, ChaosPoints().faa, &fault)) {
    return OpStatus::kNodeDown;
  }
  uint64_t* addr = static_cast<uint64_t*>(memory(target).At(offset));
  {
    SpinLatchGuard nic(*nic_latches_[static_cast<size_t>(target)]);
    *observed = htm::StrongFaa64(addr, delta);
  }
  stat::Registry::Global().Add(Verbs().faa_ops);
  return OpStatus::kOk;
}

OpStatus Fabric::Read(int target, uint64_t offset, void* dst, size_t len) {
  return PhaseScatter::RunOne(
      *this, target,
      {PhaseScatter::Wqe::kRead, 0, offset, dst, nullptr, len, 0, 0}, nullptr);
}

OpStatus Fabric::Write(int target, uint64_t offset, const void* src,
                       size_t len) {
  return PhaseScatter::RunOne(
      *this, target,
      {PhaseScatter::Wqe::kWrite, 0, offset, nullptr, src, len, 0, 0},
      nullptr);
}

OpStatus Fabric::Cas(int target, uint64_t offset, uint64_t expected,
                     uint64_t desired, uint64_t* observed) {
  return PhaseScatter::RunOne(*this, target,
                              {PhaseScatter::Wqe::kCas, 0, offset, nullptr,
                               nullptr, 0, expected, desired},
                              observed);
}

OpStatus Fabric::Faa(int target, uint64_t offset, uint64_t delta,
                     uint64_t* observed) {
  return PhaseScatter::RunOne(
      *this, target,
      {PhaseScatter::Wqe::kFaa, 0, offset, nullptr, nullptr, 0, 0, delta},
      observed);
}

void Fabric::Deliver(int from, int to, uint32_t kind, uint64_t rpc_id,
                     std::vector<uint8_t> payload) {
  const uint64_t latency_ns = config_.latency.SendNs(payload.size());
  SpinFor(latency_ns);
  Message msg;
  msg.from = from;
  msg.kind = kind;
  msg.rpc_id = rpc_id;
  msg.payload = std::move(payload);
  queue(to).Push(std::move(msg));
  stat::Registry& reg = stat::Registry::Global();
  reg.Add(Verbs().sends);
  reg.Record(Verbs().send_ns, latency_ns);
}

OpStatus Fabric::Send(int from, int to, uint32_t kind,
                      std::vector<uint8_t> payload) {
  chaos::Decision fault;
  if (!VerbAdmitted(*this, to, ChaosPoints().send, &fault)) {
    return OpStatus::kNodeDown;
  }
  Deliver(from, to, kind, /*rpc_id=*/0, std::move(payload));
  return OpStatus::kOk;
}

OpStatus Fabric::Rpc(int from, int to, uint32_t kind,
                     std::vector<uint8_t> payload, std::vector<uint8_t>* reply,
                     uint64_t timeout_us) {
  chaos::Decision fault;
  if (!VerbAdmitted(*this, to, ChaosPoints().send, &fault)) {
    return OpStatus::kNodeDown;
  }
  const uint64_t rpc_id = next_rpc_id_.fetch_add(1, std::memory_order_relaxed);
  auto pending = std::make_shared<PendingRpc>();
  {
    std::lock_guard<std::mutex> lock(rpc_mu_);
    pending_rpcs_.emplace(rpc_id, pending);
  }
  Deliver(from, to, kind, rpc_id, std::move(payload));

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
