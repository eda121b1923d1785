// The simulated RDMA-capable interconnect.
//
// A Fabric owns the registered memory of every simulated machine and
// implements the verbs DrTM uses:
//   * one-sided READ / WRITE / CAS / FAA against (node, offset), executed
//     directly by the issuing thread through the HTM strong-access path —
//     this is what makes the simulated RDMA cache-coherent with the HTM
//     emulator, the property DrTM's protocol rests on. Every one-sided
//     verb is posted and gathered by the submission engine
//     (rdma::PhaseScatter); the scalar Read/Write/Cas/Faa below are
//     one-WQE doorbells of it, charged exactly ReadNs/WriteNs/CasNs/FaaNs;
//   * two-sided SEND/RECV with a blocking RPC wrapper.
//
// Atomicity levels (paper sections 4.2 and 6.3): at IBV_ATOMIC_HCA level,
// RDMA CAS is atomic only against other RDMA atomics (serialized by a
// per-target NIC latch); processor CAS against the same word is not safe.
// The transaction layer consults atomic_level() to decide whether local
// records may be locked with processor atomics (GLOB) or must go through
// the NIC (HCA, the paper's hardware).
#ifndef SRC_RDMA_FABRIC_H_
#define SRC_RDMA_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/spin_latch.h"
#include "src/rdma/latency.h"
#include "src/rdma/messaging.h"
#include "src/rdma/node_memory.h"

namespace drtm {
namespace rdma {

enum class OpStatus {
  kOk,
  kNodeDown,
  kTimeout,
};

enum class AtomicLevel {
  kHca,   // RDMA CAS atomic only vs. RDMA CAS (the paper's ConnectX-3)
  kGlob,  // RDMA CAS atomic vs. processor CAS (e.g. QLogic QLE series)
};

class Fabric {
 public:
  struct Config {
    int num_nodes = 1;
    size_t region_bytes = size_t{256} << 20;
    LatencyModel latency = LatencyModel::Zero();
    AtomicLevel atomic_level = AtomicLevel::kHca;
  };

  explicit Fabric(const Config& config);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  NodeMemory& memory(int node) { return *nodes_[static_cast<size_t>(node)]; }
  const LatencyModel& latency() const { return config_.latency; }
  AtomicLevel atomic_level() const { return config_.atomic_level; }

  // Fail-stop crash emulation. A dead node rejects all verbs.
  bool IsAlive(int node) const {
    return alive_[static_cast<size_t>(node)].load(std::memory_order_acquire);
  }
  void SetAlive(int node, bool alive) {
    alive_[static_cast<size_t>(node)].store(alive, std::memory_order_release);
    if (!alive) {
      queues_[static_cast<size_t>(node)]->Shutdown();
    }
  }

  // --- one-sided verbs ------------------------------------------------------
  OpStatus Read(int target, uint64_t offset, void* dst, size_t len);
  OpStatus Write(int target, uint64_t offset, const void* src, size_t len);
  // observed receives the pre-swap value; swap happened iff
  // *observed == expected.
  OpStatus Cas(int target, uint64_t offset, uint64_t expected,
               uint64_t desired, uint64_t* observed);
  OpStatus Faa(int target, uint64_t offset, uint64_t delta,
               uint64_t* observed);

  // --- two-sided verbs ------------------------------------------------------
  OpStatus Send(int from, int to, uint32_t kind, std::vector<uint8_t> payload);
  // Blocking request/response; replies are produced by the target node's
  // server loop calling Reply().
  OpStatus Rpc(int from, int to, uint32_t kind, std::vector<uint8_t> payload,
               std::vector<uint8_t>* reply, uint64_t timeout_us = 1000000);
  void Reply(const Message& request, std::vector<uint8_t> payload);

  MessageQueue& queue(int node) { return *queues_[static_cast<size_t>(node)]; }

 private:
  // The submission engine (phase_scatter.h) runs every one-sided WQE
  // through the executors below, and the scalar verbs through the engine.
  friend class PhaseScatter;

  // Execute one work request through the HTM strong-access path and bump
  // the per-op counters. No latency is charged here: the engine charges
  // one doorbell per batch (LatencyModel::BatchNs).
  OpStatus ExecuteRead(int target, uint64_t offset, void* dst, size_t len);
  OpStatus ExecuteWrite(int target, uint64_t offset, const void* src,
                        size_t len);
  OpStatus ExecuteCas(int target, uint64_t offset, uint64_t expected,
                      uint64_t desired, uint64_t* observed);
  OpStatus ExecuteFaa(int target, uint64_t offset, uint64_t delta,
                      uint64_t* observed);

  // Charges one SEND leg and queues the message on `to`.
  void Deliver(int from, int to, uint32_t kind, uint64_t rpc_id,
               std::vector<uint8_t> payload);

  struct PendingRpc;

  Config config_;
  std::vector<std::unique_ptr<NodeMemory>> nodes_;
  std::vector<std::unique_ptr<MessageQueue>> queues_;
  std::unique_ptr<std::atomic<bool>[]> alive_;
  // Per-target-node NIC latch serializing RDMA atomics (HCA level).
  std::vector<std::unique_ptr<SpinLatch>> nic_latches_;

  std::atomic<uint64_t> next_rpc_id_{1};
  std::mutex rpc_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<PendingRpc>> pending_rpcs_;
};

}  // namespace rdma
}  // namespace drtm

#endif  // SRC_RDMA_FABRIC_H_
