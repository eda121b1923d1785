// SEND/RECV verbs emulation: per-node message rings plus a blocking RPC
// convenience wrapper. DrTM uses this path only where the paper does —
// shipping INSERT/DELETE to the host machine, remote ordered-store
// accesses, and transaction shipping (section 6.5). The Calvin baseline
// runs all of its traffic through it at IPoIB latency.
#ifndef SRC_RDMA_MESSAGING_H_
#define SRC_RDMA_MESSAGING_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

namespace drtm {
namespace rdma {

struct Message {
  int from = -1;
  uint32_t kind = 0;
  uint64_t rpc_id = 0;  // 0 = one-way
  std::vector<uint8_t> payload;
};

// One receive queue per node. Handlers run on whichever thread calls
// Poll() — higher layers dedicate a server thread per node.
class MessageQueue {
 public:
  void Push(Message msg);

  // Pops one message if available; returns false when empty.
  bool TryPop(Message* out);

  // Blocks up to timeout_us for a message.
  bool PopWait(Message* out, uint64_t timeout_us);

  void Shutdown();
  bool IsShutdown();

  // Clears the shutdown flag and drops queued messages (node restart).
  void Reset();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool shutdown_ = false;
};

}  // namespace rdma
}  // namespace drtm

#endif  // SRC_RDMA_MESSAGING_H_
