// Per-node RDMA-registered memory.
//
// Each simulated machine owns one contiguous registered region (the paper
// uses 1 GB hugepages for the same reason: remote offsets must map to
// physically resolvable addresses). Remote references are (node id,
// 48-bit offset) pairs; the store layer embeds those offsets in its
// header slots.
#ifndef SRC_RDMA_NODE_MEMORY_H_
#define SRC_RDMA_NODE_MEMORY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace drtm {
namespace rdma {

class NodeMemory {
 public:
  NodeMemory(int node_id, size_t capacity);
  ~NodeMemory();

  NodeMemory(const NodeMemory&) = delete;
  NodeMemory& operator=(const NodeMemory&) = delete;

  int node_id() const { return node_id_; }
  size_t capacity() const { return capacity_; }
  size_t used() const { return next_.load(std::memory_order_relaxed); }

  uint8_t* base() { return base_; }
  const uint8_t* base() const { return base_; }

  // Bump allocation of registered memory; never freed individually
  // (stores manage their own free lists inside their allocations).
  // Returns the offset of the new block. Aborts the process on
  // exhaustion — region sizing is a configuration decision.
  uint64_t Allocate(size_t bytes, size_t alignment = 64);

  void* At(uint64_t offset) { return base_ + offset; }
  const void* At(uint64_t offset) const { return base_ + offset; }

  uint64_t OffsetOf(const void* ptr) const {
    return static_cast<uint64_t>(static_cast<const uint8_t*>(ptr) - base_);
  }

  bool Contains(const void* ptr) const {
    const uint8_t* p = static_cast<const uint8_t*>(ptr);
    return p >= base_ && p < base_ + capacity_;
  }

 private:
  int node_id_;
  size_t capacity_;
  uint8_t* base_;  // mmap-ed, capacity_ bytes
  std::atomic<size_t> next_{0};
};

}  // namespace rdma
}  // namespace drtm

#endif  // SRC_RDMA_NODE_MEMORY_H_
