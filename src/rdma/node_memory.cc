#include "src/rdma/node_memory.h"

#include <sys/mman.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace drtm {
namespace rdma {

NodeMemory::NodeMemory(int node_id, size_t capacity)
    : node_id_(node_id), capacity_(capacity) {
  // Page-aligned, so a line-aligned allocation is a line-aligned address
  // and a 64 B-aligned record spans no more lines than its size needs.
  void* region = mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (region == MAP_FAILED) {
    std::fprintf(stderr, "NodeMemory[%d]: cannot map %zu bytes\n", node_id,
                 capacity);
    std::abort();
  }
  // As the paper backs the region with huge pages: where the host allows
  // transparent ones, the zero-fill below faults once per 2 MB, not 4 KB.
  madvise(region, capacity, MADV_HUGEPAGE);
  base_ = static_cast<uint8_t*>(region);
  std::memset(base_, 0, capacity);
}

NodeMemory::~NodeMemory() { munmap(base_, capacity_); }

uint64_t NodeMemory::Allocate(size_t bytes, size_t alignment) {
  size_t current = next_.load(std::memory_order_relaxed);
  while (true) {
    const size_t aligned = (current + alignment - 1) & ~(alignment - 1);
    const size_t end = aligned + bytes;
    if (end > capacity_) {
      std::fprintf(stderr,
                   "NodeMemory[%d]: out of registered memory "
                   "(want %zu, used %zu / %zu)\n",
                   node_id_, bytes, current, capacity_);
      std::abort();
    }
    if (next_.compare_exchange_weak(current, end,
                                    std::memory_order_relaxed)) {
      return aligned;
    }
  }
}

}  // namespace rdma
}  // namespace drtm
