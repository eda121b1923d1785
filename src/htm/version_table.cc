#include "src/htm/version_table.h"

#include <sys/mman.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace drtm {

namespace {

constexpr size_t kHugePage = size_t{2} << 20;

}  // namespace

VersionTable::VersionTable(size_t slots) {
  assert(slots != 0 && (slots & (slots - 1)) == 0);
  // Every tracked line loads a random slot, so a large table (the global
  // one is 32 MB) sits on 2 MB-aligned memory that asks for transparent
  // huge pages: with 4 KB pages most of those loads would miss the TLB
  // too. The advice is best effort; the table works either way.
  const size_t bytes = slots * sizeof(std::atomic<uint64_t>);
  const size_t align = bytes >= kHugePage ? kHugePage : kCacheLineSize;
  const size_t rounded = (bytes + align - 1) & ~(align - 1);
  void* memory = std::aligned_alloc(align, rounded);
  if (memory == nullptr) {
    std::fprintf(stderr, "VersionTable: cannot allocate %zu bytes\n",
                 rounded);
    std::abort();
  }
  if (align == kHugePage) {
    madvise(memory, rounded, MADV_HUGEPAGE);
  }
  auto* table = static_cast<std::atomic<uint64_t>*>(memory);
  for (size_t i = 0; i < slots; ++i) {
    new (&table[i]) std::atomic<uint64_t>(0);
  }
  slots_.reset(table);
  mask_ = slots - 1;
}

VersionTable& VersionTable::Global() {
  static VersionTable table;
  return table;
}

}  // namespace drtm
