// Google-benchmark micro-benchmarks over the substrates: HTM transact
// cost, strong accesses, simulated RDMA verbs, store operations, and the
// lock-word helpers. These are regression guards, not paper figures.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/zipf.h"
#include "src/htm/htm.h"
#include "src/rdma/fabric.h"
#include "src/store/bplus_tree.h"
#include "src/store/cluster_hash.h"
#include "src/store/remote_kv.h"
#include "src/txn/lock_state.h"

namespace {

using namespace drtm;

void BM_HtmEmptyTransact(benchmark::State& state) {
  htm::HtmThread htm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm.Transact([] {}));
  }
}
BENCHMARK(BM_HtmEmptyTransact);

void BM_HtmReadModifyWrite(benchmark::State& state) {
  alignas(64) static uint64_t value = 0;
  htm::HtmThread htm;
  for (auto _ : state) {
    htm.Transact([&] {
      const uint64_t v = htm.Load(&value);
      htm.Store(&value, v + 1);
    });
  }
}
BENCHMARK(BM_HtmReadModifyWrite);

void BM_HtmWideWriteSet(benchmark::State& state) {
  static std::vector<uint64_t> data(64 * 64, 0);
  htm::HtmThread htm;
  const int lines = static_cast<int>(state.range(0));
  for (auto _ : state) {
    htm.Transact([&] {
      for (int i = 0; i < lines; ++i) {
        htm.Store(&data[static_cast<size_t>(i) * 8], uint64_t{1});
      }
    });
  }
}
BENCHMARK(BM_HtmWideWriteSet)->Arg(8)->Arg(64);

void BM_StrongLoad64(benchmark::State& state) {
  alignas(64) static uint64_t value = 42;
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm::StrongLoad(&value));
  }
}
BENCHMARK(BM_StrongLoad64);

void BM_StrongCas64(benchmark::State& state) {
  alignas(64) static uint64_t value = 0;
  uint64_t expected = 0;
  for (auto _ : state) {
    expected = htm::StrongCas64(&value, expected, expected + 1);
    ++expected;
  }
}
BENCHMARK(BM_StrongCas64);

void BM_RdmaReadNoLatency(benchmark::State& state) {
  static rdma::Fabric fabric([] {
    rdma::Fabric::Config config;
    config.num_nodes = 2;
    config.region_bytes = 1 << 20;
    return config;
  }());
  static const uint64_t off = fabric.memory(1).Allocate(4096);
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fabric.Read(1, off, buf.data(), buf.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RdmaReadNoLatency)->Arg(64)->Arg(1024);

void BM_ClusterHashLocalGet(benchmark::State& state) {
  static rdma::Fabric fabric([] {
    rdma::Fabric::Config config;
    config.num_nodes = 1;
    config.region_bytes = 64 << 20;
    return config;
  }());
  static store::ClusterHashTable table(&fabric.memory(0), [] {
    store::ClusterHashTable::Config config;
    config.main_buckets = 1 << 12;
    config.capacity = 1 << 15;
    config.value_size = 64;
    return config;
  }());
  static bool loaded = [] {
    std::vector<uint8_t> value(64, 1);
    for (uint64_t k = 0; k < 20000; ++k) {
      table.Insert(k, value.data());
    }
    return true;
  }();
  (void)loaded;
  std::vector<uint8_t> out(64);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Get(key, out.data()));
    key = (key + 7919) % 20000;
  }
}
BENCHMARK(BM_ClusterHashLocalGet);

void BM_BPlusTreeGet(benchmark::State& state) {
  static store::BPlusTree tree([] {
    store::BPlusTree::Config config;
    config.value_size = 8;
    config.max_nodes = 1 << 14;
    return config;
  }());
  static bool loaded = [] {
    for (uint64_t k = 0; k < 20000; ++k) {
      tree.Insert(k, &k);
    }
    return true;
  }();
  (void)loaded;
  uint64_t out = 0;
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(key, &out));
    key = (key + 7919) % 20000;
  }
}
BENCHMARK(BM_BPlusTreeGet);

// The store benches below run each operation inside one HTM region, the
// way local transactions use the stores; the ones above use the strong
// path of bulk loading.
void BM_ClusterHashGetInHtm(benchmark::State& state) {
  rdma::Fabric fabric([] {
    rdma::Fabric::Config config;
    config.num_nodes = 1;
    config.region_bytes = 64 << 20;
    return config;
  }());
  store::ClusterHashTable table(&fabric.memory(0), [] {
    store::ClusterHashTable::Config config;
    config.main_buckets = 1 << 12;
    config.capacity = 1 << 15;
    config.value_size = 64;
    return config;
  }());
  std::vector<uint8_t> value(64, 1);
  for (uint64_t k = 0; k < 20000; ++k) {
    table.Insert(k, value.data());
  }
  htm::HtmThread htm;
  uint64_t key = 0;
  for (auto _ : state) {
    htm.Transact([&] {
      benchmark::DoNotOptimize(table.Get(key, value.data()));
    });
    key = (key + 7919) % 20000;
  }
}
BENCHMARK(BM_ClusterHashGetInHtm);

store::BPlusTree::Config MicroTreeConfig() {
  store::BPlusTree::Config config;
  config.value_size = 8;
  config.max_nodes = 1 << 14;
  return config;
}

// Inserts odd keys between 20000 loaded even ones; every 20000
// iterations the odd keys are removed again with the clock stopped.
void BM_BPlusTreeInsertInHtm(benchmark::State& state) {
  constexpr uint64_t kKeys = 20000;
  store::BPlusTree tree(MicroTreeConfig());
  for (uint64_t k = 0; k < kKeys; ++k) {
    tree.Insert(2 * k, &k);
  }
  htm::HtmThread htm;
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t key = 2 * (i * 7919 % kKeys) + 1;
    htm.Transact([&] { benchmark::DoNotOptimize(tree.Insert(key, &key)); });
    if (++i % kKeys == 0) {
      state.PauseTiming();
      for (uint64_t k = 0; k < kKeys; ++k) {
        tree.Remove(2 * k + 1);
      }
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_BPlusTreeInsertInHtm);

// New-order's order lines: each region appends a run of 10 consecutive
// keys to one of 4 ascending ranges (districts). Every 2000 regions the
// tree is rebuilt with the clock stopped, before its pool runs out.
void BM_BPlusTreeInsertRunInHtm(benchmark::State& state) {
  constexpr uint64_t kRanges = 4;
  constexpr uint64_t kRun = 10;
  constexpr uint64_t kRegionsPerTree = 2000;
  auto tree = std::make_unique<store::BPlusTree>(MicroTreeConfig());
  std::vector<uint64_t> next(kRanges, 0);
  htm::HtmThread htm;
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t range = i * 7919 % kRanges;
    const uint64_t base = (range << 32) | next[range];
    htm.Transact([&] {
      for (uint64_t j = 0; j < kRun; ++j) {
        const uint64_t key = base + j;
        benchmark::DoNotOptimize(tree->Insert(key, &key));
      }
    });
    next[range] += kRun;
    if (++i % kRegionsPerTree == 0) {
      state.PauseTiming();
      tree = std::make_unique<store::BPlusTree>(MicroTreeConfig());
      std::fill(next.begin(), next.end(), 0);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_BPlusTreeInsertRunInHtm);

// Scans state.range(0) consecutive keys, about one TPC-C stock-level
// order-line range.
void BM_BPlusTreeScanInHtm(benchmark::State& state) {
  constexpr uint64_t kKeys = 20000;
  store::BPlusTree tree(MicroTreeConfig());
  for (uint64_t k = 0; k < kKeys; ++k) {
    tree.Insert(k, &k);
  }
  const uint64_t span = static_cast<uint64_t>(state.range(0));
  htm::HtmThread htm;
  uint64_t lo = 0;
  for (auto _ : state) {
    htm.Transact([&] {
      benchmark::DoNotOptimize(
          tree.Scan(lo, lo + span - 1, [](uint64_t, const void*) {
            return true;
          }));
    });
    lo = (lo + 7919) % (kKeys - span);
  }
}
BENCHMARK(BM_BPlusTreeScanInHtm)->Arg(20);

void BM_LockStateHelpers(benchmark::State& state) {
  uint64_t word = txn::MakeLease(123456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn::IsWriteLocked(word));
    benchmark::DoNotOptimize(txn::LeaseEnd(word));
    benchmark::DoNotOptimize(txn::LeaseValid(txn::LeaseEnd(word), 123000, 50));
    word ^= 1;
  }
}
BENCHMARK(BM_LockStateHelpers);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator zipf(1000000, 0.99, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next());
  }
}
BENCHMARK(BM_ZipfNext);

}  // namespace

BENCHMARK_MAIN();
