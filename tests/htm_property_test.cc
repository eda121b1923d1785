// Property-style sweeps over the HTM emulator: serializability of random
// transaction mixes across thread counts and working-set sizes, capacity
// boundaries, and strong-atomicity interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "src/common/rand.h"
#include "src/htm/htm.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace htm {
namespace {

// --- capacity boundaries ------------------------------------------------------

class CapacityBoundaryTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CapacityBoundaryTest, WriteSetExactlyAtLimitCommits) {
  const size_t limit = GetParam();
  Config config;
  config.max_write_lines = limit;
  HtmThread htm(config);
  // Distinct cache lines: one 8-byte word per 64-byte stride.
  std::vector<uint64_t> data(limit * 8 + 64, 0);
  // Align the base so strides land on distinct lines deterministically.
  uint64_t* base = reinterpret_cast<uint64_t*>(
      (reinterpret_cast<uintptr_t>(data.data()) + 63) & ~uintptr_t{63});

  const unsigned at_limit = htm.Transact([&] {
    for (size_t i = 0; i < limit; ++i) {
      htm.Store(base + i * 8, uint64_t{i});
    }
  });
  EXPECT_EQ(at_limit, kCommitted) << "limit " << limit;

  const unsigned over_limit = htm.Transact([&] {
    for (size_t i = 0; i < limit + 1; ++i) {
      htm.Store(base + i * 8, uint64_t{i});
    }
  });
  EXPECT_TRUE(over_limit & kAbortCapacity) << "limit " << limit;
}

TEST_P(CapacityBoundaryTest, ReadSetExactlyAtLimitCommits) {
  const size_t limit = GetParam();
  Config config;
  config.max_read_lines = limit;
  HtmThread htm(config);
  std::vector<uint64_t> data(limit * 8 + 64, 0);
  uint64_t* base = reinterpret_cast<uint64_t*>(
      (reinterpret_cast<uintptr_t>(data.data()) + 63) & ~uintptr_t{63});

  const unsigned at_limit = htm.Transact([&] {
    uint64_t sum = 0;
    for (size_t i = 0; i < limit; ++i) {
      sum += htm.Load(base + i * 8);
    }
    (void)sum;
  });
  EXPECT_EQ(at_limit, kCommitted);

  const unsigned over_limit = htm.Transact([&] {
    uint64_t sum = 0;
    for (size_t i = 0; i < limit + 1; ++i) {
      sum += htm.Load(base + i * 8);
    }
    (void)sum;
  });
  EXPECT_TRUE(over_limit & kAbortCapacity);
}

INSTANTIATE_TEST_SUITE_P(Limits, CapacityBoundaryTest,
                         ::testing::Values(1, 2, 8, 64, 200));

// --- randomized serializability -----------------------------------------------

struct MixParams {
  int threads;
  int slots;  // shared counters
  int ops_per_txn;
};

class SerializabilityMixTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

// Random transactions move value between slots; the total is invariant
// under any serializable schedule.
TEST_P(SerializabilityMixTest, RandomTransfersConserveTotal) {
  const int threads = std::get<0>(GetParam());
  const int slots = std::get<1>(GetParam());
  const int ops = std::get<2>(GetParam());
  struct alignas(64) Slot {
    uint64_t value;
  };
  std::vector<Slot> state(static_cast<size_t>(slots));
  for (auto& slot : state) {
    slot.value = 1000;
  }

  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      HtmThread htm;
      Xoshiro256 rng(static_cast<uint64_t>(t) * 7919 + 3);
      for (int i = 0; i < 400; ++i) {
        while (true) {
          const unsigned status = htm.Transact([&] {
            for (int op = 0; op < ops; ++op) {
              const size_t a = rng.NextBounded(static_cast<uint64_t>(slots));
              const size_t b = rng.NextBounded(static_cast<uint64_t>(slots));
              if (a == b) {
                continue;
              }
              const uint64_t av = htm.Load(&state[a].value);
              const uint64_t bv = htm.Load(&state[b].value);
              if (av == 0) {
                continue;
              }
              htm.Store(&state[a].value, av - 1);
              htm.Store(&state[b].value, bv + 1);
            }
          });
          if (status == kCommitted) {
            break;
          }
          // Note: rng advanced inside the aborted body; conservation
          // holds regardless because every committed body is balanced.
        }
      }
    });
  }
  for (auto& thread : pool) {
    thread.join();
  }
  uint64_t total = 0;
  for (const auto& slot : state) {
    total += slot.value;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(slots) * 1000);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, SerializabilityMixTest,
    ::testing::Combine(::testing::Values(2, 4), ::testing::Values(4, 32),
                       ::testing::Values(1, 4)));

// --- strong atomicity interleavings --------------------------------------------

TEST(HtmStrongAtomicity, WriterAndStrongWriterNeverInterleaveWithinLine) {
  // A transaction writes two words of one struct; strong writers write
  // both words too. Readers must never see a mixed pair.
  struct alignas(64) Pair {
    uint64_t a;
    uint64_t b;
  };
  static Pair pair;
  pair = {0, 0};
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};

  std::thread strong_writer([&] {
    uint64_t v = 1;
    while (!stop.load(std::memory_order_acquire)) {
      Pair update{v, v};
      StrongWrite(&pair, &update, sizeof(update));
      v += 2;
    }
  });
  std::thread tx_writer([&] {
    HtmThread htm;
    uint64_t v = 1000000;
    while (!stop.load(std::memory_order_acquire)) {
      htm.Transact([&] {
        htm.Store(&pair.a, v);
        htm.Store(&pair.b, v);
      });
      v += 2;
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Pair snapshot;
      StrongRead(&snapshot, &pair, sizeof(snapshot));
      if (snapshot.a != snapshot.b) {
        torn.store(true);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  strong_writer.join();
  tx_writer.join();
  reader.join();
  EXPECT_FALSE(torn.load());
}

TEST(HtmStrongAtomicity, TransactionalReaderNeverSeesTornPair) {
  struct alignas(64) Wide {
    uint64_t words[16];  // spans two cache lines
  };
  static Wide wide;
  for (auto& w : wide.words) {
    w = 0;
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};

  std::thread writer([&] {
    HtmThread htm;
    uint64_t v = 1;
    while (!stop.load(std::memory_order_acquire)) {
      htm.Transact([&] {
        for (auto& w : wide.words) {
          htm.Store(&w, v);
        }
      });
      ++v;
    }
  });
  std::thread reader([&] {
    HtmThread htm;
    while (!stop.load(std::memory_order_acquire)) {
      Wide snapshot;
      const unsigned status =
          htm.Transact([&] { htm.Read(&snapshot, &wide, sizeof(wide)); });
      if (status != kCommitted) {
        continue;
      }
      for (const auto& w : snapshot.words) {
        if (w != snapshot.words[0]) {
          torn.store(true);
          break;
        }
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  writer.join();
  reader.join();
  EXPECT_FALSE(torn.load());
}

// --- abort-code fidelity --------------------------------------------------------

TEST(HtmAbortCodes, ExplicitCodesRoundTripAllValues) {
  HtmThread htm;
  for (int code = 0; code < 256; code += 17) {
    const unsigned status =
        htm.Transact([&] { htm.Abort(static_cast<uint8_t>(code)); });
    EXPECT_TRUE(status & kAbortExplicit);
    EXPECT_EQ(AbortUserCode(status), static_cast<unsigned>(code));
  }
}

TEST(HtmAbortCodes, StatsMatchOutcomes) {
  alignas(64) static uint64_t word = 0;
  HtmThread htm;
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  for (int i = 0; i < 10; ++i) {
    htm.Transact([&] { htm.Store(&word, uint64_t{1}); });
  }
  for (int i = 0; i < 5; ++i) {
    htm.Transact([&] { htm.Abort(1); });
  }
  const stat::Snapshot delta =
      stat::Registry::Global().TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("htm.commit"), 10u);
  EXPECT_EQ(delta.Counter("htm.abort.explicit"), 5u);
  EXPECT_EQ(delta.Counter("htm.abort.explicit.code1"), 5u);
  EXPECT_EQ(delta.Counter("htm.abort.total"), 5u);
}

// --- write buffering edge cases --------------------------------------------------

TEST(HtmWriteBuffer, ManySmallOverlappingWritesResolveInOrder) {
  alignas(64) static uint8_t buf[64];
  std::memset(buf, 0, sizeof(buf));
  HtmThread htm;
  htm.Transact([&] {
    for (int i = 0; i < 64; ++i) {
      const uint8_t v = static_cast<uint8_t>(i);
      htm.Write(buf + i, &v, 1);
    }
    // Overwrite a middle range.
    const uint32_t patch = 0xffffffff;
    htm.Write(buf + 10, &patch, 4);
    uint8_t out[64];
    htm.Read(out, buf, 64);
    EXPECT_EQ(out[9], 9);
    EXPECT_EQ(out[10], 0xff);
    EXPECT_EQ(out[13], 0xff);
    EXPECT_EQ(out[14], 14);
  });
  EXPECT_EQ(buf[10], 0xff);
  EXPECT_EQ(buf[14], 14);
}

TEST(HtmWriteBuffer, ZeroLengthOpsAreNoops) {
  alignas(64) static uint64_t word = 7;
  HtmThread htm;
  const unsigned status = htm.Transact([&] {
    htm.Write(&word, &word, 0);
    uint64_t out = 1;
    htm.Read(&out, &word, 0);
    EXPECT_EQ(out, 1u);  // untouched
  });
  EXPECT_EQ(status, kCommitted);
  EXPECT_EQ(word, 7u);
}

}  // namespace
}  // namespace htm
}  // namespace drtm
