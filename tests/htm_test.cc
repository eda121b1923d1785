#include "src/htm/htm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/barrier.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace htm {
namespace {

stat::Snapshot Now() { return stat::Registry::Global().TakeSnapshot(); }

// What a global-registry counter gained since `before`.
uint64_t Gained(const stat::Snapshot& before, const char* name) {
  return Now().DeltaSince(before).Counter(name);
}

TEST(VersionTable, SameLineSameSlot) {
  VersionTable table(1 << 10);
  alignas(64) char buf[128];
  EXPECT_EQ(table.SlotFor(buf), table.SlotFor(buf + 32));
  // Different lines usually map to different slots in a sparse table.
  EXPECT_NE(table.SlotFor(buf), table.SlotFor(buf + 64));
}

TEST(Htm, CommitMakesWritesVisible) {
  alignas(64) uint64_t value = 0;
  HtmThread htm;
  const stat::Snapshot before = Now();
  const unsigned status = htm.Transact([&] { htm.Store(&value, uint64_t{42}); });
  EXPECT_EQ(status, kCommitted);
  EXPECT_EQ(value, 42u);
  EXPECT_EQ(Gained(before, "htm.commit"), 1u);
}

TEST(Htm, WritesInvisibleBeforeCommit) {
  alignas(64) uint64_t value = 7;
  HtmThread htm;
  htm.Transact([&] {
    htm.Store(&value, uint64_t{99});
    // Underlying memory still holds the old value: writes are buffered.
    EXPECT_EQ(value, 7u);
    // But the transaction reads its own write.
    EXPECT_EQ(htm.Load(&value), 99u);
  });
  EXPECT_EQ(value, 99u);
}

TEST(Htm, ExplicitAbortDiscardsWrites) {
  alignas(64) uint64_t value = 1;
  HtmThread htm;
  const stat::Snapshot before = Now();
  const unsigned status = htm.Transact([&] {
    htm.Store(&value, uint64_t{2});
    htm.Abort(0x3c);
  });
  EXPECT_NE(status, kCommitted);
  EXPECT_TRUE(status & kAbortExplicit);
  EXPECT_EQ(AbortUserCode(status), 0x3cu);
  EXPECT_EQ(value, 1u);
  EXPECT_EQ(Gained(before, "htm.abort.explicit"), 1u);
  EXPECT_EQ(Gained(before, "htm.abort.explicit.code60"), 1u);
}

TEST(Htm, ReadYourWritesPartialOverlap) {
  alignas(64) uint8_t buf[16] = {0};
  HtmThread htm;
  htm.Transact([&] {
    const uint32_t part = 0xa1b2c3d4;
    htm.Write(buf + 4, &part, sizeof(part));
    uint8_t out[16];
    htm.Read(out, buf, sizeof(out));
    EXPECT_EQ(out[0], 0);
    uint32_t readback;
    std::memcpy(&readback, out + 4, sizeof(readback));
    EXPECT_EQ(readback, part);
    EXPECT_EQ(out[8], 0);
  });
}

TEST(Htm, LaterWriteWinsOnOverlap) {
  alignas(64) uint64_t value = 0;
  HtmThread htm;
  htm.Transact([&] {
    htm.Store(&value, uint64_t{1});
    htm.Store(&value, uint64_t{2});
    EXPECT_EQ(htm.Load(&value), 2u);
  });
  EXPECT_EQ(value, 2u);
}

TEST(Htm, CapacityAbortOnWriteSet) {
  Config config;
  config.max_write_lines = 4;
  HtmThread htm(config);
  std::vector<uint64_t> data(64 * 16, 0);
  const stat::Snapshot before = Now();
  const unsigned status = htm.Transact([&] {
    for (size_t i = 0; i < data.size(); i += 8) {
      htm.Store(&data[i], uint64_t{1});
    }
  });
  EXPECT_TRUE(status & kAbortCapacity);
  EXPECT_EQ(Gained(before, "htm.abort.capacity"), 1u);
}

TEST(Htm, CapacityAbortOnReadSet) {
  Config config;
  config.max_read_lines = 4;
  HtmThread htm(config);
  std::vector<uint64_t> data(64 * 16, 0);
  const unsigned status = htm.Transact([&] {
    uint64_t sum = 0;
    for (size_t i = 0; i < data.size(); i += 8) {
      sum += htm.Load(&data[i]);
    }
    EXPECT_EQ(sum, 0u);
  });
  EXPECT_TRUE(status & kAbortCapacity);
}

TEST(Htm, AliasedLinesShareOneSlotLock) {
  // One slot: every line aliases, so lines A and B are two entries that
  // commit locks, validates and bumps as one slot.
  VersionTable table(1);
  alignas(64) uint64_t buf[16] = {};
  buf[8] = 5;
  std::atomic<uint64_t>* slot = table.SlotFor(buf);
  const uint64_t before = slot->load();
  HtmThread htm(Config(), &table);
  const unsigned status = htm.Transact([&] {
    htm.Store(&buf[0], uint64_t{7});
    // Line B shares the written slot but has no buffered bytes: it must
    // read memory.
    EXPECT_EQ(htm.Load(&buf[8]), 5u);
  });
  EXPECT_EQ(status, kCommitted);
  EXPECT_EQ(buf[0], 7u);
  EXPECT_EQ(buf[8], 5u);
  EXPECT_EQ(slot->load(), before + 2);
}

TEST(Htm, StrongWriteToAliasedReadLineAborts) {
  // Line B is only read, but its slot is the one commit locks for line A:
  // B validates against the held base, which the strong write moved.
  VersionTable table(1);
  alignas(64) uint64_t buf[16] = {};
  HtmThread htm(Config(), &table);
  const unsigned status = htm.Transact([&] {
    htm.Store(&buf[0], uint64_t{7});
    EXPECT_EQ(htm.Load(&buf[8]), 0u);
    const uint64_t nine = 9;
    StrongWrite(&buf[8], &nine, sizeof(nine), &table);
  });
  EXPECT_TRUE(status & kAbortConflict);
  EXPECT_EQ(buf[0], 0u);
  EXPECT_EQ(buf[8], 9u);
}

TEST(Htm, PartialLineWriteOverlaysOnlyMaskedBytes) {
  alignas(64) uint8_t buf[64];
  for (int i = 0; i < 64; ++i) {
    buf[i] = static_cast<uint8_t>(i);
  }
  HtmThread htm;
  htm.Transact([&] {
    const uint8_t head[3] = {0xa0, 0xa1, 0xa2};
    const uint8_t tail = 0xbf;
    htm.Write(buf + 10, head, sizeof(head));
    htm.Write(buf + 63, &tail, 1);
    uint8_t out[64];
    htm.Read(out, buf, sizeof(out));
    for (int i = 0; i < 64; ++i) {
      const int want = i >= 10 && i < 13 ? 0xa0 + i - 10 : i == 63 ? 0xbf : i;
      EXPECT_EQ(out[i], want) << "byte " << i;
    }
  });
  EXPECT_EQ(buf[9], 9);
  EXPECT_EQ(buf[12], 0xa2);
  EXPECT_EQ(buf[13], 13);
  EXPECT_EQ(buf[63], 0xbf);
}

TEST(Htm, WriteStraddlingLinesReadsBackInSubRanges) {
  alignas(64) uint8_t buf[128] = {};
  uint8_t value[16];
  for (int i = 0; i < 16; ++i) {
    value[i] = static_cast<uint8_t>(0x40 + i);
  }
  // Bytes [56, 72): the last 8 of line 0 and the first 8 of line 1.
  auto want = [&](int i) { return i >= 56 && i < 72 ? value[i - 56] : 0; };
  HtmThread htm;
  const unsigned status = htm.Transact([&] {
    htm.Write(buf + 56, value, sizeof(value));
    for (const auto& [from, to] : std::vector<std::pair<int, int>>{
             {56, 64}, {64, 72}, {60, 68}, {50, 80}, {0, 128}}) {
      uint8_t out[128];
      htm.Read(out, buf + from, to - from);
      for (int i = from; i < to; ++i) {
        EXPECT_EQ(out[i - from], want(i)) << "[" << from << ", " << to
                                          << ") byte " << i;
      }
    }
  });
  EXPECT_EQ(status, kCommitted);
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(buf[i], want(i)) << "byte " << i;
  }
}

TEST(Htm, ManyWritesToOneLineUseOneLineOfBudget) {
  Config config;
  config.max_write_lines = 1;
  HtmThread htm(config);
  alignas(64) uint64_t line[8] = {};
  const unsigned status = htm.Transact([&] {
    for (uint64_t i = 0; i < 100; ++i) {
      htm.Store(&line[i % 8], i);
    }
  });
  EXPECT_EQ(status, kCommitted);
  for (uint64_t w = 0; w < 8; ++w) {
    // The last of the 100 writes to each word.
    EXPECT_EQ(line[w], w + 8 * ((99 - w) / 8)) << "word " << w;
  }
}

TEST(Htm, StrongWriteToReadWrittenLineAborts) {
  alignas(64) uint64_t words[8] = {};
  HtmThread htm;
  const unsigned status = htm.Transact([&] {
    (void)htm.Load(&words[0]);
    htm.Store(&words[0], uint64_t{3});
    StrongStore(&words[1], uint64_t{9});
  });
  EXPECT_TRUE(status & kAbortConflict);
  EXPECT_EQ(words[0], 0u);
  EXPECT_EQ(words[1], 9u);
}

TEST(Htm, ReadSpanningLinesOverlaysOnlyWrittenBytes) {
  alignas(64) uint8_t buf[128];
  for (int i = 0; i < 128; ++i) {
    buf[i] = static_cast<uint8_t>(i);
  }
  HtmThread htm;
  htm.Transact([&] {
    const uint8_t byte = 0xee;
    htm.Write(buf + 70, &byte, 1);
    uint8_t out[128];
    htm.Read(out, buf, sizeof(out));
    for (int i = 0; i < 128; ++i) {
      EXPECT_EQ(out[i], i == 70 ? 0xee : i) << "byte " << i;
    }
  });
  EXPECT_EQ(buf[70], 0xee);
  EXPECT_EQ(buf[6], 6);
}

TEST(Htm, StrongWriteAbortsConflictingReader) {
  alignas(64) static uint64_t value = 0;
  value = 0;
  HtmThread htm;
  const unsigned status = htm.Transact([&] {
    (void)htm.Load(&value);
    // A non-transactional (RDMA-style) write lands mid-transaction:
    // strong atomicity demands this transaction cannot commit.
    StrongStore(&value, uint64_t{123});
  });
  EXPECT_TRUE(status & kAbortConflict);
  EXPECT_EQ(value, 123u);
}

TEST(Htm, StrongCasAbortsConflictingReader) {
  alignas(64) static uint64_t word = 5;
  word = 5;
  HtmThread htm;
  const unsigned status = htm.Transact([&] {
    (void)htm.Load(&word);
    EXPECT_EQ(StrongCas64(&word, 5, 6), 5u);
  });
  EXPECT_TRUE(status & kAbortConflict);
  EXPECT_EQ(word, 6u);
}

TEST(Htm, FailedStrongCasDoesNotAbortReader) {
  alignas(64) static uint64_t word = 5;
  word = 5;
  HtmThread htm;
  const unsigned status = htm.Transact([&] {
    (void)htm.Load(&word);
    // CAS with wrong expectation: no write happens, no version bump.
    EXPECT_EQ(StrongCas64(&word, 999, 6), 5u);
  });
  EXPECT_EQ(status, kCommitted);
  EXPECT_EQ(word, 5u);
}

TEST(Htm, StrongFaaAddsAtomically) {
  alignas(64) static uint64_t counter = 10;
  counter = 10;
  EXPECT_EQ(StrongFaa64(&counter, 5), 10u);
  EXPECT_EQ(counter, 15u);
}

TEST(Htm, StrongReadSeesCommittedState) {
  alignas(64) static uint64_t value = 0;
  value = 0;
  HtmThread htm;
  htm.Transact([&] { htm.Store(&value, uint64_t{77}); });
  EXPECT_EQ(StrongLoad(&value), 77u);
}

TEST(Htm, NestedTransactionsFlatten) {
  alignas(64) static uint64_t value = 0;
  value = 0;
  HtmThread htm;
  const unsigned status = htm.Transact([&] {
    htm.Store(&value, uint64_t{1});
    const unsigned inner = htm.Transact([&] { htm.Store(&value, uint64_t{2}); });
    EXPECT_EQ(inner, kCommitted);
  });
  EXPECT_EQ(status, kCommitted);
  EXPECT_EQ(value, 2u);
}

// Regression: the flat-nesting path used to skip its --depth_ when the
// inner body threw, so after the unwind the thread permanently believed
// it was inside a transaction (InTransaction() stuck true, later
// Transact calls flattened into nothing and never committed).
TEST(Htm, ForeignExceptionFromNestedBodyKeepsDepthBalanced) {
  alignas(64) static uint64_t value = 0;
  value = 0;
  HtmThread htm;
  const unsigned status = htm.Transact([&] {
    try {
      htm.Transact([&] { throw std::runtime_error("inner body"); });
    } catch (const std::runtime_error&) {
      // The body swallows its own foreign exception; the outer region
      // must still be live and commit normally.
    }
    htm.Store(&value, uint64_t{5});
  });
  EXPECT_EQ(status, kCommitted);
  EXPECT_FALSE(htm.InTransaction());
  EXPECT_EQ(value, 5u);
  // And the thread runs later transactions as usual.
  const unsigned again = htm.Transact([&] { htm.Store(&value, uint64_t{6}); });
  EXPECT_EQ(again, kCommitted);
  EXPECT_EQ(value, 6u);
}

// Regression companion: a foreign exception that escapes the outermost
// Transact entirely must roll the region back (no leaked depth, no
// buffered writes applied) and then propagate.
TEST(Htm, ForeignExceptionEscapingTransactRollsBack) {
  alignas(64) static uint64_t value = 0;
  value = 0;
  HtmThread htm;
  const stat::Snapshot before = Now();
  EXPECT_THROW(htm.Transact([&] {
    htm.Store(&value, uint64_t{9});
    throw std::runtime_error("escapes");
  }),
               std::runtime_error);
  EXPECT_FALSE(htm.InTransaction());
  EXPECT_EQ(value, 0u) << "buffered write must not be installed";
  EXPECT_EQ(Gained(before, "htm.abort.explicit"), 1u);
  const unsigned status = htm.Transact([&] { htm.Store(&value, uint64_t{1}); });
  EXPECT_EQ(status, kCommitted);
  EXPECT_EQ(value, 1u);
}

TEST(Htm, NestedAbortAbortsOuter) {
  alignas(64) static uint64_t value = 0;
  value = 0;
  HtmThread htm;
  const unsigned status = htm.Transact([&] {
    htm.Store(&value, uint64_t{1});
    htm.Transact([&] { htm.Abort(1); });
  });
  EXPECT_TRUE(status & kAbortExplicit);
  EXPECT_EQ(value, 0u);
}

TEST(Htm, CurrentReflectsActiveTransaction) {
  EXPECT_EQ(HtmThread::Current(), nullptr);
  HtmThread htm;
  htm.Transact([&] { EXPECT_EQ(HtmThread::Current(), &htm); });
  EXPECT_EQ(HtmThread::Current(), nullptr);
}

TEST(Htm, DispatchingHelpersOutsideTransaction) {
  alignas(64) static uint64_t value = 0;
  value = 0;
  Store(&value, uint64_t{5});  // strong path
  EXPECT_EQ(Load(&value), 5u);
}

// Concurrent counter increments: every committed transaction's increment
// must survive (atomicity + isolation).
TEST(Htm, ConcurrentIncrementsAreSerializable) {
  alignas(64) static uint64_t counter = 0;
  counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      HtmThread htm;
      for (int i = 0; i < kIncrements; ++i) {
        while (true) {
          const unsigned status = htm.Transact([&] {
            const uint64_t v = htm.Load(&counter);
            htm.Store(&counter, v + 1);
          });
          if (status == kCommitted) {
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, uint64_t{kThreads} * kIncrements);
}

// Two values on distinct lines must move together (consistency): a
// transaction moves a unit from a to b; concurrent strong readers must
// never observe a state where the sum changed.
TEST(Htm, TransfersPreserveInvariantUnderStrongReads) {
  struct alignas(64) Padded {
    uint64_t v;
  };
  static Padded a, b;
  a.v = 1000;
  b.v = 0;
  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      // Strong reads of both words individually can interleave with a
      // commit; read them as one transaction for a consistent snapshot.
      HtmThread htm;
      uint64_t sum = 0;
      const unsigned status = htm.Transact([&] {
        sum = htm.Load(&a.v) + htm.Load(&b.v);
      });
      if (status == kCommitted && sum != 1000) {
        violated.store(true);
      }
    }
  });

  HtmThread htm;
  for (int i = 0; i < 1000; ++i) {
    while (true) {
      const unsigned status = htm.Transact([&] {
        const uint64_t av = htm.Load(&a.v);
        const uint64_t bv = htm.Load(&b.v);
        if (av == 0) {
          return;
        }
        htm.Store(&a.v, av - 1);
        htm.Store(&b.v, bv + 1);
      });
      if (status == kCommitted) {
        break;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(a.v + b.v, 1000u);
}

// Write-write conflicts: concurrent blind writes both commit (last wins),
// but read-modify-write conflicts abort one side.
TEST(Htm, RmwConflictAbortsOneSide) {
  alignas(64) static uint64_t value = 0;
  value = 0;
  Barrier barrier(2);
  std::atomic<int> aborted{0};

  auto worker = [&] {
    HtmThread htm;
    const unsigned status = htm.Transact([&] {
      const uint64_t v = htm.Load(&value);
      barrier.Wait();  // Both transactions have read; now both write.
      htm.Store(&value, v + 1);
    });
    if (status != kCommitted) {
      ++aborted;
    }
  };
  std::thread t1(worker);
  std::thread t2(worker);
  t1.join();
  t2.join();
  // At least one must abort; serializability forbids both committing +1
  // from the same base unless one serialized after the other, which the
  // barrier prevents.
  EXPECT_GE(aborted.load(), 1);
  EXPECT_EQ(value, 1u);
}

TEST(Htm, AbortStatusContainsRetryBitOnConflict) {
  alignas(64) static uint64_t value = 0;
  value = 0;
  HtmThread htm;
  const unsigned status = htm.Transact([&] {
    (void)htm.Load(&value);
    StrongStore(&value, uint64_t{9});
  });
  EXPECT_TRUE(status & kAbortRetry);
}

TEST(Htm, StatsAccumulate) {
  alignas(64) static uint64_t value = 0;
  HtmThread htm;
  const stat::Snapshot before = Now();
  htm.Transact([&] { htm.Store(&value, uint64_t{1}); });
  htm.Transact([&] { htm.Abort(2); });
  EXPECT_EQ(Gained(before, "htm.commit"), 1u);
  EXPECT_EQ(Gained(before, "htm.abort.total"), 1u);
}

}  // namespace
}  // namespace htm
}  // namespace drtm
