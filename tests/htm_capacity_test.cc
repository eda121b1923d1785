// Capacity and retry abort paths of the HTM emulator, together with
// their classification by the stat taxonomy. These are the two abort
// causes no functional test exercised before: the capacity budget
// (read/write-set line limits) and the bounded lock spin that raises a
// retry hint alongside the conflict bit.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/htm/htm.h"
#include "src/htm/version_table.h"
#include "src/stat/abort_taxonomy.h"
#include "src/stat/metrics.h"
#include "src/txn/cluster.h"
#include "src/txn/transaction.h"
#include "src/workload/tpcc.h"

namespace drtm {
namespace {

constexpr size_t kLineWords = 64 / sizeof(uint64_t);

// One value per distinct cache line, enough lines to blow any small
// budget. The backing vector is 64-byte oversized so line boundaries
// fall inside it regardless of allocation alignment.
struct LineArray {
  explicit LineArray(size_t lines) : words(lines * kLineWords + kLineWords) {}
  uint64_t* at(size_t line) { return &words[line * kLineWords]; }
  std::vector<uint64_t> words;
};

TEST(HtmCapacity, WriteSetOverflowRaisesCapacityAbort) {
  htm::Config cfg;
  cfg.max_write_lines = 8;
  htm::HtmThread htm(cfg);
  LineArray data(64);

  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  const unsigned status = htm.Transact([&] {
    for (size_t line = 0; line < 64; ++line) {
      htm.Store(data.at(line), uint64_t{1});
    }
  });

  ASSERT_NE(status, htm::kCommitted);
  EXPECT_NE(status & htm::kAbortCapacity, 0u);
  EXPECT_EQ(stat::ClassifyRtmStatus(status), stat::AbortCause::kCapacity);

  const stat::Snapshot delta =
      stat::Registry::Global().TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("htm.abort.capacity"), 1u);
  EXPECT_EQ(delta.Counter("htm.abort.total"), 1u);

  // The aborted writes were buffered, never installed.
  EXPECT_EQ(*data.at(0), 0u);

  // The thread is usable again after the capacity abort.
  EXPECT_EQ(htm.Transact([&] { htm.Store(data.at(0), uint64_t{7}); }),
            htm::kCommitted);
  EXPECT_EQ(*data.at(0), 7u);
}

TEST(HtmCapacity, ReadSetOverflowRaisesCapacityAbort) {
  htm::Config cfg;
  cfg.max_read_lines = 8;
  htm::HtmThread htm(cfg);
  LineArray data(64);

  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  uint64_t sum = 0;
  const unsigned status = htm.Transact([&] {
    for (size_t line = 0; line < 64; ++line) {
      sum += htm.Load(data.at(line));
    }
  });

  ASSERT_NE(status, htm::kCommitted);
  EXPECT_NE(status & htm::kAbortCapacity, 0u);

  const stat::Snapshot delta =
      stat::Registry::Global().TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("htm.abort.capacity"), 1u);
  EXPECT_EQ(delta.Counter("htm.abort.total"), 1u);
}

TEST(HtmRetry, LockedLineSpinsThenAbortsWithRetryHint) {
  htm::Config cfg;
  cfg.lock_spin_limit = 16;  // keep the bounded spin short
  htm::HtmThread htm(cfg);
  uint64_t word = 0;

  // Lock the line's version slot the way a concurrent committer (or a
  // strong access) would: odd version = locked.
  std::atomic<uint64_t>* slot = VersionTable::Global().SlotFor(&word);
  const uint64_t unlocked = slot->load(std::memory_order_relaxed);
  ASSERT_FALSE(VersionTable::IsLocked(unlocked));
  slot->store(unlocked | 1, std::memory_order_release);

  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  const unsigned status = htm.Transact([&] { (void)htm.Load(&word); });
  slot->store(unlocked, std::memory_order_release);

  ASSERT_NE(status, htm::kCommitted);
  // The spin timeout reports conflict + the retry hint, like RTM does
  // for transient contention.
  EXPECT_NE(status & htm::kAbortRetry, 0u);
  EXPECT_NE(status & htm::kAbortConflict, 0u);

  // Taxonomy priority: the conflict bit dominates a retry hint.
  EXPECT_EQ(stat::ClassifyRtmStatus(status), stat::AbortCause::kConflict);
  const stat::Snapshot delta =
      stat::Registry::Global().TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("htm.abort.conflict"), 1u);
  EXPECT_EQ(delta.Counter("htm.abort.total"), 1u);

  // The line unlocks; the same read then commits.
  EXPECT_EQ(htm.Transact([&] { (void)htm.Load(&word); }), htm::kCommitted);
}

TEST(HtmRetry, BareRetryHintClassifiesAsRetry) {
  // The emulator only raises kAbortRetry together with kAbortConflict,
  // but the taxonomy (like RTM's EAX layout) treats a bare retry hint as
  // its own transient class. Exercise that counter directly.
  EXPECT_EQ(stat::ClassifyRtmStatus(htm::kAbortRetry),
            stat::AbortCause::kRetry);

  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  stat::RecordHtmOutcome(htm::kAbortRetry);
  const stat::Snapshot delta =
      stat::Registry::Global().TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("htm.abort.retry"), 1u);
  EXPECT_EQ(delta.Counter("htm.abort.total"), 1u);
}

// End-to-end capacity stretching: with a write-line budget too small for
// a full new-order body, the monolithic transaction capacity-aborts every
// HTM attempt and commits only through the 2PL fallback; the chop planner
// splits the same work into budget-sized pieces that commit in HTM.
TEST(HtmCapacity, ChoppedNewOrderAvoidsCapacityFallback) {
  struct Outcome {
    uint64_t capacity_aborts = 0;
    uint64_t fallbacks = 0;
    uint64_t chains = 0;
  };
  auto run = [](bool chop) {
    txn::ClusterConfig config;
    config.num_nodes = 1;
    config.workers_per_node = 1;
    config.region_bytes = 96 << 20;
    config.htm.max_write_lines = 32;  // a 15-item body needs ~2x this
    config.enable_chop_planner = chop;
    txn::Cluster cluster(config);
    workload::TpccDb::Params params;
    params.warehouses = 1;
    params.customers_per_district = 40;
    params.items = 120;
    params.name_count = 10;
    params.initial_orders_per_district = 6;
    params.new_order_rollback = 0.0;
    workload::TpccDb db(&cluster, params);
    cluster.Start();
    db.Load();
    const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
    txn::Worker worker(&cluster, 0, 0);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(db.RunNewOrderWithCross(&worker, 0.0),
                txn::TxnStatus::kCommitted);
    }
    EXPECT_TRUE(db.CheckConsistency());
    const stat::Snapshot delta =
        stat::Registry::Global().TakeSnapshot().DeltaSince(before);
    Outcome out;
    out.capacity_aborts = delta.Counter("txn.capacity_abort");
    out.fallbacks = delta.Counter("txn.fallback");
    out.chains = delta.Counter("txn.chop.chains");
    cluster.Stop();
    return out;
  };

  const Outcome monolithic = run(/*chop=*/false);
  const Outcome chopped = run(/*chop=*/true);

  // The baseline is capacity-bound: HTM attempts overflow and the commits
  // come from the fallback path.
  EXPECT_GT(monolithic.capacity_aborts, 0u);
  EXPECT_GT(monolithic.fallbacks, 0u);
  EXPECT_EQ(monolithic.chains, 0u);

  // Chopping ran the same 100 orders as chains of budget-sized pieces and
  // collapsed both the capacity aborts and the fallback rate.
  EXPECT_EQ(chopped.chains, 100u);
  EXPECT_LT(chopped.capacity_aborts, monolithic.capacity_aborts);
  EXPECT_LT(chopped.fallbacks, monolithic.fallbacks);
}

}  // namespace
}  // namespace drtm
