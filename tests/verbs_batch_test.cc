// Tests for the RDMA submission engine (src/rdma/phase_scatter.h):
// posting with caller-owned wr_ids, per-target post order, the
// reliable-connection error flush, the auto-doorbell window, overlapped
// per-target doorbells, and the scalar verbs as one-WQE doorbells.
#include "src/rdma/phase_scatter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/chaos/fault_plan.h"
#include "src/chaos/injector.h"
#include "src/htm/htm.h"
#include "src/rdma/fabric.h"
#include "src/stat/metrics.h"
#include "src/stat/scatter_stats.h"

namespace drtm {
namespace rdma {
namespace {

Fabric::Config TestConfig(int nodes,
                          AtomicLevel level = AtomicLevel::kHca) {
  Fabric::Config config;
  config.num_nodes = nodes;
  config.region_bytes = 1 << 20;
  config.latency = LatencyModel::Zero();
  config.atomic_level = level;
  return config;
}

std::vector<Completion> GatherAll(PhaseScatter& scatter) {
  std::vector<Completion> comps;
  scatter.Gather(&comps);
  return comps;
}

TEST(PhaseScatter, BatchedReadWriteMatchScalar) {
  Fabric fabric(TestConfig(2));
  const uint64_t off_a = fabric.memory(1).Allocate(64);
  const uint64_t off_b = fabric.memory(1).Allocate(64);
  const char msg_a[] = "first remote payload";
  const char msg_b[] = "second remote payload";

  PhaseScatter scatter(fabric);
  scatter.PostWrite(1, 0, off_a, msg_a, sizeof(msg_a));
  scatter.PostWrite(1, 1, off_b, msg_b, sizeof(msg_b));
  char got_a[sizeof(msg_a)] = {0};
  char got_b[sizeof(msg_b)] = {0};
  scatter.PostRead(1, 2, off_a, got_a, sizeof(got_a));
  scatter.PostRead(1, 3, off_b, got_b, sizeof(got_b));
  for (const Completion& comp : GatherAll(scatter)) {
    EXPECT_EQ(comp.status, OpStatus::kOk);
  }
  EXPECT_STREQ(got_a, msg_a);
  EXPECT_STREQ(got_b, msg_b);

  // The scalar path sees exactly the bytes the batch wrote.
  char scalar_a[sizeof(msg_a)] = {0};
  ASSERT_EQ(fabric.Read(1, off_a, scalar_a, sizeof(scalar_a)), OpStatus::kOk);
  EXPECT_STREQ(scalar_a, msg_a);
}

TEST(PhaseScatter, CompletionsExactlyOnceInPostOrderWithCallerWrIds) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  PhaseScatter scatter(fabric);
  const WrId ids[4] = {42, 7, 1000, 7};  // caller-chosen, even repeated
  uint64_t scratch[4];
  for (int i = 0; i < 4; ++i) {
    scatter.PostRead(1, ids[i], off, &scratch[i], 8);
  }
  std::vector<Completion> comps;
  EXPECT_EQ(scatter.Gather(&comps), 4u);
  ASSERT_EQ(comps.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(comps[i].wr_id, ids[i]);
    EXPECT_EQ(comps[i].target, 1);
  }
  // Exactly once: a second gather has nothing left.
  EXPECT_EQ(scatter.Gather(&comps), 0u);
  EXPECT_EQ(comps.size(), 4u);
}

TEST(PhaseScatter, SameWrIdOnTwoTargetsComesBackOncePerTarget) {
  Fabric fabric(TestConfig(3));
  const uint64_t off1 = fabric.memory(1).Allocate(8);
  const uint64_t off2 = fabric.memory(2).Allocate(8);
  fabric.SetAlive(2, false);
  PhaseScatter scatter(fabric);
  uint64_t scratch1 = 0, scratch2 = 0;
  scatter.PostRead(2, 5, off2, &scratch2, 8);
  scatter.PostRead(1, 5, off1, &scratch1, 8);
  std::vector<Completion> comps = GatherAll(scatter);
  ASSERT_EQ(comps.size(), 2u);
  std::sort(comps.begin(), comps.end(),
            [](const Completion& a, const Completion& b) {
              return a.target < b.target;
            });
  EXPECT_EQ(comps[0].target, 1);
  EXPECT_EQ(comps[0].wr_id, 5u);
  EXPECT_EQ(comps[0].status, OpStatus::kOk);
  EXPECT_EQ(comps[1].target, 2);
  EXPECT_EQ(comps[1].wr_id, 5u);
  EXPECT_EQ(comps[1].status, OpStatus::kNodeDown);
}

TEST(PhaseScatter, BatchedCasReportsPreSwapValue) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  PhaseScatter scatter(fabric);
  // In-order QP: the first CAS wins, the second sees the swapped value —
  // identical to two scalar CASes issued back to back.
  scatter.PostCas(1, 0, off, 0, 55);
  scatter.PostCas(1, 1, off, 0, 66);
  const std::vector<Completion> comps = GatherAll(scatter);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].status, OpStatus::kOk);
  EXPECT_EQ(comps[0].observed, 0u);  // swap happened
  EXPECT_EQ(comps[1].observed, 55u);  // swap refused, pre-op value
  uint64_t value = 0;
  fabric.Read(1, off, &value, 8);
  EXPECT_EQ(value, 55u);
}

TEST(PhaseScatter, BatchedFaaAccumulatesInOrder) {
  Fabric fabric(TestConfig(1));
  const uint64_t off = fabric.memory(0).Allocate(8);
  PhaseScatter scatter(fabric);
  scatter.PostFaa(0, 0, off, 3);
  scatter.PostFaa(0, 1, off, 4);
  const std::vector<Completion> comps = GatherAll(scatter);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].observed, 0u);
  EXPECT_EQ(comps[1].observed, 3u);
  uint64_t value = 0;
  fabric.Read(0, off, &value, 8);
  EXPECT_EQ(value, 7u);
}

TEST(PhaseScatter, ConsecutiveGathersExecuteInOrder) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  PhaseScatter scatter(fabric);
  // Two rounds on one scatter behave like two doorbells in order: the
  // first round's CAS is visible to the second.
  scatter.PostCas(1, 0, off, 0, 11);
  const std::vector<Completion> first = GatherAll(scatter);
  scatter.PostCas(1, 1, off, 11, 22);
  const std::vector<Completion> second = GatherAll(scatter);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].observed, 0u);
  EXPECT_EQ(second[0].observed, 11u);
  uint64_t value = 0;
  fabric.Read(1, off, &value, 8);
  EXPECT_EQ(value, 22u);
}

TEST(PhaseScatter, AutoDoorbellAtWindow) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  const uint64_t seed = 0x5eed;
  ASSERT_EQ(fabric.Write(1, off, &seed, 8), OpStatus::kOk);
  stat::Registry& reg = stat::Registry::Global();
  const stat::Snapshot before = reg.TakeSnapshot();
  PhaseScatter scatter(fabric);
  std::vector<uint64_t> scratch(PhaseScatter::kMaxOutstanding + 1, 0);
  for (size_t i = 0; i + 1 < PhaseScatter::kMaxOutstanding; ++i) {
    scatter.PostRead(1, i, off, &scratch[i], 8);
  }
  EXPECT_EQ(scratch[0], 0u);  // below the window nothing has executed
  // Filling the window submits the batch on the spot.
  const size_t last = PhaseScatter::kMaxOutstanding - 1;
  scatter.PostRead(1, last, off, &scratch[last], 8);
  EXPECT_EQ(scratch[0], seed);
  EXPECT_EQ(scratch[last], seed);
  EXPECT_EQ(reg.TakeSnapshot().DeltaSince(before).Counter(
                "rdma.batch.doorbells"),
            1u);
  scatter.PostRead(1, last + 1, off, &scratch[last + 1], 8);
  // The auto-rung batch's completions come back with the next gather,
  // ahead of the target's later WQEs.
  const std::vector<Completion> comps = GatherAll(scatter);
  ASSERT_EQ(comps.size(), PhaseScatter::kMaxOutstanding + 1);
  for (size_t i = 0; i < comps.size(); ++i) {
    EXPECT_EQ(comps[i].wr_id, i);
  }
  EXPECT_EQ(reg.TakeSnapshot().DeltaSince(before).Counter(
                "rdma.batch.doorbells"),
            2u);
}

TEST(PhaseScatter, BatchedWriteAbortsConflictingHtm) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  uint64_t* addr = static_cast<uint64_t*>(fabric.memory(1).At(off));
  htm::HtmThread htm;
  const unsigned status = htm.Transact([&] {
    (void)htm.Load(addr);
    // A batched one-sided WRITE lands while the word is in the HTM read
    // set: per-WQE strong atomicity must abort the transaction exactly
    // as the scalar verb does.
    PhaseScatter scatter(fabric);
    const uint64_t v = 99;
    scatter.PostWrite(1, 0, off, &v, 8);
    std::vector<Completion> comps;
    scatter.Gather(&comps);
  });
  EXPECT_TRUE(status & htm::kAbortConflict);
  EXPECT_EQ(*addr, 99u);
}

TEST(PhaseScatter, DeadNodeCompletesEveryWqeNodeDown) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  fabric.SetAlive(1, false);
  PhaseScatter scatter(fabric);
  uint64_t scratch = 0;
  scatter.PostRead(1, 0, off, &scratch, 8);
  scatter.PostCas(1, 1, off, 0, 1);
  const std::vector<Completion> comps = GatherAll(scatter);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].status, OpStatus::kNodeDown);
  EXPECT_EQ(comps[1].status, OpStatus::kNodeDown);
}

TEST(PhaseScatter, ScalarVerbToDeadNodeReturnsNodeDown) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  fabric.SetAlive(1, false);
  uint64_t word = 0;
  uint64_t observed = 0;
  EXPECT_EQ(fabric.Read(1, off, &word, 8), OpStatus::kNodeDown);
  EXPECT_EQ(fabric.Write(1, off, &word, 8), OpStatus::kNodeDown);
  EXPECT_EQ(fabric.Cas(1, off, 0, 1, &observed), OpStatus::kNodeDown);
  EXPECT_EQ(fabric.Faa(1, off, 1, &observed), OpStatus::kNodeDown);
}

// The first failed WQE errors the queue: every later WQE of the Gather
// round completes kNodeDown without executing (the RC flush), and the
// next round runs on a re-armed queue. The second input posts more than
// kMaxOutstanding WRITEs to one target, so the failure lands in an
// auto-rung doorbell and must flush the round's last doorbell too.
TEST(PhaseScatter, FailedWqeFlushesTheRestOfItsBatch) {
  struct Input {
    size_t writes;
    uint64_t failing;  // the arrival at rdma.write.wqe the plan drops
  };
  for (const Input& in :
       {Input{2, 1}, Input{PhaseScatter::kMaxOutstanding + 4, 3}}) {
    SCOPED_TRACE(in.writes);
    Fabric fabric(TestConfig(2));
    std::vector<uint64_t> offs;
    for (size_t i = 0; i < in.writes; ++i) {
      offs.push_back(fabric.memory(1).Allocate(8));
    }
    const uint64_t one = 1;
    chaos::FaultPlan plan;
    plan.Add(chaos::FaultEvent{"rdma.write.wqe", in.failing,
                               chaos::FaultKind::kDropOp, -1, 0});
    chaos::Injector::Global().Arm(plan);
    PhaseScatter scatter(fabric);
    for (size_t i = 0; i < in.writes; ++i) {
      scatter.PostWrite(1, i, offs[i], &one, 8);
    }
    std::vector<Completion> comps = GatherAll(scatter);
    ASSERT_EQ(comps.size(), in.writes);
    for (size_t i = 0; i < in.writes; ++i) {
      const bool executed = i + 1 < in.failing;
      EXPECT_EQ(comps[i].wr_id, i);
      EXPECT_EQ(comps[i].status,
                executed ? OpStatus::kOk : OpStatus::kNodeDown)
          << "wr_id " << i;
      uint64_t value = 0;
      ASSERT_EQ(fabric.Read(1, offs[i], &value, 8), OpStatus::kOk);
      EXPECT_EQ(value, executed ? 1u : 0u) << "wr_id " << i;
    }
    scatter.PostWrite(1, in.writes, offs.back(), &one, 8);
    comps = GatherAll(scatter);
    chaos::Injector::Global().Disarm();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].status, OpStatus::kOk);
    uint64_t value = 0;
    ASSERT_EQ(fabric.Read(1, offs.back(), &value, 8), OpStatus::kOk);
    EXPECT_EQ(value, 1u);
  }
}

// Batched CAS must keep NIC-level atomicity against concurrent batched
// CAS from other initiators, at both atomicity levels.
void RunConcurrentBatchedCas(AtomicLevel level) {
  Fabric fabric(TestConfig(2, level));
  const uint64_t off = fabric.memory(1).Allocate(8);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      PhaseScatter scatter(fabric);
      for (int i = 0; i < kIncrements; ++i) {
        while (true) {
          uint64_t current = 0;
          fabric.Read(1, off, &current, 8);
          scatter.PostCas(1, 0, off, current, current + 1);
          const std::vector<Completion> comps = GatherAll(scatter);
          ASSERT_EQ(comps.size(), 1u);
          if (comps[0].observed == current) {
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  uint64_t value = 0;
  fabric.Read(1, off, &value, 8);
  EXPECT_EQ(value, uint64_t{kThreads} * kIncrements);
}

TEST(PhaseScatter, ConcurrentBatchedCasAtomicAtHcaLevel) {
  RunConcurrentBatchedCas(AtomicLevel::kHca);
}

TEST(PhaseScatter, ConcurrentBatchedCasAtomicAtGlobLevel) {
  RunConcurrentBatchedCas(AtomicLevel::kGlob);
}

TEST(PhaseScatter, BatchMetricsRecorded) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(64);
  stat::Registry& reg = stat::Registry::Global();
  const stat::Snapshot before = reg.TakeSnapshot();
  PhaseScatter scatter(fabric);
  uint64_t scratch[3];
  scatter.PostRead(1, 0, off, &scratch[0], 8);
  scatter.PostRead(1, 1, off, &scratch[1], 8);
  scatter.PostRead(1, 2, off, &scratch[2], 8);
  GatherAll(scatter);
  const stat::Snapshot delta = reg.TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("rdma.batch.doorbells"), 1u);
  EXPECT_EQ(delta.Counter("rdma.batch.wqes"), 3u);
  const Histogram* sizes = delta.Hist("rdma.batch.size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), 1u);
  // max is kept from the later cumulative snapshot, so only a floor holds.
  EXPECT_GE(sizes->max(), 3u);
}

TEST(PhaseScatter, BatchedOpsCountInRegistry) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(64);
  stat::Registry& reg = stat::Registry::Global();
  const stat::Snapshot before = reg.TakeSnapshot();
  PhaseScatter scatter(fabric);
  char buf[32] = {0};
  scatter.PostRead(1, 0, off, buf, sizeof(buf));
  scatter.PostWrite(1, 1, off, buf, sizeof(buf));
  scatter.PostCas(1, 2, off, 0, 1);
  GatherAll(scatter);
  const stat::Snapshot delta = reg.TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("rdma.read.ops"), 1u);
  EXPECT_EQ(delta.Counter("rdma.read.bytes"), 32u);
  EXPECT_EQ(delta.Counter("rdma.write.ops"), 1u);
  EXPECT_EQ(delta.Counter("rdma.cas.ops"), 1u);
}

// A scalar verb is a one-WQE doorbell: it counts one doorbell and one
// WQE, and rdma.batch_ns records exactly the verb's own modeled cost.
TEST(PhaseScatter, ScalarVerbsAreOneWqeDoorbells) {
  const LatencyModel lat = LatencyModel::Calibrated(1.0);
  Fabric::Config config = TestConfig(2);
  config.latency = lat;
  Fabric fabric(config);
  const uint64_t off = fabric.memory(1).Allocate(64);
  stat::Registry& reg = stat::Registry::Global();
  uint64_t word = 0;
  struct Case {
    const char* verb;
    uint64_t modeled_ns;
    std::function<OpStatus()> issue;
  };
  uint64_t observed = 0;
  const Case cases[] = {
      {"read", lat.ReadNs(8),
       [&] { return fabric.Read(1, off, &word, 8); }},
      {"cas", lat.CasNs(),
       [&] { return fabric.Cas(1, off, 0, 1, &observed); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.verb);
    const stat::Snapshot before = reg.TakeSnapshot();
    ASSERT_EQ(c.issue(), OpStatus::kOk);
    const stat::Snapshot delta = reg.TakeSnapshot().DeltaSince(before);
    EXPECT_EQ(delta.Counter("rdma.batch.doorbells"), 1u);
    EXPECT_EQ(delta.Counter("rdma.batch.wqes"), 1u);
    EXPECT_EQ(delta.Counter(std::string("rdma.") + c.verb + ".ops"), 1u);
    const Histogram* charged = delta.Hist("rdma.batch_ns");
    ASSERT_NE(charged, nullptr);
    ASSERT_EQ(charged->count(), 1u);
    EXPECT_EQ(static_cast<uint64_t>(charged->Mean()), c.modeled_ns);
  }
}

TEST(PhaseScatter, OneDoorbellPerTarget) {
  Fabric fabric(TestConfig(3));
  const uint64_t off1 = fabric.memory(1).Allocate(8);
  const uint64_t off2 = fabric.memory(2).Allocate(8);
  stat::Registry& reg = stat::Registry::Global();
  const stat::Snapshot before = reg.TakeSnapshot();
  PhaseScatter scatter(fabric);
  uint64_t scratch[3];
  scatter.PostRead(1, 0, off1, &scratch[0], 8);
  scatter.PostRead(2, 1, off2, &scratch[1], 8);
  scatter.PostRead(1, 2, off1, &scratch[2], 8);
  EXPECT_EQ(GatherAll(scatter).size(), 3u);
  const stat::Snapshot delta = reg.TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("rdma.batch.doorbells"), 2u);
  EXPECT_EQ(delta.Counter("rdma.batch.wqes"), 3u);
}

TEST(PhaseScatter, GatherTagsCompletionsWithTargetInPostOrder) {
  Fabric fabric(TestConfig(3));
  const uint64_t off1 = fabric.memory(1).Allocate(8);
  const uint64_t off2 = fabric.memory(2).Allocate(8);
  const uint64_t a = 7, b = 8, c = 9;
  PhaseScatter scatter(fabric);
  scatter.PostWrite(1, 1, off1, &a, 8);
  scatter.PostWrite(2, 2, off2, &b, 8);
  scatter.PostWrite(1, 3, off1, &c, 8);
  std::vector<Completion> comps;
  EXPECT_EQ(scatter.Gather(&comps), 3u);
  ASSERT_EQ(comps.size(), 3u);
  // Grouped per target in first-use order, FIFO within a target.
  EXPECT_EQ(comps[0].target, 1);
  EXPECT_EQ(comps[0].wr_id, 1u);
  EXPECT_EQ(comps[1].target, 1);
  EXPECT_EQ(comps[1].wr_id, 3u);
  EXPECT_EQ(comps[2].target, 2);
  EXPECT_EQ(comps[2].wr_id, 2u);
  uint64_t v1 = 0, v2 = 0;
  fabric.Read(1, off1, &v1, 8);
  fabric.Read(2, off2, &v2, 8);
  EXPECT_EQ(v1, c);  // second write to node 1 landed after the first
  EXPECT_EQ(v2, b);
}

TEST(PhaseScatter, DeadTargetFailsOnlyItsOwnWqes) {
  Fabric fabric(TestConfig(3));
  const uint64_t off1 = fabric.memory(1).Allocate(8);
  const uint64_t off2 = fabric.memory(2).Allocate(8);
  fabric.SetAlive(2, false);
  PhaseScatter scatter(fabric);
  uint64_t scratch1 = 0, scratch2 = 0;
  scatter.PostRead(1, 0, off1, &scratch1, 8);
  scatter.PostRead(2, 1, off2, &scratch2, 8);
  std::vector<Completion> comps;
  EXPECT_EQ(scatter.Gather(&comps), 2u);
  ASSERT_EQ(comps.size(), 2u);
  for (const Completion& comp : comps) {
    EXPECT_EQ(comp.status,
              comp.target == 2 ? OpStatus::kNodeDown : OpStatus::kOk);
  }
}

TEST(PhaseScatter, EmptyGatherRecordsNoRound) {
  Fabric fabric(TestConfig(2));
  const stat::ScatterPhaseIds ids =
      stat::RegisterScatterPhase("test_empty_round");
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  PhaseScatter scatter(fabric, &ids);
  std::vector<Completion> comps;
  EXPECT_EQ(scatter.Gather(&comps), 0u);
  EXPECT_TRUE(comps.empty());
  const stat::Snapshot delta =
      stat::Registry::Global().TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("rdma.scatter.test_empty_round.rounds"), 0u);
}

TEST(PhaseScatter, RecordsDoorbellAndOverlapStats) {
  Fabric::Config config = TestConfig(3);
  config.latency = LatencyModel::Calibrated(1.0);
  Fabric fabric(config);
  const uint64_t off1 = fabric.memory(1).Allocate(8);
  const uint64_t off2 = fabric.memory(2).Allocate(8);
  const stat::ScatterPhaseIds ids =
      stat::RegisterScatterPhase("test_overlap");
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  PhaseScatter scatter(fabric, &ids);
  uint64_t scratch[3];
  scatter.PostRead(1, 0, off1, &scratch[0], 8);
  scatter.PostRead(1, 1, off1, &scratch[1], 8);
  scatter.PostRead(2, 2, off2, &scratch[2], 8);
  EXPECT_EQ(GatherAll(scatter).size(), 3u);
  const stat::Snapshot delta =
      stat::Registry::Global().TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("rdma.scatter.test_overlap.rounds"), 1u);
  EXPECT_EQ(delta.Counter("rdma.scatter.test_overlap.doorbells"), 2u);
  EXPECT_EQ(delta.Counter("rdma.scatter.test_overlap.wqes"), 3u);
  // Two overlapped batches: the saved time is exactly the smaller
  // batch's modeled cost (sum - max).
  const LatencyModel& lat = config.latency;
  const uint64_t payload =
      static_cast<uint64_t>(lat.read_per_byte_ns * 8.0);
  const uint64_t big = lat.BatchNs(lat.read_base_ns, 2 * payload, 2);
  const uint64_t small = lat.BatchNs(lat.read_base_ns, payload, 1);
  EXPECT_EQ(delta.Counter("rdma.scatter.test_overlap.overlap_saved_ns"),
            std::min(big, small));
}

TEST(Latency, BatchCostIsOneDoorbellPlusPerWqeOverhead) {
  const LatencyModel lat = LatencyModel::Calibrated(1.0);
  // One doorbell for N small READs costs far less than N full base
  // round trips — that is the whole point of doorbell batching.
  const uint64_t batched = lat.BatchNs(lat.read_base_ns, 0, 4);
  EXPECT_EQ(batched, lat.read_base_ns + 3 * lat.wqe_overhead_ns);
  EXPECT_LT(batched, 4 * lat.ReadNs(0));
  EXPECT_EQ(lat.BatchNs(lat.read_base_ns, 0, 0), 0u);
  EXPECT_EQ(LatencyModel::Zero().BatchNs(1500, 100, 8), 0u);
}

}  // namespace
}  // namespace rdma
}  // namespace drtm
