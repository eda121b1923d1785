#include "src/rdma/verbs_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/htm/htm.h"
#include "src/rdma/fabric.h"
#include "src/rdma/phase_scatter.h"
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

TEST(SendQueue, BatchedReadWriteMatchScalar) {
  Fabric fabric(TestConfig(2));
  const uint64_t off_a = fabric.memory(1).Allocate(64);
  const uint64_t off_b = fabric.memory(1).Allocate(64);
  const char msg_a[] = "first remote payload";
  const char msg_b[] = "second remote payload";

  SendQueue sq(fabric, 1);
  sq.PostWrite(off_a, msg_a, sizeof(msg_a));
  sq.PostWrite(off_b, msg_b, sizeof(msg_b));
  char got_a[sizeof(msg_a)] = {0};
  char got_b[sizeof(msg_b)] = {0};
  sq.PostRead(off_a, got_a, sizeof(got_a));
  sq.PostRead(off_b, got_b, sizeof(got_b));
  for (const Completion& comp : sq.Flush()) {
    EXPECT_EQ(comp.status, OpStatus::kOk);
  }
  EXPECT_STREQ(got_a, msg_a);
  EXPECT_STREQ(got_b, msg_b);

  // The scalar path sees exactly the bytes the batch wrote.
  char scalar_a[sizeof(msg_a)] = {0};
  ASSERT_EQ(fabric.Read(1, off_a, scalar_a, sizeof(scalar_a)), OpStatus::kOk);
  EXPECT_STREQ(scalar_a, msg_a);
}

TEST(SendQueue, CompletionsExactlyOnceInPostOrder) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  SendQueue sq(fabric, 1);
  std::vector<WrId> posted;
  uint64_t scratch[4];
  for (int i = 0; i < 4; ++i) {
    posted.push_back(sq.PostRead(off, &scratch[i], 8));
  }
  EXPECT_EQ(sq.pending(), 4u);
  EXPECT_EQ(sq.RingDoorbell(), 4u);
  EXPECT_EQ(sq.pending(), 0u);
  EXPECT_EQ(sq.inflight(), 4u);

  // Drain in two unequal polls; ids must come back in post order.
  Completion out[3];
  ASSERT_EQ(sq.PollCompletions(out, 3), 3u);
  EXPECT_EQ(out[0].wr_id, posted[0]);
  EXPECT_EQ(out[1].wr_id, posted[1]);
  EXPECT_EQ(out[2].wr_id, posted[2]);
  ASSERT_EQ(sq.PollCompletions(out, 3), 1u);
  EXPECT_EQ(out[0].wr_id, posted[3]);
  // Exactly once: nothing left.
  EXPECT_EQ(sq.PollCompletions(out, 3), 0u);
  EXPECT_EQ(sq.inflight(), 0u);
  // An empty doorbell is a no-op.
  EXPECT_EQ(sq.RingDoorbell(), 0u);
}

TEST(SendQueue, BatchedCasReportsPreSwapValue) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  SendQueue sq(fabric, 1);
  // In-order QP: the first CAS wins, the second sees the swapped value —
  // identical to two scalar CASes issued back to back.
  sq.PostCas(off, 0, 55);
  sq.PostCas(off, 0, 66);
  const std::vector<Completion> comps = sq.Flush();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].status, OpStatus::kOk);
  EXPECT_EQ(comps[0].observed, 0u);  // swap happened
  EXPECT_EQ(comps[1].observed, 55u);  // swap refused, pre-op value
  uint64_t value = 0;
  fabric.Read(1, off, &value, 8);
  EXPECT_EQ(value, 55u);
}

TEST(SendQueue, BatchedFaaAccumulatesInOrder) {
  Fabric fabric(TestConfig(1));
  const uint64_t off = fabric.memory(0).Allocate(8);
  SendQueue sq(fabric, 0);
  sq.PostFaa(off, 3);
  sq.PostFaa(off, 4);
  const std::vector<Completion> comps = sq.Flush();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].observed, 0u);
  EXPECT_EQ(comps[1].observed, 3u);
  uint64_t value = 0;
  fabric.Read(0, off, &value, 8);
  EXPECT_EQ(value, 7u);
}

TEST(SendQueue, AutoDoorbellAtWindow) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  SendQueue sq(fabric, 1, SendQueue::Config{2});
  uint64_t scratch[3];
  sq.PostRead(off, &scratch[0], 8);
  EXPECT_EQ(sq.pending(), 1u);
  // Filling the window submits the batch automatically.
  sq.PostRead(off, &scratch[1], 8);
  EXPECT_EQ(sq.pending(), 0u);
  EXPECT_EQ(sq.inflight(), 2u);
  sq.PostRead(off, &scratch[2], 8);
  EXPECT_EQ(sq.pending(), 1u);
  const std::vector<Completion> comps = sq.Flush();
  EXPECT_EQ(comps.size(), 3u);
}

TEST(SendQueue, BatchedWriteAbortsConflictingHtm) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  uint64_t* addr = static_cast<uint64_t*>(fabric.memory(1).At(off));
  htm::HtmThread htm;
  const unsigned status = htm.Transact([&] {
    (void)htm.Load(addr);
    // A batched one-sided WRITE lands while the word is in the HTM read
    // set: per-WQE strong atomicity must abort the transaction exactly
    // as the scalar verb does.
    SendQueue sq(fabric, 1);
    const uint64_t v = 99;
    sq.PostWrite(off, &v, 8);
    sq.Flush();
  });
  EXPECT_TRUE(status & htm::kAbortConflict);
  EXPECT_EQ(*addr, 99u);
}

TEST(SendQueue, DeadNodeCompletesEveryWqeNodeDown) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  fabric.SetAlive(1, false);
  SendQueue sq(fabric, 1);
  uint64_t scratch = 0;
  sq.PostRead(off, &scratch, 8);
  sq.PostCas(off, 0, 1);
  const std::vector<Completion> comps = sq.Flush();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].status, OpStatus::kNodeDown);
  EXPECT_EQ(comps[1].status, OpStatus::kNodeDown);
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
      SendQueue sq(fabric, 1);
      for (int i = 0; i < kIncrements; ++i) {
        while (true) {
          uint64_t current = 0;
          fabric.Read(1, off, &current, 8);
          sq.PostCas(off, current, current + 1);
          const std::vector<Completion> comps = sq.Flush();
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

TEST(SendQueue, ConcurrentBatchedCasAtomicAtHcaLevel) {
  RunConcurrentBatchedCas(AtomicLevel::kHca);
}

TEST(SendQueue, ConcurrentBatchedCasAtomicAtGlobLevel) {
  RunConcurrentBatchedCas(AtomicLevel::kGlob);
}

TEST(SendQueue, BatchMetricsRecorded) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(64);
  stat::Registry& reg = stat::Registry::Global();
  const stat::Snapshot before = reg.TakeSnapshot();
  SendQueue sq(fabric, 1);
  uint64_t scratch[3];
  sq.PostRead(off, &scratch[0], 8);
  sq.PostRead(off, &scratch[1], 8);
  sq.PostRead(off, &scratch[2], 8);
  sq.Flush();
  const stat::Snapshot delta = reg.TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("rdma.batch.doorbells"), 1u);
  EXPECT_EQ(delta.Counter("rdma.batch.wqes"), 3u);
  const Histogram* sizes = delta.Hist("rdma.batch.size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), 1u);
  // max is kept from the later cumulative snapshot, so only a floor holds.
  EXPECT_GE(sizes->max(), 3u);
}

TEST(SendQueue, BatchedOpsCountInRegistry) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(64);
  stat::Registry& reg = stat::Registry::Global();
  const stat::Snapshot before = reg.TakeSnapshot();
  SendQueue sq(fabric, 1);
  char buf[32] = {0};
  sq.PostRead(off, buf, sizeof(buf));
  sq.PostWrite(off, buf, sizeof(buf));
  sq.PostCas(off, 0, 1);
  sq.Flush();
  const stat::Snapshot delta = reg.TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("rdma.read.ops"), 1u);
  EXPECT_EQ(delta.Counter("rdma.read.bytes"), 32u);
  EXPECT_EQ(delta.Counter("rdma.write.ops"), 1u);
  EXPECT_EQ(delta.Counter("rdma.cas.ops"), 1u);
}

TEST(SendQueue, AsyncSubmissionMatchesRingDoorbell) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(64);
  const char msg[] = "async payload";
  SendQueue sq(fabric, 1);
  char got[sizeof(msg)] = {0};
  sq.PostWrite(off, msg, sizeof(msg));
  sq.PostRead(off, got, sizeof(got));
  ASSERT_FALSE(sq.submission_pending());
  const SendQueue::Submission sub = sq.SubmitAsync();
  EXPECT_EQ(sub.wqes, 2u);
  EXPECT_TRUE(sq.submission_pending());
  EXPECT_EQ(sq.pending(), 0u);
  // Nothing has executed yet; the READ buffer is untouched until the
  // submission completes.
  sq.CompleteSubmission();
  EXPECT_FALSE(sq.submission_pending());
  EXPECT_STREQ(got, msg);
  Completion out[2];
  ASSERT_EQ(sq.PollCompletions(out, 2), 2u);
  EXPECT_EQ(out[0].status, OpStatus::kOk);
  EXPECT_EQ(out[1].status, OpStatus::kOk);
  // An empty async submit is a no-op submission.
  EXPECT_EQ(sq.SubmitAsync().wqes, 0u);
  EXPECT_FALSE(sq.submission_pending());
}

TEST(SendQueue, SecondSubmitCompletesTheFirst) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  SendQueue sq(fabric, 1);
  // Back-to-back async submissions must behave like two doorbells in
  // order: CASes from the first batch are visible to the second.
  sq.PostCas(off, 0, 11);
  ASSERT_EQ(sq.SubmitAsync().wqes, 1u);
  sq.PostCas(off, 11, 22);
  ASSERT_EQ(sq.SubmitAsync().wqes, 1u);
  sq.CompleteSubmission();
  std::vector<Completion> comps(2);
  ASSERT_EQ(sq.PollCompletions(comps.data(), 2), 2u);
  EXPECT_EQ(comps[0].observed, 0u);
  EXPECT_EQ(comps[1].observed, 11u);
  uint64_t value = 0;
  fabric.Read(1, off, &value, 8);
  EXPECT_EQ(value, 22u);
}

TEST(SendQueue, AsyncBatchChargesSameLatencyAsSync) {
  const LatencyModel lat = LatencyModel::Calibrated(1.0);
  Fabric::Config config = TestConfig(2);
  config.latency = lat;
  Fabric fabric(config);
  const uint64_t off = fabric.memory(1).Allocate(8);
  SendQueue sq(fabric, 1);
  uint64_t scratch[2];
  sq.PostRead(off, &scratch[0], 8);
  sq.PostRead(off, &scratch[1], 8);
  const SendQueue::Submission sub = sq.SubmitAsync();
  // The async submission carries exactly the modeled batch cost the
  // synchronous doorbell would have spun for.
  const uint64_t payload =
      static_cast<uint64_t>(lat.read_per_byte_ns * 8.0);
  EXPECT_EQ(sub.batch_ns, lat.BatchNs(lat.read_base_ns, 2 * payload, 2));
  sq.CompleteSubmission();
}

TEST(PhaseScatter, QueuesArePerTargetAndPersistent) {
  Fabric fabric(TestConfig(3));
  PhaseScatter scatter(fabric, SendQueue::Config{});
  SendQueue& q1 = scatter.To(1);
  SendQueue& q2 = scatter.To(2);
  EXPECT_NE(&q1, &q2);
  EXPECT_EQ(&scatter.To(1), &q1);
  EXPECT_EQ(&scatter.To(2), &q2);
}

TEST(PhaseScatter, GatherTagsCompletionsWithTargetInPostOrder) {
  Fabric fabric(TestConfig(3));
  const uint64_t off1 = fabric.memory(1).Allocate(8);
  const uint64_t off2 = fabric.memory(2).Allocate(8);
  const uint64_t a = 7, b = 8, c = 9;
  PhaseScatter scatter(fabric, SendQueue::Config{});
  const WrId w1 = scatter.To(1).PostWrite(off1, &a, 8);
  const WrId w2 = scatter.To(2).PostWrite(off2, &b, 8);
  const WrId w3 = scatter.To(1).PostWrite(off1, &c, 8);
  EXPECT_EQ(scatter.pending(), 3u);
  EXPECT_EQ(scatter.pending_targets(), 2u);
  std::vector<ScatterCompletion> comps;
  EXPECT_EQ(scatter.Gather(&comps), 3u);
  EXPECT_EQ(scatter.pending(), 0u);
  ASSERT_EQ(comps.size(), 3u);
  // Grouped per target in first-use order, FIFO within a target.
  EXPECT_EQ(comps[0].target, 1);
  EXPECT_EQ(comps[0].comp.wr_id, w1);
  EXPECT_EQ(comps[1].target, 1);
  EXPECT_EQ(comps[1].comp.wr_id, w3);
  EXPECT_EQ(comps[2].target, 2);
  EXPECT_EQ(comps[2].comp.wr_id, w2);
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
  PhaseScatter scatter(fabric, SendQueue::Config{});
  uint64_t scratch1 = 0, scratch2 = 0;
  scatter.To(1).PostRead(off1, &scratch1, 8);
  scatter.To(2).PostRead(off2, &scratch2, 8);
  std::vector<ScatterCompletion> comps;
  EXPECT_EQ(scatter.Gather(&comps), 2u);
  ASSERT_EQ(comps.size(), 2u);
  for (const ScatterCompletion& sc : comps) {
    EXPECT_EQ(sc.comp.status,
              sc.target == 2 ? OpStatus::kNodeDown : OpStatus::kOk);
  }
}

TEST(PhaseScatter, EmptyGatherRecordsNoRound) {
  Fabric fabric(TestConfig(2));
  const stat::ScatterPhaseIds ids =
      stat::RegisterScatterPhase("test_empty_round");
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  PhaseScatter scatter(fabric, SendQueue::Config{}, &ids);
  std::vector<ScatterCompletion> comps;
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
  PhaseScatter scatter(fabric, SendQueue::Config{}, &ids);
  uint64_t scratch[3];
  scatter.To(1).PostRead(off1, &scratch[0], 8);
  scatter.To(1).PostRead(off1, &scratch[1], 8);
  scatter.To(2).PostRead(off2, &scratch[2], 8);
  EXPECT_EQ(scatter.Gather(nullptr), 3u);
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
