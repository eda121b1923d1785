#include "src/rdma/fabric.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/htm/htm.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace rdma {
namespace {

Fabric::Config TestConfig(int nodes) {
  Fabric::Config config;
  config.num_nodes = nodes;
  config.region_bytes = 1 << 20;
  config.latency = LatencyModel::Zero();
  return config;
}

TEST(NodeMemory, AllocateAligns) {
  NodeMemory mem(0, 4096);
  const uint64_t a = mem.Allocate(10, 64);
  const uint64_t b = mem.Allocate(10, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
}

TEST(NodeMemory, RegionIsLineAligned) {
  // Region sizes the benches use: a heap block of these sizes sits 16 B
  // past a line boundary, which made every 64 B-aligned bucket straddle
  // one line more than it needs.
  for (size_t mb : {24, 48, 64}) {
    NodeMemory mem(0, mb << 20);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(mem.base()) % 64, 0u) << mb;
    EXPECT_EQ(mem.base()[(mb << 20) - 1], 0) << "zero-filled";
  }
}

TEST(NodeMemory, OffsetRoundTrip) {
  NodeMemory mem(0, 4096);
  const uint64_t off = mem.Allocate(100);
  void* p = mem.At(off);
  EXPECT_EQ(mem.OffsetOf(p), off);
  EXPECT_TRUE(mem.Contains(p));
  EXPECT_FALSE(mem.Contains(&off));
}

TEST(Fabric, ReadWriteRoundTrip) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(64);
  const char msg[] = "hello, remote memory";
  ASSERT_EQ(fabric.Write(1, off, msg, sizeof(msg)), OpStatus::kOk);
  char buf[sizeof(msg)] = {0};
  ASSERT_EQ(fabric.Read(1, off, buf, sizeof(buf)), OpStatus::kOk);
  EXPECT_STREQ(buf, msg);
}

TEST(Fabric, CasSwapsOnMatch) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  uint64_t observed = 0;
  ASSERT_EQ(fabric.Cas(1, off, 0, 55, &observed), OpStatus::kOk);
  EXPECT_EQ(observed, 0u);
  ASSERT_EQ(fabric.Cas(1, off, 0, 66, &observed), OpStatus::kOk);
  EXPECT_EQ(observed, 55u);  // Failed: value was 55, not 0.
  uint64_t value = 0;
  fabric.Read(1, off, &value, 8);
  EXPECT_EQ(value, 55u);
}

TEST(Fabric, FaaAccumulates) {
  Fabric fabric(TestConfig(1));
  const uint64_t off = fabric.memory(0).Allocate(8);
  uint64_t observed = 0;
  fabric.Faa(0, off, 3, &observed);
  EXPECT_EQ(observed, 0u);
  fabric.Faa(0, off, 4, &observed);
  EXPECT_EQ(observed, 3u);
}

TEST(Fabric, ConcurrentCasIsAtomic) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        while (true) {
          uint64_t current = 0;
          fabric.Read(1, off, &current, 8);
          uint64_t observed = 0;
          fabric.Cas(1, off, current, current + 1, &observed);
          if (observed == current) {
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

TEST(Fabric, RdmaWriteAbortsConflictingHtm) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  uint64_t* addr = static_cast<uint64_t*>(fabric.memory(1).At(off));
  htm::HtmThread htm;
  const unsigned status = htm.Transact([&] {
    (void)htm.Load(addr);
    // One-sided RDMA WRITE from "another machine" lands while the HTM
    // transaction has the word in its read set.
    const uint64_t v = 99;
    fabric.Write(1, off, &v, 8);
  });
  EXPECT_TRUE(status & htm::kAbortConflict);
  EXPECT_EQ(*addr, 99u);
}

TEST(Fabric, DeadNodeRejectsVerbs) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(8);
  fabric.SetAlive(1, false);
  uint64_t v = 0;
  EXPECT_EQ(fabric.Read(1, off, &v, 8), OpStatus::kNodeDown);
  EXPECT_EQ(fabric.Write(1, off, &v, 8), OpStatus::kNodeDown);
  uint64_t observed;
  EXPECT_EQ(fabric.Cas(1, off, 0, 1, &observed), OpStatus::kNodeDown);
  fabric.SetAlive(1, true);
  EXPECT_EQ(fabric.Read(1, off, &v, 8), OpStatus::kOk);
}

TEST(Fabric, SendDeliversToQueue) {
  Fabric fabric(TestConfig(2));
  std::vector<uint8_t> payload = {1, 2, 3};
  ASSERT_EQ(fabric.Send(0, 1, 7, payload), OpStatus::kOk);
  Message msg;
  ASSERT_TRUE(fabric.queue(1).PopWait(&msg, 100000));
  EXPECT_EQ(msg.from, 0);
  EXPECT_EQ(msg.kind, 7u);
  EXPECT_EQ(msg.payload, payload);
  EXPECT_EQ(msg.rpc_id, 0u);
}

TEST(Fabric, RpcRoundTrip) {
  Fabric fabric(TestConfig(2));
  std::thread server([&] {
    Message msg;
    ASSERT_TRUE(fabric.queue(1).PopWait(&msg, 1000000));
    std::vector<uint8_t> reply = msg.payload;
    reply.push_back(42);
    fabric.Reply(msg, std::move(reply));
  });
  std::vector<uint8_t> reply;
  ASSERT_EQ(fabric.Rpc(0, 1, 9, {7}, &reply), OpStatus::kOk);
  ASSERT_EQ(reply.size(), 2u);
  EXPECT_EQ(reply[0], 7);
  EXPECT_EQ(reply[1], 42);
  server.join();
}

TEST(Fabric, RpcTimesOutWithoutServer) {
  Fabric fabric(TestConfig(2));
  std::vector<uint8_t> reply;
  EXPECT_EQ(fabric.Rpc(0, 1, 9, {}, &reply, /*timeout_us=*/2000),
            OpStatus::kTimeout);
}

TEST(Fabric, RpcToDeadNodeFails) {
  Fabric fabric(TestConfig(2));
  fabric.SetAlive(1, false);
  std::vector<uint8_t> reply;
  EXPECT_EQ(fabric.Rpc(0, 1, 9, {}, &reply, 2000), OpStatus::kNodeDown);
}

TEST(Fabric, VerbsCountInRegistry) {
  Fabric fabric(TestConfig(2));
  const uint64_t off = fabric.memory(1).Allocate(64);
  stat::Registry& reg = stat::Registry::Global();
  const stat::Snapshot before = reg.TakeSnapshot();
  char buf[32] = {0};
  fabric.Read(1, off, buf, sizeof(buf));
  fabric.Read(1, off, buf, sizeof(buf));
  fabric.Write(1, off, buf, sizeof(buf));
  uint64_t observed;
  fabric.Cas(1, off, 0, 1, &observed);
  const stat::Snapshot delta = reg.TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.Counter("rdma.read.ops"), 2u);
  EXPECT_EQ(delta.Counter("rdma.read.bytes"), 64u);
  EXPECT_EQ(delta.Counter("rdma.write.ops"), 1u);
  EXPECT_EQ(delta.Counter("rdma.write.bytes"), 32u);
  EXPECT_EQ(delta.Counter("rdma.cas.ops"), 1u);
}

TEST(Latency, CalibratedScalesDown) {
  const LatencyModel full = LatencyModel::Calibrated(1.0);
  const LatencyModel tenth = LatencyModel::Calibrated(0.1);
  EXPECT_EQ(full.CasNs(), 14500u);
  EXPECT_EQ(tenth.CasNs(), 1450u);
  EXPECT_GT(full.ReadNs(4096), full.ReadNs(16));
  EXPECT_EQ(LatencyModel::Zero().ReadNs(1 << 20), 0u);
}

TEST(Latency, IpoibIsMuchSlowerThanVerbs) {
  const LatencyModel verbs = LatencyModel::Calibrated(1.0);
  const LatencyModel ipoib = LatencyModel::Ipoib(1.0);
  EXPECT_GT(ipoib.SendNs(128), 10 * verbs.SendNs(128));
}

}  // namespace
}  // namespace rdma
}  // namespace drtm
