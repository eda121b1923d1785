// Unit tests for the transaction-layer building blocks: the lock/lease
// state word, synchronized time, NVRAM logging, and the cluster plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/chaos/fault_plan.h"
#include "src/chaos/injector.h"
#include "src/common/clock.h"
#include "src/common/rand.h"
#include "src/htm/htm.h"
#include "src/stat/metrics.h"
#include "src/txn/cluster.h"
#include "src/txn/lock_state.h"
#include "src/txn/nvram_log.h"
#include "src/txn/sync_time.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace txn {
namespace {

TEST(LockState, InitIsUnlockedAndUnleased) {
  EXPECT_FALSE(IsWriteLocked(kStateInit));
  EXPECT_FALSE(HasLease(kStateInit));
  EXPECT_EQ(LeaseEnd(kStateInit), 0u);
}

TEST(LockState, WriteLockCarriesOwner) {
  const uint64_t state = MakeWriteLocked(5);
  EXPECT_TRUE(IsWriteLocked(state));
  EXPECT_EQ(LockOwner(state), 5);
  EXPECT_FALSE(HasLease(state));
}

TEST(LockState, OwnerUsesEightBits) {
  const uint64_t state = MakeWriteLocked(255);
  EXPECT_EQ(LockOwner(state), 255);
  EXPECT_TRUE(IsWriteLocked(state));
}

TEST(LockState, LeaseRoundTrip) {
  const uint64_t end = 123456789;
  const uint64_t state = MakeLease(end);
  EXPECT_FALSE(IsWriteLocked(state));
  EXPECT_TRUE(HasLease(state));
  EXPECT_EQ(LeaseEnd(state), end);
}

TEST(LockState, ExpiryWindowHasDeadZone) {
  const uint64_t end = 1000;
  const uint64_t delta = 50;
  // Clearly valid.
  EXPECT_TRUE(LeaseValid(end, 900, delta));
  EXPECT_FALSE(LeaseExpired(end, 900, delta));
  // Indeterminate zone: neither valid nor expired.
  EXPECT_FALSE(LeaseValid(end, 980, delta));
  EXPECT_FALSE(LeaseExpired(end, 980, delta));
  EXPECT_FALSE(LeaseValid(end, 1020, delta));
  EXPECT_FALSE(LeaseExpired(end, 1020, delta));
  // Clearly expired.
  EXPECT_FALSE(LeaseValid(end, 1100, delta));
  EXPECT_TRUE(LeaseExpired(end, 1100, delta));
}

class SyncTimeTest : public ::testing::Test {
 protected:
  SyncTimeTest() {
    rdma::Fabric::Config config;
    config.num_nodes = 2;
    config.region_bytes = 1 << 20;
    fabric_ = std::make_unique<rdma::Fabric>(config);
    synctime_ = std::make_unique<SyncTime>(fabric_.get(), 100);
  }
  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<SyncTime> synctime_;
};

TEST_F(SyncTimeTest, PublishesOnAllNodes) {
  synctime_->PublishNow();
  EXPECT_GT(synctime_->ReadStrong(0), 0u);
  EXPECT_GT(synctime_->ReadStrong(1), 0u);
}

TEST_F(SyncTimeTest, TimerAdvancesTime) {
  synctime_->Start();
  const uint64_t t0 = synctime_->ReadStrong(0);
  // The timer thread publishes every 100 us once scheduled; under
  // parallel load its first run can take longer than any fixed sleep.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  uint64_t t1 = t0;
  while (t1 == t0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    t1 = synctime_->ReadStrong(0);
  }
  synctime_->Stop();
  EXPECT_GT(t1, t0);
}

TEST_F(SyncTimeTest, SkewShiftsOneNode) {
  synctime_->SetSkew(1, 1000000);
  synctime_->PublishNow();
  EXPECT_GT(synctime_->ReadStrong(1), synctime_->ReadStrong(0) + 500000);
}

TEST_F(SyncTimeTest, TransactionalReadConflictsWithTimer) {
  // A transaction that reads softtime transactionally is aborted by a
  // concurrent publish — the Fig. 11 false-conflict mechanism.
  htm::HtmThread htm;
  const unsigned status = htm.Transact([&] {
    (void)htm.Load(synctime_->Word(0));
    synctime_->PublishNow();  // timer fires mid-transaction
  });
  EXPECT_NE(status, htm::kCommitted);
}

class NvramLogTest : public ::testing::Test {
 protected:
  NvramLogTest() {
    rdma::Fabric::Config config;
    config.num_nodes = 1;
    config.region_bytes = 8 << 20;
    fabric_ = std::make_unique<rdma::Fabric>(config);
    log_ = std::make_unique<NvramLog>(&fabric_->memory(0), 2, 1 << 16);
  }
  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<NvramLog> log_;
};

TEST_F(NvramLogTest, AppendAndIterate) {
  const char payload[] = "lock-ahead";
  ASSERT_TRUE(log_->Append(0, LogType::kLockAhead, 42, payload,
                           sizeof(payload)));
  ASSERT_TRUE(log_->Append(1, LogType::kComplete, 42, nullptr, 0));
  int seen = 0;
  log_->ForEach([&](int worker, const LogRecord& record) {
    ++seen;
    EXPECT_EQ(record.txn_id, 42u);
    if (record.type == LogType::kLockAhead) {
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(record.payload.size(), sizeof(payload));
    } else {
      EXPECT_EQ(record.type, LogType::kComplete);
      EXPECT_EQ(worker, 1);
    }
  });
  EXPECT_EQ(seen, 2);
}

TEST_F(NvramLogTest, SegmentFullRejects) {
  std::vector<uint8_t> big(1 << 15, 0xab);
  EXPECT_TRUE(log_->Append(0, LogType::kWriteAhead, 1, big.data(), big.size()));
  EXPECT_FALSE(
      log_->Append(0, LogType::kWriteAhead, 2, big.data(), big.size()));
}

TEST_F(NvramLogTest, TransactionalAppendIsAllOrNothing) {
  // The WAL trick from section 4.6: a log record appended inside an HTM
  // region must exist iff the region commits.
  htm::HtmThread htm;
  const char payload[] = "wal";
  const unsigned aborted = htm.Transact([&] {
    ASSERT_TRUE(
        log_->Append(0, LogType::kWriteAhead, 7, payload, sizeof(payload)));
    htm.Abort(1);
  });
  EXPECT_NE(aborted, htm::kCommitted);
  EXPECT_EQ(log_->UsedBytes(0), 0u);

  const unsigned committed = htm.Transact([&] {
    ASSERT_TRUE(
        log_->Append(0, LogType::kWriteAhead, 7, payload, sizeof(payload)));
  });
  EXPECT_EQ(committed, htm::kCommitted);
  EXPECT_GT(log_->UsedBytes(0), 0u);
  // The record was staged inside the HTM region; the commit path seals the
  // epoch right after XEND (an epoch can't be sealed transactionally).
  log_->Externalize(0);
  int wal_records = 0;
  log_->ForEach([&](int, const LogRecord& record) {
    if (record.type == LogType::kWriteAhead && record.txn_id == 7) {
      ++wal_records;
    }
  });
  EXPECT_EQ(wal_records, 1);
}

TEST_F(NvramLogTest, TryAppendDistinguishesFullFromInjectedFault) {
  std::vector<uint8_t> big(1 << 15, 0xab);
  EXPECT_EQ(log_->TryAppend(0, LogType::kWriteAhead, 1, big.data(),
                            big.size()),
            AppendStatus::kOk);
  // A genuinely full segment reports kFull: the reclaim-and-retry signal.
  EXPECT_EQ(log_->TryAppend(0, LogType::kWriteAhead, 2, big.data(),
                            big.size()),
            AppendStatus::kFull);
  // An injected fault on an empty segment reports kFaulted: the modeled
  // op failure, which reclaiming cannot heal.
  chaos::FaultPlan plan;
  plan.Add(chaos::FaultEvent{"log.append", 1, chaos::FaultKind::kDropOp, -1,
                             0});
  chaos::Injector::Global().Arm(plan);
  EXPECT_EQ(log_->TryAppend(1, LogType::kWriteAhead, 3, big.data(), 16),
            AppendStatus::kFaulted);
  chaos::Injector::Global().Disarm();
  EXPECT_EQ(log_->UsedBytes(1), 0u);
  // The same append succeeds once the injector is quiet.
  EXPECT_EQ(log_->TryAppend(1, LogType::kWriteAhead, 3, big.data(), 16),
            AppendStatus::kOk);
}

TEST_F(NvramLogTest, AppendHonoursInjectedDelay) {
  // A kDelay at log.append must spin the modeled latency out (like the
  // seal/flush points do) and then proceed — not fail the append.
  constexpr int64_t kDelayNs = 2'000'000;
  chaos::FaultPlan plan;
  plan.Add(chaos::FaultEvent{"log.append", 1, chaos::FaultKind::kDelay, -1,
                             kDelayNs});
  chaos::Injector::Global().Arm(plan);
  const char payload[] = "slow";
  const uint64_t start = MonotonicNanos();
  EXPECT_EQ(log_->TryAppend(0, LogType::kWriteAhead, 5, payload,
                            sizeof(payload)),
            AppendStatus::kOk);
  const uint64_t elapsed = MonotonicNanos() - start;
  chaos::Injector::Global().Disarm();
  EXPECT_GE(elapsed, static_cast<uint64_t>(kDelayNs));
  EXPECT_GT(log_->UsedBytes(0), 0u);
}

// Regression tests for the ring-wrap/epoch-contiguity invariant: an open
// epoch must never end exactly on the ring boundary, or the next record
// would continue it at physical offset 0 and the seal/replay checksums
// (linear reads of data_bytes from data_start) would run off the end of
// the segment into whatever is allocated after it.
class NvramLogRingTest : public ::testing::Test {
 protected:
  static constexpr size_t kSegment = 1024;
  // sizeof(RecordHeader) and sizeof(RecordHeader) + sizeof(EpochInfo),
  // mirrored here to make the boundary arithmetic below readable.
  static constexpr uint64_t kRec = 16;
  static constexpr uint64_t kEpochHdr = 48;

  NvramLogRingTest() {
    rdma::Fabric::Config config;
    config.num_nodes = 1;
    config.region_bytes = 8 << 20;
    fabric_ = std::make_unique<rdma::Fabric>(config);
    LogEpochConfig epoch;
    epoch.group_commit = true;
    epoch.epoch_bytes = size_t{1} << 20;  // never seal on bytes
    epoch.epoch_us = 0;                   // never seal on time
    log_ = std::make_unique<NvramLog>(&fabric_->memory(0), 2, kSegment,
                                      epoch);
  }

  void AppendWal(uint64_t txn, size_t len) {
    std::vector<uint8_t> payload(len, static_cast<uint8_t>(txn));
    ASSERT_TRUE(log_->Append(0, LogType::kWriteAhead, txn, payload.data(),
                             payload.size()))
        << "txn " << txn << " len " << len;
  }

  // Seals, flushes and reclaims everything appended so far, so the
  // worker-0 ring's truncation base advances to its head — the wrapped
  // scenarios below need free space behind the boundary.
  void CompleteAndReclaim(uint64_t txn) {
    ASSERT_TRUE(log_->Append(0, LogType::kComplete, txn, nullptr, 0));
    log_->DrainFlushes(0);
    ASSERT_TRUE(log_->ReclaimSpace(0));
    ASSERT_EQ(log_->UsedBytes(0), 0u);
  }

  // Replays worker 0's sealed log and collects the WAL txn ids seen.
  std::vector<uint64_t> ReplayedWalIds() {
    std::vector<uint64_t> ids;
    log_->ForEach([&](int worker, const LogRecord& record) {
      if (worker == 0 && record.type == LogType::kWriteAhead) {
        ids.push_back(record.txn_id);
      }
    });
    return ids;
  }

  // Dirties the memory physically adjacent to worker 0's segment by
  // appending on worker 1 (its control block is the next allocation).
  // If an epoch's checksum covered out-of-bounds bytes, this flips them
  // between seal and replay and the epoch reads as torn.
  void DirtyAdjacentRegion() {
    const char payload[] = "w1";
    ASSERT_TRUE(log_->Append(1, LogType::kWriteAhead, 99, payload,
                             sizeof(payload)));
  }

  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<NvramLog> log_;
};

TEST_F(NvramLogRingTest, ExactFitMidEpochSealsInsteadOfWrapping) {
  // Park the truncation base at 448 so the ring has space past the wrap.
  AppendWal(1, 368);  // epoch hdr at 0, record needs 16+368: head = 432
  CompleteAndReclaim(1);  // +16: head = truncate = 448

  AppendWal(2, 224);  // epoch hdr at 448, need 240: head = 736
  // phys_left is exactly 288 == this record's need: the open epoch must
  // seal (and the new one pad past the boundary) rather than end with
  // its head on the ring boundary.
  AppendWal(3, 272);
  AppendWal(4, 8);  // rides in the post-wrap epoch

  log_->Externalize(0);
  DirtyAdjacentRegion();

  const std::vector<uint64_t> ids = ReplayedWalIds();
  EXPECT_EQ(ids, (std::vector<uint64_t>{2, 3, 4}))
      << "a sealed epoch became invisible: its checksum covered bytes "
         "outside the segment";
}

TEST_F(NvramLogRingTest, ExactFitWhenOpeningEpochPadsPastBoundary) {
  AppendWal(1, 368);
  CompleteAndReclaim(1);  // truncate = 448
  AppendWal(2, 296);      // epoch hdr at 448, need 312: head = 808
  CompleteAndReclaim(2);  // +16: head = truncate = 824

  // phys_left is exactly 200 == epoch header + this record's need: the
  // fresh epoch must pad the ring tail and open past the boundary, not
  // fill the lap exactly and leave its head on it.
  AppendWal(3, 136);
  AppendWal(4, 8);

  log_->Externalize(0);
  DirtyAdjacentRegion();

  const std::vector<uint64_t> ids = ReplayedWalIds();
  EXPECT_EQ(ids, (std::vector<uint64_t>{3, 4}))
      << "a sealed epoch became invisible: its checksum covered bytes "
         "outside the segment";
}

TEST(NvramLogCodec, LocksRoundTrip) {
  std::vector<LogLock> locks = {{1, 2, 0xabc, 4096}, {0, 5, 7, 8192}};
  const auto payload = NvramLog::EncodeLocks(locks);
  const auto decoded = NvramLog::DecodeLocks(payload);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].node, 1);
  EXPECT_EQ(decoded[0].state_off, 4096u);
  EXPECT_EQ(decoded[1].table, 5);
  EXPECT_EQ(decoded[1].key, 7u);
}

TEST(NvramLogCodec, UpdatesRoundTrip) {
  std::vector<uint8_t> buffer;
  const uint64_t v1 = 111;
  const uint64_t v2 = 222;
  NvramLog::EncodeUpdate(&buffer,
                         LogUpdate{0, 1, 10, 1000, 3, sizeof(uint64_t)}, &v1);
  NvramLog::EncodeUpdate(&buffer,
                         LogUpdate{1, 1, 20, 2000, 4, sizeof(uint64_t)}, &v2);
  int seen = 0;
  NvramLog::DecodeUpdates(buffer,
                          [&](const LogUpdate& update, const uint8_t* value) {
                            uint64_t v;
                            std::memcpy(&v, value, 8);
                            if (seen == 0) {
                              EXPECT_EQ(update.key, 10u);
                              EXPECT_EQ(update.version, 3u);
                              EXPECT_EQ(v, 111u);
                            } else {
                              EXPECT_EQ(update.entry_off, 2000u);
                              EXPECT_EQ(v, 222u);
                            }
                            ++seen;
                          });
  EXPECT_EQ(seen, 2);
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() {
    ClusterConfig config;
    config.num_nodes = 2;
    config.workers_per_node = 1;
    config.region_bytes = 32 << 20;
    cluster_ = std::make_unique<Cluster>(config);
    TableSpec spec;
    spec.value_size = 8;
    spec.main_buckets = 1 << 8;
    spec.capacity = 1 << 12;
    spec.partition = [](uint64_t key) { return static_cast<int>(key % 2); };
    table_ = cluster_->AddTable(spec);
    cluster_->Start();
  }
  ~ClusterTest() override { cluster_->Stop(); }

  std::unique_ptr<Cluster> cluster_;
  int table_;
};

TEST_F(ClusterTest, RemoteInsertShipsToHost) {
  const uint64_t value = 77;
  ASSERT_TRUE(cluster_->RemoteInsert(0, table_, 3, &value));  // key 3 -> node 1
  uint64_t out = 0;
  EXPECT_TRUE(cluster_->hash_table(1, table_)->Get(3, &out));
  EXPECT_EQ(out, 77u);
  // Duplicate is rejected by the host.
  EXPECT_FALSE(cluster_->RemoteInsert(0, table_, 3, &value));
}

TEST_F(ClusterTest, RemoteRemoveShipsToHost) {
  const uint64_t value = 5;
  ASSERT_TRUE(cluster_->RemoteInsert(0, table_, 1, &value));
  ASSERT_TRUE(cluster_->RemoteRemove(0, table_, 1));
  uint64_t out;
  EXPECT_FALSE(cluster_->hash_table(1, table_)->Get(1, &out));
  EXPECT_FALSE(cluster_->RemoteRemove(0, table_, 1));
}

TEST_F(ClusterTest, UserRpcHandlerRuns) {
  cluster_->RegisterRpcHandler(
      Cluster::kUserRpcBase + 1, [](const rdma::Message& msg) {
        std::vector<uint8_t> reply = msg.payload;
        for (uint8_t& b : reply) {
          b += 1;
        }
        return reply;
      });
  std::vector<uint8_t> reply;
  ASSERT_EQ(cluster_->Rpc(0, 1, Cluster::kUserRpcBase + 1, {1, 2, 3}, &reply),
            rdma::OpStatus::kOk);
  EXPECT_EQ(reply, (std::vector<uint8_t>{2, 3, 4}));
}

TEST_F(ClusterTest, CrashStopsServiceReviveRestores) {
  cluster_->Crash(1);
  const uint64_t value = 9;
  EXPECT_FALSE(cluster_->RemoteInsert(0, table_, 3, &value));
  cluster_->Revive(1);
  EXPECT_TRUE(cluster_->RemoteInsert(0, table_, 3, &value));
}

TEST_F(ClusterTest, WorkerOutcomesMatchRegistryDeltas) {
  for (uint64_t k = 0; k < 4; ++k) {
    const uint64_t zero = 0;
    ASSERT_TRUE(cluster_->hash_table(cluster_->PartitionOf(table_, k), table_)
                    ->Insert(k, &zero));
  }
  Worker worker(cluster_.get(), 0, 0);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  uint64_t commits = 0;
  uint64_t user_aborts = 0;
  constexpr int kTxns = 40;
  for (int i = 0; i < kTxns; ++i) {
    // Keys alternate local/remote; every third body gives up.
    const uint64_t key = static_cast<uint64_t>(i) % 4;
    Transaction txn(&worker);
    txn.AddWrite(table_, key);
    const TxnStatus status = txn.Run([&](Transaction& t) {
      uint64_t v = 0;
      if (!t.Read(table_, key, &v)) {
        return false;
      }
      ++v;
      return i % 3 != 0 && t.Write(table_, key, &v);
    });
    commits += status == TxnStatus::kCommitted ? 1 : 0;
    user_aborts += status == TxnStatus::kUserAbort ? 1 : 0;
  }
  const stat::Snapshot delta =
      stat::Registry::Global().TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(commits + user_aborts, uint64_t{kTxns});
  EXPECT_EQ(delta.Counter("txn.commit"), commits);
  EXPECT_EQ(delta.Counter("txn.user_abort"), user_aborts);
}

// A local record write-locked by another holder aborts every HTM attempt
// (kCodeLocked). Each lock abort extends the budget of 16 by one attempt,
// up to 16 more, so exactly 32 lock aborts precede the fallback, which
// waits out the holder (released here once txn.fallback ticks).
TEST_F(ClusterTest, LockedLocalRecordCostsFixedLockAbortsBeforeFallback) {
  const uint64_t key = 0;  // partition 0: local to the worker
  const uint64_t zero = 0;
  store::ClusterHashTable* host = cluster_->hash_table(0, table_);
  ASSERT_TRUE(host->Insert(key, &zero));
  uint64_t* state = host->StatePtr(host->FindEntry(key));
  htm::StrongStore(state, MakeWriteLocked(1));

  stat::Registry& reg = stat::Registry::Global();
  const stat::Snapshot before = reg.TakeSnapshot();
  std::atomic<bool> done{false};
  std::thread holder([&] {
    while (!done.load() &&
           reg.TakeSnapshot().DeltaSince(before).Counter("txn.fallback") == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    htm::StrongStore(state, kStateInit);
  });
  Worker worker(cluster_.get(), 0, 0);
  Transaction txn(&worker);
  txn.AddWrite(table_, key);
  const TxnStatus status = txn.Run([&](Transaction& t) {
    uint64_t v = 0;
    if (!t.Read(table_, key, &v)) {
      return false;
    }
    ++v;
    return t.Write(table_, key, &v);
  });
  done.store(true);
  holder.join();

  const stat::Snapshot delta = reg.TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(status, TxnStatus::kCommitted);
  EXPECT_EQ(delta.Counter("txn.lock_abort"), 32u);
  EXPECT_EQ(delta.Counter("txn.fallback"), 1u);
  uint64_t out = 0;
  ASSERT_TRUE(host->Get(key, &out));
  EXPECT_EQ(out, 1u);
}

TEST_F(ClusterTest, TxnIdsAreUniquePerNode) {
  const uint64_t a = cluster_->NextTxnId(0, 0);
  const uint64_t b = cluster_->NextTxnId(0, 0);
  const uint64_t c = cluster_->NextTxnId(1, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a >> 48, 0u);
  EXPECT_EQ(c >> 48, 1u);
}

TEST_F(ClusterTest, PartitionRouting) {
  EXPECT_EQ(cluster_->PartitionOf(table_, 4), 0);
  EXPECT_EQ(cluster_->PartitionOf(table_, 5), 1);
  EXPECT_EQ(cluster_->cache(0, 0), nullptr);  // no cache for self
  EXPECT_NE(cluster_->cache(0, 1), nullptr);
}


TEST_F(ClusterTest, RemoteOrderedGetAndScan) {
  // A second, ordered table hosted per node; remote access goes over
  // SEND/RECV verbs to the host's server thread (sections 3, 6.5).
  cluster_->Stop();
  ClusterConfig config;
  config.num_nodes = 2;
  config.workers_per_node = 1;
  config.region_bytes = 32 << 20;
  cluster_ = std::make_unique<Cluster>(config);
  TableSpec hash_spec;
  hash_spec.value_size = 8;
  hash_spec.partition = [](uint64_t key) { return static_cast<int>(key % 2); };
  table_ = cluster_->AddTable(hash_spec);
  TableSpec ordered_spec;
  ordered_spec.ordered = true;
  ordered_spec.value_size = 16;
  ordered_spec.partition = [](uint64_t) { return 1; };  // hosted on node 1
  const int tree = cluster_->AddTable(ordered_spec);
  cluster_->Start();
  uint8_t row[16];
  for (uint64_t k = 10; k <= 100; k += 10) {
    std::memset(row, static_cast<int>(k), sizeof(row));
    ASSERT_TRUE(cluster_->ordered_table(1, tree)->Insert(k, row));
  }

  uint8_t out[16] = {0};
  ASSERT_TRUE(cluster_->RemoteOrderedGet(0, 1, tree, 40, out));
  EXPECT_EQ(out[0], 40);
  EXPECT_FALSE(cluster_->RemoteOrderedGet(0, 1, tree, 41, out));

  std::vector<Cluster::OrderedScanRow> rows;
  ASSERT_TRUE(cluster_->RemoteOrderedScan(0, 1, tree, 25, 75, 100, &rows));
  ASSERT_EQ(rows.size(), 5u);  // 30, 40, 50, 60, 70
  EXPECT_EQ(rows.front().key, 30u);
  EXPECT_EQ(rows.back().key, 70u);
  EXPECT_EQ(rows[1].value[0], 40);

  // Limit caps the result.
  ASSERT_TRUE(cluster_->RemoteOrderedScan(0, 1, tree, 0, 1000, 3, &rows));
  EXPECT_EQ(rows.size(), 3u);

  // Node failure surfaces as false.
  cluster_->Crash(1);
  EXPECT_FALSE(cluster_->RemoteOrderedGet(0, 1, tree, 40, out));
  EXPECT_FALSE(cluster_->RemoteOrderedScan(0, 1, tree, 0, 100, 10, &rows));
  cluster_->Revive(1);
  EXPECT_TRUE(cluster_->RemoteOrderedGet(0, 1, tree, 40, out));
}

TEST_F(ClusterTest, RemoteOrderedScanIsConsistentUnderWriters) {
  // The scan handler runs in one HTM transaction, so a scanned window is
  // a consistent snapshot even while a local writer mutates it.
  cluster_->Stop();
  ClusterConfig config;
  config.num_nodes = 2;
  config.workers_per_node = 1;
  config.region_bytes = 32 << 20;
  cluster_ = std::make_unique<Cluster>(config);
  TableSpec hash_spec;
  hash_spec.value_size = 8;
  hash_spec.partition = [](uint64_t key) { return static_cast<int>(key % 2); };
  table_ = cluster_->AddTable(hash_spec);
  TableSpec ordered_spec;
  ordered_spec.ordered = true;
  ordered_spec.value_size = 8;
  ordered_spec.partition = [](uint64_t) { return 1; };
  const int tree = cluster_->AddTable(ordered_spec);
  cluster_->Start();
  // Pairs (2k, 2k+1) always hold equal values.
  for (uint64_t k = 0; k < 50; ++k) {
    const uint64_t v = 0;
    ASSERT_TRUE(cluster_->ordered_table(1, tree)->Insert(2 * k, &v));
    ASSERT_TRUE(cluster_->ordered_table(1, tree)->Insert(2 * k + 1, &v));
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread writer([&] {
    htm::HtmThread htm;
    Xoshiro256 rng(3);
    uint64_t version = 1;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t k = rng.NextBounded(50);
      const uint64_t v = version++;
      while (htm.Transact([&] {
               cluster_->ordered_table(1, tree)->Put(2 * k, &v);
               cluster_->ordered_table(1, tree)->Put(2 * k + 1, &v);
             }) != htm::kCommitted) {
      }
    }
  });
  std::vector<Cluster::OrderedScanRow> rows;
  for (int i = 0; i < 200; ++i) {
    const uint64_t k = static_cast<uint64_t>(i) % 50;
    ASSERT_TRUE(
        cluster_->RemoteOrderedScan(0, 1, tree, 2 * k, 2 * k + 1, 10, &rows));
    ASSERT_EQ(rows.size(), 2u);
    uint64_t a, b;
    std::memcpy(&a, rows[0].value.data(), 8);
    std::memcpy(&b, rows[1].value.data(), 8);
    if (a != b) {
      torn.store(true);
      break;
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_FALSE(torn.load());
}
}  // namespace
}  // namespace txn
}  // namespace drtm
