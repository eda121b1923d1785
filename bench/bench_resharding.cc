// Re-sharding benchmark (elastic tier). Not a paper figure — this drives
// the src/elastic subsystem the way an operator would: a transfer-ledger
// workload runs continuously through a steady, a migrate and a post
// phase while ~10% of the routing buckets migrate from node 0 to node 1.
//
// Pass criteria:
//   - migration completes, mid-migration copy oracle + post-run
//     conservation + commit-ledger invariants all green
//   - committed-txn p99 during migration < DRTM_RESHARD_P99_MULT (default
//     3x, overridable for slow CI hosts) of steady-state p99
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/chaos/invariants.h"
#include "src/common/clock.h"
#include "src/elastic/migration.h"
#include "src/elastic/routing.h"
#include "src/txn/cluster.h"
#include "src/txn/transaction.h"

namespace {

using namespace drtm;

constexpr uint64_t kKeys = 4096;
constexpr int64_t kInitialBalance = 1000;
constexpr uint32_t kRoutingBuckets = 256;

double EnvDouble(const char* name, double dflt) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::strtod(env, nullptr) : dflt;
}

double Percentile(std::vector<uint64_t>* ns, double p) {
  if (ns->empty()) {
    return 0.0;
  }
  std::sort(ns->begin(), ns->end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(ns->size() - 1));
  return static_cast<double>((*ns)[idx]) / 1000.0;  // us
}

enum Phase : int { kSteady = 0, kMigrate = 1, kPost = 2, kDone = 3 };

struct PhaseLats {
  std::vector<uint64_t> ns[3];
};

}  // namespace

int main() {
  const bool quick = benchutil::Quick();
  // Floor at 300ms: the p99-during-migration gate needs a steady-state
  // sample large enough that its tail is real, whatever DRTM_BENCH_MS says.
  const uint64_t phase_ms =
      std::max<uint64_t>(300, benchutil::DurationMs(quick ? 400 : 1500));
  benchutil::Header("Re-sharding", "live migration");
  benchutil::PaperNote(
      "beyond the paper: DrTM pins a key to its home node for life; the "
      "elastic tier moves 10% of the buckets under traffic instead");

  const stat::Snapshot window = benchutil::BeginReportWindow();
  stat::BenchReport report;
  report.bench = "resharding";
  report.title = "bucket migration under traffic";
  report.AddConfig("keys", std::to_string(kKeys));
  report.AddConfig("routing_buckets", std::to_string(kRoutingBuckets));
  report.AddConfig("phase_ms", std::to_string(phase_ms));
  report.AddConfig("quick", quick ? "1" : "0");

  elastic::RoutingTable routing(kRoutingBuckets, 2);
  txn::ClusterConfig config;
  config.num_nodes = 2;
  config.workers_per_node = 2;
  config.region_bytes = 64 << 20;
  txn::Cluster cluster(config);
  txn::TableSpec spec;
  spec.value_size = 8;
  spec.main_buckets = 1 << 11;
  spec.capacity = 1 << 14;
  spec.partition = routing.PartitionFn();
  const int table = cluster.AddTable(spec);
  cluster.Start();
  for (uint64_t k = 0; k < kKeys; ++k) {
    const uint64_t balance = kInitialBalance;
    if (!cluster.hash_table(cluster.PartitionOf(table, k), table)
             ->Insert(k, &balance)) {
      std::fprintf(stderr, "load failed at key %llu\n",
                   static_cast<unsigned long long>(k));
      return 1;
    }
  }

  // ---- Transfer traffic across steady / migrate / post ----
  std::atomic<int> phase{kSteady};
  std::atomic<uint64_t> committed{0};
  // Commit-intent ledger: per-key signed delta, applied only after a
  // transfer returns kCommitted. Deltas commute, so the final expected
  // balance is exact regardless of interleaving.
  std::vector<std::atomic<int64_t>> ledger(kKeys);
  for (auto& d : ledger) {
    d.store(0, std::memory_order_relaxed);
  }

  constexpr int kTrafficThreads = 4;
  std::vector<PhaseLats> lats(kTrafficThreads);
  std::vector<std::thread> traffic;
  for (int t = 0; t < kTrafficThreads; ++t) {
    traffic.emplace_back([&, t] {
      txn::Worker worker(&cluster, t % 2, t / 2);
      uint64_t x = 0x9e3779b9u * (t + 1);
      while (true) {
        const int now = phase.load(std::memory_order_acquire);
        if (now == kDone) {
          break;
        }
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t from = (x >> 17) % kKeys;
        const uint64_t to = (x >> 41) % kKeys;
        if (from == to) {
          continue;
        }
        const int64_t amount = static_cast<int64_t>(1 + (x & 7));
        const uint64_t begin = MonotonicNanos();
        txn::Transaction txn(&worker);
        txn.AddWrite(table, from);
        txn.AddWrite(table, to);
        bool moved = false;
        const txn::TxnStatus status = txn.Run([&](txn::Transaction& t2) {
          uint64_t a = 0;
          uint64_t b = 0;
          if (!t2.Read(table, from, &a) || !t2.Read(table, to, &b)) {
            return false;
          }
          if (a < static_cast<uint64_t>(amount)) {
            moved = false;
            return true;
          }
          a -= static_cast<uint64_t>(amount);
          b += static_cast<uint64_t>(amount);
          moved = t2.Write(table, from, &a) && t2.Write(table, to, &b);
          return moved;
        });
        if (status == txn::TxnStatus::kCommitted) {
          lats[t].ns[now].push_back(MonotonicNanos() - begin);
          committed.fetch_add(1, std::memory_order_relaxed);
          if (moved) {
            ledger[from].fetch_sub(amount, std::memory_order_relaxed);
            ledger[to].fetch_add(amount, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  auto sleep_ms = [](uint64_t ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  const uint64_t steady_begin = MonotonicNanos();
  sleep_ms(phase_ms);

  // Migrate ~10% of the routing buckets currently homed on node 0.
  std::vector<uint32_t> owned = routing.BucketsOwnedBy(0);
  const size_t slice = std::max<size_t>(1, kRoutingBuckets / 10);
  elastic::MigrationPlan plan;
  plan.table = table;
  plan.source = 0;
  plan.dest = 1;
  plan.buckets.assign(owned.begin(),
                      owned.begin() +
                          std::min(slice, owned.size()));

  chaos::InvariantChecker checker;
  elastic::MigrationEngine engine(&cluster, &routing);
  phase.store(kMigrate, std::memory_order_release);
  const uint64_t migrate_begin = MonotonicNanos();
  const elastic::MigrationReport mig = engine.Migrate(plan, [&] {
    // Quiescent copy point: plan keys must hold identical bytes on both
    // sides; compare the sums (any single mismatch skews them).
    int64_t src_sum = 0;
    int64_t dst_sum = 0;
    for (uint64_t k = 0; k < kKeys; ++k) {
      if (routing.OwnerOf(k) != plan.source ||
          !routing.Frozen(k)) {
        continue;
      }
      uint64_t sv = 0;
      uint64_t dv = 0;
      if (cluster.hash_table(plan.source, table)->Get(k, &sv)) {
        src_sum += static_cast<int64_t>(sv);
      }
      if (cluster.hash_table(plan.dest, table)->Get(k, &dv)) {
        dst_sum += static_cast<int64_t>(dv);
      }
    }
    checker.CheckConservation("mid-migration src/dst copy bytes", src_sum,
                              dst_sum);
  });
  const uint64_t migrate_ns = MonotonicNanos() - migrate_begin;
  // Keep the migrate phase at least as long as steady so the p99 compare
  // has a comparable sample count.
  if (migrate_ns < phase_ms * 1'000'000) {
    sleep_ms(phase_ms - migrate_ns / 1'000'000);
  }

  phase.store(kPost, std::memory_order_release);
  sleep_ms(phase_ms);
  phase.store(kDone, std::memory_order_release);
  const uint64_t run_ns = MonotonicNanos() - steady_begin;
  for (std::thread& t : traffic) {
    t.join();
  }

  // ---- Quiescent invariants: conservation + commit ledger ----
  int64_t total = 0;
  std::vector<std::pair<uint64_t, int64_t>> expected;
  expected.reserve(kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t v = 0;
    if (cluster.hash_table(cluster.PartitionOf(table, k), table)
            ->Get(k, &v)) {
      total += static_cast<int64_t>(v);
    }
    expected.emplace_back(
        k, kInitialBalance + ledger[k].load(std::memory_order_relaxed));
  }
  checker.CheckConservation("post-migration total balance",
                            kKeys * kInitialBalance, total);
  checker.CheckCommitLedger(&cluster, table, expected);

  std::vector<uint64_t> merged[3];
  for (const PhaseLats& pl : lats) {
    for (int p = 0; p < 3; ++p) {
      merged[p].insert(merged[p].end(), pl.ns[p].begin(), pl.ns[p].end());
    }
  }
  const double p99_steady = Percentile(&merged[kSteady], 0.99);
  const double p99_migrate = Percentile(&merged[kMigrate], 0.99);
  const double p99_post = Percentile(&merged[kPost], 0.99);
  const double p99_mult = EnvDouble("DRTM_RESHARD_P99_MULT", 3.0);
  const double tps =
      static_cast<double>(committed.load()) / (run_ns / 1e9);

  std::printf("%-10s %10s %12s %12s\n", "phase", "commits", "p50_us",
              "p99_us");
  const char* names[3] = {"steady", "migrate", "post"};
  stat::BenchReport::Series& phases = report.AddSeries("phases");
  for (int p = 0; p < 3; ++p) {
    const double p50 = Percentile(&merged[p], 0.50);
    const double p99 = Percentile(&merged[p], 0.99);
    std::printf("%-10s %10zu %12.1f %12.1f\n", names[p], merged[p].size(),
                p50, p99);
    benchutil::AddPoint(&phases, {{"phase", names[p]}},
                        {{"commits", static_cast<double>(merged[p].size())},
                         {"p50_us", p50},
                         {"p99_us", p99}});
  }
  std::printf(
      "migrated %llu keys (%zu/%u buckets) in %.1f ms; shipped %llu bytes, "
      "%llu dual-writes caught up %llu, %llu cache-inval acks\n",
      static_cast<unsigned long long>(mig.moved_keys), plan.buckets.size(),
      kRoutingBuckets, migrate_ns / 1e6,
      static_cast<unsigned long long>(mig.shipped_bytes),
      static_cast<unsigned long long>(mig.copied),
      static_cast<unsigned long long>(mig.caught_up),
      static_cast<unsigned long long>(mig.cache_inval_acks));
  std::printf("overall %.0f committed tps; invariant checks: %d, "
              "violations: %zu\n",
              tps, checker.report().checks,
              checker.report().violations.size());

  bool ok = mig.ok && checker.report().ok();
  if (!checker.report().ok()) {
    std::printf("%s", checker.report().ToString().c_str());
  }
  if (p99_steady > 0 && p99_migrate > p99_steady * p99_mult) {
    std::printf("FAIL: p99 during migration %.1f us > %.1fx steady %.1f "
                "us\n",
                p99_migrate, p99_mult, p99_steady);
    ok = false;
  }

  stat::BenchReport::Series& mig_series = report.AddSeries("migration");
  benchutil::AddPoint(
      &mig_series, {{"slice", "10pct"}},
      {{"moved_keys", static_cast<double>(mig.moved_keys)},
       {"shipped_bytes", static_cast<double>(mig.shipped_bytes)},
       {"duration_ms", migrate_ns / 1e6},
       {"p99_steady_us", p99_steady},
       {"p99_migrate_us", p99_migrate},
       {"p99_post_us", p99_post},
       {"commit_tps", tps},
       {"invariant_violations",
        static_cast<double>(checker.report().violations.size())}});
  report.AddConfig("result", ok ? "pass" : "fail");
  benchutil::FinishReport(&report, window);

  cluster.Stop();
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
