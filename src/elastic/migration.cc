#include "src/elastic/migration.h"

#include <algorithm>
#include <cstring>

#include "src/common/clock.h"
#include "src/rdma/phase_scatter.h"
#include "src/stat/metrics.h"
#include "src/store/kv_layout.h"
#include "src/txn/lock_state.h"

namespace drtm {
namespace elastic {

namespace {
// A migration-side ship rides the chaos-injected RPC path, so transient
// drops are expected; the budget covers even aggressive drop rates.
constexpr int kShipAttempts = 256;
constexpr uint64_t kShipBackoffNs = 50'000;
// Lease-revocation polling granularity.
constexpr uint64_t kRevokePollNs = 100'000;
}  // namespace

MigrationEngine::MigrationEngine(txn::Cluster* cluster, RoutingTable* routing)
    : cluster_(cluster), routing_(routing) {
  stat::Registry& reg = stat::Registry::Global();
  ids_.copied = reg.CounterId("elastic.migration.copied");
  ids_.caught_up = reg.CounterId("elastic.migration.caught_up");
  ids_.dual_writes = reg.CounterId("elastic.migration.dual_writes");
  ids_.runs = reg.CounterId("elastic.migration.runs");
  ids_.inflight_bytes = reg.GaugeId("elastic.migration.inflight_bytes");
}

bool MigrationEngine::AllowAcquire(int table, uint64_t key) {
  // Only the plan's buckets ever carry the frozen bit, so the routing
  // word answers for membership too.
  return table != plan_.table || !routing_->Frozen(key);
}

void MigrationEngine::OnCommittedWrite(int node, int table, uint64_t key,
                                       uint32_t version, const void* value,
                                       uint32_t len) {
  (void)len;
  if (!dual_write_.load(std::memory_order_acquire)) {
    return;
  }
  if (node != plan_.source || !InPlan(table, key)) {
    return;
  }
  // Synchronous dual-ship from the committing thread. A chaos-dropped
  // ship is not retried here — the catch-up pass repairs it from the
  // source's version history.
  cluster_->ShipUpsert(plan_.source, plan_.dest, table, key, version, value);
  stat::Registry::Global().Add(ids_.dual_writes);
}

void MigrationEngine::OnStructuralOp(int node, int table, uint64_t key,
                                     bool inserted, const void* value,
                                     uint32_t len) {
  (void)len;
  if (!dual_write_.load(std::memory_order_acquire)) {
    return;
  }
  if (node != plan_.source || !InPlan(table, key)) {
    return;
  }
  // Source server thread shipping to the destination's server thread:
  // safe from deadlock because migration ships in one direction only.
  if (inserted) {
    cluster_->ShipUpsert(plan_.source, plan_.dest, table, key, /*version=*/1,
                         value);
  } else {
    cluster_->ShipErase(plan_.source, plan_.dest, table, key);
  }
  stat::Registry::Global().Add(ids_.dual_writes);
}

bool MigrationEngine::RetryShipUpsert(uint64_t key, uint32_t version,
                                      const void* value) {
  for (int i = 0; i < kShipAttempts; ++i) {
    if (cluster_->ShipUpsert(plan_.source, plan_.dest, plan_.table, key,
                             version, value)) {
      return true;
    }
    SpinFor(kShipBackoffNs);
  }
  return false;
}

bool MigrationEngine::RetryShipErase(int target_node, uint64_t key) {
  for (int i = 0; i < kShipAttempts; ++i) {
    if (cluster_->ShipErase(plan_.source, target_node, plan_.table, key)) {
      return true;
    }
    SpinFor(kShipBackoffNs);
  }
  return false;
}

bool MigrationEngine::CopyPass(bool catch_up, MigrationReport* report) {
  stat::Registry& reg = stat::Registry::Global();
  store::ClusterHashTable* src_table =
      cluster_->hash_table(plan_.source, plan_.table);
  const store::Geometry& geo = src_table->geometry();

  std::vector<std::pair<uint64_t, uint64_t>> targets;  // (key, entry_off)
  src_table->ForEachEntry([&](uint64_t key, uint64_t entry_off) {
    if (bucket_set_.count(routing_->BucketOf(key)) != 0) {
      targets.emplace_back(key, entry_off);
    }
    return true;
  });
  if (catch_up) {
    live_keys_.clear();
  }

  const size_t window = rdma::PhaseScatter::kMaxOutstanding;
  std::vector<uint8_t> bufs(window * geo.entry_size);
  for (size_t base = 0; base < targets.size(); base += window) {
    const size_t n = std::min(window, targets.size() - base);
    std::vector<bool> read_ok(n, true);
    if (!catch_up) {
      // Copy pass under traffic: one doorbell batch of whole-entry READs
      // from the source, the same one-sided path a remote reader uses.
      // Each READ's wr_id is its index in the batch.
      rdma::PhaseScatter scatter(cluster_->fabric());
      for (size_t i = 0; i < n; ++i) {
        scatter.PostRead(plan_.source, i, targets[base + i].second,
                         &bufs[i * geo.entry_size], geo.entry_size);
      }
      std::vector<rdma::Completion> comps;
      scatter.Gather(&comps);
      for (const rdma::Completion& comp : comps) {
        // A lost READ is repaired by catch-up.
        read_ok[comp.wr_id] = comp.status == rdma::OpStatus::kOk;
      }
    } else {
      // Catch-up runs frozen and drained; the host-side pointers are the
      // simulation's stand-in for reads that can no longer race writers.
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(&bufs[i * geo.entry_size],
                    src_table->EntryPtr(targets[base + i].second),
                    geo.entry_size);
      }
    }

    for (size_t i = 0; i < n; ++i) {
      if (!read_ok[i]) {
        continue;
      }
      const uint64_t key = targets[base + i].first;
      const uint8_t* buf = &bufs[i * geo.entry_size];
      store::EntryHeader header;
      std::memcpy(&header, buf, sizeof(header));
      if (header.key != key) {
        continue;  // entry recycled under the enumeration
      }
      if (txn::IsWriteLocked(header.state)) {
        continue;  // mid-commit; the catch-up pass ships the final value
      }
      if (catch_up) {
        live_keys_.insert(key);
        auto it = copied_versions_.find(key);
        if (it != copied_versions_.end()) {
          if (it->second == header.version) {
            continue;  // already at the shipped version
          }
          if (it->second > header.version) {
            // Version regressed: the key was deleted and re-inserted on
            // the source. Clear the destination copy so max-version-wins
            // does not reject the younger lineage.
            if (!RetryShipErase(plan_.dest, key)) {
              return false;
            }
          }
        }
      }
      if (!RetryShipUpsert(key, header.version, buf + store::kEntryValueOffset)) {
        return false;
      }
      copied_versions_[key] = header.version;
      report->shipped_bytes += geo.value_size;
      reg.GaugeAdd(ids_.inflight_bytes, geo.value_size);
      if (catch_up) {
        ++report->caught_up;
        reg.Add(ids_.caught_up);
      } else {
        ++report->copied;
        reg.Add(ids_.copied);
      }
    }
  }

  if (catch_up) {
    // Reconcile the destination against the source live set: a stray can
    // only be a copy whose source key has since been deleted (the erase
    // dual-ship may have been chaos-dropped).
    store::ClusterHashTable* dst_table =
        cluster_->hash_table(plan_.dest, plan_.table);
    std::vector<uint64_t> strays;
    dst_table->ForEachEntry([&](uint64_t key, uint64_t entry_off) {
      (void)entry_off;
      if (bucket_set_.count(routing_->BucketOf(key)) != 0 &&
          live_keys_.count(key) == 0) {
        strays.push_back(key);
      }
      return true;
    });
    for (uint64_t key : strays) {
      if (!RetryShipErase(plan_.dest, key)) {
        return false;
      }
      ++report->reconciled;
    }
  }
  return true;
}

MigrationReport MigrationEngine::Migrate(
    const MigrationPlan& plan, const std::function<void()>& mid_oracle) {
  stat::Registry& reg = stat::Registry::Global();
  MigrationReport report;
  const uint64_t t0 = MonotonicMicros();
  if (plan.source == plan.dest || plan.buckets.empty() ||
      cluster_->table(plan.table).ordered) {
    return report;
  }
  plan_ = plan;
  bucket_set_.clear();
  bucket_set_.insert(plan.buckets.begin(), plan.buckets.end());
  copied_versions_.clear();
  live_keys_.clear();
  reg.Add(ids_.runs);

  // 1. Install: dual-write on, then drain so every in-flight attempt
  //    that sampled a null hook pointer has finished.
  dual_write_.store(true, std::memory_order_release);
  cluster_->SetElasticHooks(this);
  cluster_->DrainTxnWindows();

  // 2. Copy pass under traffic.
  bool ok = CopyPass(/*catch_up=*/false, &report);

  // 3. Freeze the plan buckets and drain: after this no writer holds or
  //    can take a lock/lease on a plan key.
  for (uint32_t b : plan.buckets) {
    routing_->Freeze(b);
  }
  cluster_->DrainTxnWindows();
  const uint64_t freeze_time = cluster_->synctime().ReadStrong(plan.source);

  // 4. Lease revocation: wait out every lease granted before the freeze,
  //    as judged by every machine's clock (hence the 2 DELTA slack).
  const txn::ClusterConfig& cfg = cluster_->config();
  const uint64_t revoked_at =
      freeze_time + std::max(cfg.lease_rw_us, cfg.lease_ro_us) +
      2 * cfg.delta_us;
  while (cluster_->synctime().ReadStrong(plan.source) <= revoked_at) {
    SpinFor(kRevokePollNs);
  }

  // 5. Catch-up on the now-quiescent source; reconcile the destination.
  ok = ok && CopyPass(/*catch_up=*/true, &report);

  // 6. Mid-migration oracle: both copies reconciled, nothing in flight.
  if (ok && mid_oracle) {
    mid_oracle();
  }

  // 7. Switch: flip ownership, stamp the epoch.
  if (ok) {
    for (uint32_t b : plan.buckets) {
      routing_->SetOwner(b, plan.dest);
    }
    routing_->BumpEpoch();

    // 8. Drop stale location-cache hints for the moved keys' source-side
    //    header buckets on every other node.
    std::unordered_set<uint64_t> offs;
    const store::Geometry& geo =
        cluster_->hash_table(plan.source, plan.table)->geometry();
    for (const auto& [key, version] : copied_versions_) {
      (void)version;
      offs.insert(geo.MainBucketOffset(key));
    }
    for (uint64_t key : live_keys_) {
      offs.insert(geo.MainBucketOffset(key));
    }
    report.cache_inval_acks = cluster_->BroadcastCacheInvalidate(
        plan.dest, plan.source,
        std::vector<uint64_t>(offs.begin(), offs.end()));

    // 9. Erase the source copies while still frozen (gate-free RPC); a
    //    reader routed by a stale hint now misses and refetches.
    for (uint64_t key : live_keys_) {
      if (!RetryShipErase(plan.source, key)) {
        ok = false;
        break;
      }
      ++report.erased;
    }
  }

  // 10. Unfreeze, uninstall, drain the stragglers.
  for (uint32_t b : plan.buckets) {
    routing_->Unfreeze(b);
  }
  dual_write_.store(false, std::memory_order_release);
  cluster_->SetElasticHooks(nullptr);
  cluster_->DrainTxnWindows();

  reg.GaugeSet(ids_.inflight_bytes, 0);
  report.moved_keys = live_keys_.size();
  report.duration_us = MonotonicMicros() - t0;
  report.ok = ok;
  return report;
}

}  // namespace elastic
}  // namespace drtm
