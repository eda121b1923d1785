// The DrTM cluster: simulated machines, their memory stores, synchronized
// time, NVRAM logs, location caches, and per-node server threads (which
// play the role of the paper's SEND/RECV service for shipped INSERT /
// DELETE, ordered-store access and transaction shipping, section 6.5).
#ifndef SRC_TXN_CLUSTER_H_
#define SRC_TXN_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/htm/htm.h"
#include "src/rdma/fabric.h"
#include "src/store/bplus_tree.h"
#include "src/store/cluster_hash.h"
#include "src/store/location_cache.h"
#include "src/txn/nvram_log.h"
#include "src/txn/sync_time.h"

namespace drtm {
namespace txn {

struct ClusterConfig {
  int num_nodes = 2;
  int workers_per_node = 2;
  size_t region_bytes = size_t{256} << 20;
  rdma::LatencyModel latency = rdma::LatencyModel::Zero();
  rdma::AtomicLevel atomic_level = rdma::AtomicLevel::kHca;
  htm::Config htm;

  // Lease machinery (paper defaults are 400 us / 1 ms / small DELTA; the
  // simulation oversubscribes cores, so defaults here are scaled up —
  // relative behaviour is what matters).
  // DELTA must absorb both PTP skew and softtime staleness (one update
  // interval), so keep delta_us >= softtime_interval_us.
  uint64_t lease_rw_us = 4000;
  uint64_t lease_ro_us = 10000;
  uint64_t delta_us = 300;
  uint64_t softtime_interval_us = 200;

  // Contention management: HTM retries before the fallback handler.
  // Lock-observed aborts extend it and a capacity abort caps it
  // (Transaction::RunAttempts); 0 sends every transaction straight to
  // the fallback.
  int htm_retry_limit = 16;
  // Auto-chopping planner (paper section 3 / ROADMAP "transaction
  // chopping"): workloads route capacity-bound transactions through
  // txn::ChopPlanner, which splits a declared footprint that exceeds the
  // HTM write-line budget into a chain of chopped pieces (locks ahead of
  // the first piece, write-back in the last). false forces every planned
  // transaction to run monolithically — the pre-chopping behaviour.
  bool enable_chop_planner = true;

  bool logging = false;
  size_t log_segment_bytes = size_t{8} << 20;
  // Group-commit durability pipeline (ISSUE 9 / ROADMAP item 3). Off,
  // every log record seals + flushes its own epoch and the commit path
  // waits out the flush — the synchronous per-record baseline. On,
  // records batch into per-worker epochs sealed at the byte/time
  // thresholds below (or at externalization barriers), flushed
  // asynchronously; transactions still commit at XEND but are durably
  // acknowledged only at their epoch's flush (Worker::WaitDurable /
  // NvramLog::DurableUpTo).
  bool group_commit = false;
  size_t durability_epoch_bytes = size_t{64} << 10;
  uint64_t durability_epoch_us = 200;
  size_t location_cache_bytes = size_t{16} << 20;
  // When false, remote reads take exclusive locks instead of leases
  // (the paper's "w/o read lease" ablation, Fig. 17).
  bool enable_read_lease = true;
  // Fig. 11 ablation. DrTM's default (c) reuses the Start-phase softtime
  // for all local lock/lease checks and only reads softtime
  // transactionally at lease confirmation. Strategy (b) reads it
  // transactionally in every local operation, widening the conflict
  // window with the timer thread.
  bool softtime_read_every_local_op = false;
};

struct TableSpec {
  uint32_t value_size = 8;
  bool ordered = false;
  // Unordered (hash) sizing, per node:
  uint64_t main_buckets = 1 << 12;
  uint64_t indirect_buckets = 1 << 10;
  uint64_t capacity = 1 << 15;
  // Ordered (B+ tree) sizing, per node:
  uint32_t max_nodes = 1 << 15;
  // Key -> owning node.
  std::function<int(uint64_t)> partition;
};

// One structural operation on one node's local store: what a
// transaction's Insert/Remove/Ordered* builds (the 2PL fallback buffers it
// until its serialization point) and what the server thread decodes from
// a shipped INSERT/DELETE or migration upsert/erase.
// Cluster::ApplyStoreOp is the one place any of them is applied.
struct StoreOp {
  enum Kind : uint8_t {
    kHashInsert,
    kHashRemove,
    kOrderedInsert,
    kOrderedPut,
    kOrderedRemove,
    // Migration-side install-or-overwrite at `version` (max-version-wins)
    // and erase: hash tables only, gate-free, never reported to the
    // elastic hooks (they carry the migration itself).
    kUpsert,
    kErase,
  };
  Kind kind = kHashInsert;
  int table = 0;
  uint64_t key = 0;
  uint32_t version = 0;        // kUpsert only
  std::vector<uint8_t> value;  // the table's value_size bytes, or empty
};

class Cluster {
 public:
  // Built-in RPC kinds; user handlers start at kUserRpcBase.
  static constexpr uint32_t kRpcKvInsert = 1;
  static constexpr uint32_t kRpcKvRemove = 2;
  static constexpr uint32_t kRpcOrderedGet = 3;
  static constexpr uint32_t kRpcOrderedScan = 4;
  // Elastic-tier kinds: migration-side installs/erases (gate-free — they
  // carry the migration itself) and location-cache invalidation.
  static constexpr uint32_t kRpcKvUpsert = 5;
  static constexpr uint32_t kRpcKvErase = 6;
  static constexpr uint32_t kRpcCacheInval = 7;
  static constexpr uint32_t kUserRpcBase = 100;

  // Hooks the elastic tier (src/elastic) installs around the txn layer
  // while a migration is live. One engine at a time; install/uninstall
  // must bracket DrainTxnWindows() so no in-flight transaction straddles
  // the toggle. All methods may be called concurrently from worker and
  // server threads.
  class ElasticHooks {
   public:
    virtual ~ElasticHooks() = default;
    // Gate for write-lock / lease acquisition and local HTM writes.
    // Returning false means the key's bucket is frozen mid-switch: the
    // transaction aborts the attempt and retries, re-resolving the
    // owner, so it lands on the new owner after the flip.
    virtual bool AllowAcquire(int table, uint64_t key) { return true; }
    // A transaction's write to (table, key) on `node` became visible at
    // `version`. Drives dual-write during the catch-up phase.
    virtual void OnCommittedWrite(int node, int table, uint64_t key,
                                  uint32_t version, const void* value,
                                  uint32_t len) {}
    // A shipped INSERT (inserted=true) / DELETE executed on `node`.
    virtual void OnStructuralOp(int node, int table, uint64_t key,
                                bool inserted, const void* value,
                                uint32_t len) {}
  };

  using RpcHandler =
      std::function<std::vector<uint8_t>(const rdma::Message&)>;

  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Table registration; call before Start(). Returns the table id.
  int AddTable(const TableSpec& spec);

  void Start();
  void Stop();

  const ClusterConfig& config() const { return config_; }
  int num_nodes() const { return config_.num_nodes; }
  int workers_per_node() const { return config_.workers_per_node; }
  rdma::Fabric& fabric() { return *fabric_; }
  SyncTime& synctime() { return *synctime_; }

  const TableSpec& table(int id) const {
    return tables_[static_cast<size_t>(id)];
  }
  int num_tables() const { return static_cast<int>(tables_.size()); }
  int PartitionOf(int table, uint64_t key) const {
    return tables_[static_cast<size_t>(table)].partition(key);
  }

  store::ClusterHashTable* hash_table(int node, int table) {
    return hash_tables_[static_cast<size_t>(node)][static_cast<size_t>(table)]
        .get();
  }
  store::BPlusTree* ordered_table(int node, int table) {
    return ordered_tables_[static_cast<size_t>(node)]
                          [static_cast<size_t>(table)]
        .get();
  }

  // The location cache a client on local_node uses for target_node's
  // memory (nullptr for its own node, which needs none).
  store::LocationCache* cache(int local_node, int target_node);

  NvramLog* log(int node) {
    return logs_[static_cast<size_t>(node)].get();
  }

  // Ships an INSERT/DELETE to the key's host, which executes it inside an
  // HTM transaction on its server thread (paper footnote 5).
  bool RemoteInsert(int from_node, int table, uint64_t key,
                    const void* value);
  bool RemoteRemove(int from_node, int table, uint64_t key);

  // Applies `op` to `node`'s local store in one HTM region on `htm`,
  // retried until it commits (inside an enclosing region on `htm` it
  // flattens into it), and returns the store's result. The only apply of
  // a StoreOp: the HTM path's ops, the fallback's buffered ones and the
  // server thread's shipped ones all land here.
  bool ApplyStoreOp(int node, const StoreOp& op, htm::HtmThread& htm);
  // A StoreOp carrying a copy of the table's value_size bytes of `value`
  // (none for nullptr).
  StoreOp MakeStoreOp(StoreOp::Kind kind, int table, uint64_t key,
                      const void* value = nullptr, uint32_t version = 0) const;
  // Reports a hash insert or remove on `node` that took effect to the
  // installed elastic hooks. Every other kind is not elastic-managed.
  void NotifyStructuralOp(int node, const StoreOp& op);

  // --- elastic-tier plumbing -----------------------------------------------
  // Installs (or clears, with nullptr) the migration hooks. The caller
  // must DrainTxnWindows() after every toggle before relying on it.
  void SetElasticHooks(ElasticHooks* hooks) {
    elastic_hooks_.store(hooks, std::memory_order_release);
  }
  ElasticHooks* elastic_hooks() const {
    return elastic_hooks_.load(std::memory_order_acquire);
  }

  // Epoch-tagged transaction windows. Every transaction attempt brackets
  // itself with Begin/End (see txn::WindowGuard); DrainTxnWindows() bumps
  // the epoch and waits until every attempt that began under the old
  // epoch has ended — i.e. until no in-flight attempt can still be
  // acting on hook state sampled before the toggle.
  uint64_t BeginTxnWindow();
  void EndTxnWindow(uint64_t token);
  void DrainTxnWindows();

  // Migration-side record shipping: install-or-overwrite at `version`
  // (max-version-wins, idempotent) / erase on an explicit node,
  // bypassing the partition function and the elastic gate.
  bool ShipUpsert(int from_node, int target_node, int table, uint64_t key,
                  uint32_t version, const void* value);
  bool ShipErase(int from_node, int target_node, int table, uint64_t key);

  // Tells every other node to drop its location-cache hints for the
  // listed bucket offsets in `source_node`'s memory. Returns the number
  // of nodes that acknowledged.
  int BroadcastCacheInvalidate(int from_node, int source_node,
                               const std::vector<uint64_t>& bucket_offs);

  // Remote access to ordered stores over SEND/RECV verbs (the paper's
  // stated mechanism for ordered tables, sections 3 and 6.5 — DrTM has
  // no RDMA-friendly B+ tree). The host executes the operation inside an
  // HTM transaction on its server thread; the result is a consistent
  // snapshot of that one operation.
  bool RemoteOrderedGet(int from_node, int target_node, int table,
                        uint64_t key, void* value_out);
  struct OrderedScanRow {
    uint64_t key;
    std::vector<uint8_t> value;
  };
  // Returns up to `limit` rows of [lo, hi]; false on node failure.
  bool RemoteOrderedScan(int from_node, int target_node, int table,
                         uint64_t lo, uint64_t hi, uint32_t limit,
                         std::vector<OrderedScanRow>* rows_out);

  // Registers a user RPC handler (kind must be >= kUserRpcBase). Handlers
  // run on the target node's server thread.
  void RegisterRpcHandler(uint32_t kind, RpcHandler handler);
  rdma::OpStatus Rpc(int from, int to, uint32_t kind,
                     std::vector<uint8_t> payload,
                     std::vector<uint8_t>* reply);

  // Fail-stop crash / restart (server thread included).
  void Crash(int node);
  void Revive(int node);

  uint64_t NextTxnId(int node, int worker);

 private:
  void ServerLoop(int node);
  // Store handlers run their HTM regions on the server loop's HtmThread.
  std::vector<uint8_t> HandleKvInsert(int node, const rdma::Message& msg,
                                     htm::HtmThread& htm);
  std::vector<uint8_t> HandleKvRemove(int node, const rdma::Message& msg,
                                     htm::HtmThread& htm);
  std::vector<uint8_t> HandleKvUpsert(int node, const rdma::Message& msg,
                                     htm::HtmThread& htm);
  std::vector<uint8_t> HandleKvErase(int node, const rdma::Message& msg,
                                    htm::HtmThread& htm);
  // The shared tail of the four structural-op handlers: applies the
  // decoded op, records it for replay under `name`, reports it to the
  // elastic hooks and builds the 1-byte reply.
  std::vector<uint8_t> ServeStoreOp(int node, const StoreOp& op,
                                    htm::HtmThread& htm, const char* name);
  // The one encoder of the four structural-op RPCs: encodes `op`, counts
  // it under `counter` and ships it to `target_node`'s server thread as
  // RPC `kind`. op.kind does not travel: the RPC kind names the op, and
  // the server applies an insert or remove to the ordered store iff the
  // table is ordered. True iff the op applied.
  bool ShipStoreOp(int from_node, int target_node, uint32_t kind,
                   const StoreOp& op, uint32_t counter);
  std::vector<uint8_t> HandleCacheInval(int node, const rdma::Message& msg);
  std::vector<uint8_t> HandleOrderedGet(int node, const rdma::Message& msg,
                                       htm::HtmThread& htm);
  std::vector<uint8_t> HandleOrderedScan(int node, const rdma::Message& msg,
                                        htm::HtmThread& htm);

  ClusterConfig config_;
  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<SyncTime> synctime_;
  std::vector<TableSpec> tables_;
  std::vector<std::vector<std::unique_ptr<store::ClusterHashTable>>>
      hash_tables_;
  std::vector<std::vector<std::unique_ptr<store::BPlusTree>>> ordered_tables_;
  std::vector<std::vector<std::unique_ptr<store::LocationCache>>> caches_;
  std::vector<std::unique_ptr<NvramLog>> logs_;
  std::unordered_map<uint32_t, RpcHandler> handlers_;
  std::vector<std::thread> servers_;
  std::vector<std::unique_ptr<std::atomic<bool>>> server_running_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> txn_seq_;
  std::atomic<ElasticHooks*> elastic_hooks_{nullptr};
  // Two-parity window counters: attempts increment the counter of the
  // epoch they began under; a drain bumps the epoch and waits out the
  // old parity. Parity reuse is safe because a drain only returns once
  // its parity counter reached zero.
  std::atomic<uint64_t> window_epoch_{0};
  std::atomic<int64_t> windows_even_{0};
  std::atomic<int64_t> windows_odd_{0};
  bool started_ = false;
};

}  // namespace txn
}  // namespace drtm

#endif  // SRC_TXN_CLUSTER_H_
