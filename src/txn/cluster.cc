#include "src/txn/cluster.h"

#include <cassert>
#include <cstring>

#include "src/chaos/injector.h"
#include "src/replay/recorder.h"
#include "src/common/clock.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace txn {

namespace {

// Server-side RPC dispatch and shipped structural operations.
struct ClusterMetricIds {
  uint32_t rpc_handled = 0;
  uint32_t insert_shipped = 0;
  uint32_t remove_shipped = 0;
  uint32_t upsert_shipped = 0;
  uint32_t erase_shipped = 0;
  uint32_t cache_inval_sent = 0;
  uint32_t crash = 0;
  uint32_t revive = 0;
};

const ClusterMetricIds& ClusterIds() {
  static const ClusterMetricIds ids = [] {
    stat::Registry& reg = stat::Registry::Global();
    ClusterMetricIds c;
    c.rpc_handled = reg.CounterId("cluster.rpc.handled");
    c.insert_shipped = reg.CounterId("cluster.insert.shipped");
    c.remove_shipped = reg.CounterId("cluster.remove.shipped");
    c.upsert_shipped = reg.CounterId("cluster.upsert.shipped");
    c.erase_shipped = reg.CounterId("cluster.erase.shipped");
    c.cache_inval_sent = reg.CounterId("cluster.cache_inval.sent");
    c.crash = reg.CounterId("cluster.crash");
    c.revive = reg.CounterId("cluster.revive");
    return c;
  }();
  return ids;
}

// Chaos injection points in the server-thread RPC path (the carried-over
// gap from ROADMAP item 5): rpc.dispatch covers every request at the
// dispatch switch, rpc.insert / rpc.remove cover the shipped structural
// ops specifically, and rpc.upsert / rpc.erase / rpc.cache_inval cover
// the elastic tier's migration dual-write, erase and invalidation
// broadcast channels. kFailOp / kAbandon read as a dropped request — an
// empty reply, the same visible class as a lost SEND — and kDelayNs
// models a stalled server thread. The three migration-path points are
// deliberately NOT in chaos::kTransientPoints: random plan generation
// draws only from that list, so the fixed CI seeds keep byte-identical
// schedules; scripted plans target the new points by name.
struct RpcPointIds {
  uint32_t dispatch = 0;
  uint32_t insert = 0;
  uint32_t remove = 0;
  uint32_t upsert = 0;
  uint32_t erase = 0;
  uint32_t cache_inval = 0;
  // Ordered-store server ops. Like the migration points these stay out
  // of chaos::kTransientPoints, so the fixed CI seeds keep
  // byte-identical schedules; scripted plans target them by name.
  uint32_t ordered_get = 0;
  uint32_t ordered_scan = 0;
  uint32_t ordered_insert = 0;
  uint32_t ordered_remove = 0;
};

const RpcPointIds& RpcPoints() {
  static const RpcPointIds ids = [] {
    chaos::Injector& inj = chaos::Injector::Global();
    RpcPointIds p;
    p.dispatch = inj.Point("rpc.dispatch");
    p.insert = inj.Point("rpc.insert");
    p.remove = inj.Point("rpc.remove");
    p.upsert = inj.Point("rpc.upsert");
    p.erase = inj.Point("rpc.erase");
    p.cache_inval = inj.Point("rpc.cache_inval");
    p.ordered_get = inj.Point("rpc.ordered.get");
    p.ordered_scan = inj.Point("rpc.ordered.scan");
    p.ordered_insert = inj.Point("rpc.ordered.insert");
    p.ordered_remove = inj.Point("rpc.ordered.remove");
    return p;
  }();
  return ids;
}

// Returns true when the op should be dropped (fail/abandon); applies a
// delay decision in place.
bool ChaosDropsRpc(uint32_t point, int node) {
  const chaos::Decision decision = chaos::Check(point, node);
  switch (decision.kind) {
    case chaos::Decision::Kind::kFailOp:
    case chaos::Decision::Kind::kAbandon:
      return true;
    case chaos::Decision::Kind::kDelayNs:
      SpinFor(decision.arg);
      return false;
    default:
      return false;
  }
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  rdma::Fabric::Config fabric_config;
  fabric_config.num_nodes = config.num_nodes;
  fabric_config.region_bytes = config.region_bytes;
  fabric_config.latency = config.latency;
  fabric_config.atomic_level = config.atomic_level;
  fabric_ = std::make_unique<rdma::Fabric>(fabric_config);
  synctime_ =
      std::make_unique<SyncTime>(fabric_.get(), config.softtime_interval_us);

  hash_tables_.resize(static_cast<size_t>(config.num_nodes));
  ordered_tables_.resize(static_cast<size_t>(config.num_nodes));
  caches_.resize(static_cast<size_t>(config.num_nodes));
  for (int n = 0; n < config.num_nodes; ++n) {
    caches_[static_cast<size_t>(n)].resize(
        static_cast<size_t>(config.num_nodes));
    // NVRAM segments consume registered memory; only reserve them when
    // durability is on.
    LogEpochConfig epoch;
    epoch.group_commit = config.group_commit;
    epoch.epoch_bytes = config.durability_epoch_bytes;
    epoch.epoch_us = config.durability_epoch_us;
    epoch.latency = config.latency;
    logs_.push_back(config.logging
                        ? std::make_unique<NvramLog>(
                              &fabric_->memory(n),
                              config.workers_per_node + 1,
                              config.log_segment_bytes, epoch)
                        : nullptr);
    server_running_.push_back(std::make_unique<std::atomic<bool>>(false));
    txn_seq_.push_back(std::make_unique<std::atomic<uint64_t>>(1));
  }
}

Cluster::~Cluster() { Stop(); }

int Cluster::AddTable(const TableSpec& spec) {
  assert(!started_ && "tables must be registered before Start()");
  assert(spec.partition && "a table needs a partition function");
  const int id = static_cast<int>(tables_.size());
  tables_.push_back(spec);
  for (int n = 0; n < config_.num_nodes; ++n) {
    auto& hash_row = hash_tables_[static_cast<size_t>(n)];
    auto& ordered_row = ordered_tables_[static_cast<size_t>(n)];
    if (spec.ordered) {
      store::BPlusTree::Config tree_config;
      tree_config.value_size = spec.value_size;
      tree_config.max_nodes = spec.max_nodes;
      hash_row.push_back(nullptr);
      ordered_row.push_back(std::make_unique<store::BPlusTree>(tree_config));
    } else {
      store::ClusterHashTable::Config table_config;
      table_config.main_buckets = spec.main_buckets;
      table_config.indirect_buckets = spec.indirect_buckets;
      table_config.capacity = spec.capacity;
      table_config.value_size = spec.value_size;
      hash_row.push_back(std::make_unique<store::ClusterHashTable>(
          &fabric_->memory(n), table_config));
      ordered_row.push_back(nullptr);
    }
  }
  return id;
}

store::LocationCache* Cluster::cache(int local_node, int target_node) {
  if (local_node == target_node) {
    return nullptr;
  }
  auto& slot = caches_[static_cast<size_t>(local_node)]
                      [static_cast<size_t>(target_node)];
  if (slot == nullptr) {
    // All caches owned by one machine share a gauge label.
    slot = std::make_unique<store::LocationCache>(
        config_.location_cache_bytes, "n" + std::to_string(local_node));
  }
  return slot.get();
}

void Cluster::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  // Materialize every location-cache shard before any worker or server
  // thread can race through cache(): its lazy create is single-threaded
  // setup only — two concurrent first calls for one (local, target) pair
  // would free a cache out from under its first user.
  for (int n = 0; n < config_.num_nodes; ++n) {
    for (int t = 0; t < config_.num_nodes; ++t) {
      (void)cache(n, t);
    }
  }
  synctime_->Start();
  for (int n = 0; n < config_.num_nodes; ++n) {
    server_running_[static_cast<size_t>(n)]->store(true);
    servers_.emplace_back([this, n] { ServerLoop(n); });
  }
}

void Cluster::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  for (int n = 0; n < config_.num_nodes; ++n) {
    server_running_[static_cast<size_t>(n)]->store(false);
    fabric_->queue(n).Shutdown();
  }
  for (auto& server : servers_) {
    if (server.joinable()) {
      server.join();
    }
  }
  servers_.clear();
  synctime_->Stop();
}

void Cluster::ServerLoop(int node) {
  htm::HtmThread htm(config_.htm);
  while (server_running_[static_cast<size_t>(node)]->load(
      std::memory_order_acquire)) {
    rdma::Message msg;
    if (!fabric_->queue(node).PopWait(&msg, 1000)) {
      continue;
    }
    if (ChaosDropsRpc(RpcPoints().dispatch, node)) {
      // Drop at the door: the empty reply reads as op-failed at every
      // call site, same visible class as a lost SEND.
      fabric_->Reply(msg, {});
      continue;
    }
    std::vector<uint8_t> reply;
    switch (msg.kind) {
      case kRpcKvInsert:
        reply = HandleKvInsert(node, msg, htm);
        break;
      case kRpcKvRemove:
        reply = HandleKvRemove(node, msg, htm);
        break;
      case kRpcKvUpsert:
        reply = HandleKvUpsert(node, msg, htm);
        break;
      case kRpcKvErase:
        reply = HandleKvErase(node, msg, htm);
        break;
      case kRpcCacheInval:
        reply = HandleCacheInval(node, msg);
        break;
      case kRpcOrderedGet:
        reply = HandleOrderedGet(node, msg, htm);
        break;
      case kRpcOrderedScan:
        reply = HandleOrderedScan(node, msg, htm);
        break;
      default: {
        auto it = handlers_.find(msg.kind);
        if (it != handlers_.end()) {
          reply = it->second(msg);
        }
        break;
      }
    }
    stat::Registry::Global().Add(ClusterIds().rpc_handled);
    fabric_->Reply(msg, std::move(reply));
  }
}

namespace {

// The wire image of a shipped StoreOp: this header, then the value bytes
// (if any). The RPC kind names the op; an insert or remove applies to
// the ordered store iff the table is ordered.
struct StoreOpHeader {
  int32_t table;
  uint32_t version;
  uint64_t key;
};

StoreOp DecodeStoreOp(const rdma::Message& msg, StoreOp::Kind kind) {
  StoreOpHeader header;
  std::memcpy(&header, msg.payload.data(), sizeof(header));
  return StoreOp{kind, header.table, header.key, header.version,
                 std::vector<uint8_t>(msg.payload.begin() + sizeof(header),
                                      msg.payload.end())};
}

struct CacheInvalHeader {
  int32_t source;
  uint32_t count;
};

}  // namespace

bool Cluster::ApplyStoreOp(int node, const StoreOp& op, htm::HtmThread& htm) {
  store::ClusterHashTable* hash = hash_table(node, op.table);
  store::BPlusTree* tree = ordered_table(node, op.table);
  const uint8_t* value = op.value.data();
  bool ok = false;
  htm.TransactUntilCommitted([&] {
    switch (op.kind) {
      case StoreOp::kHashInsert:
        ok = hash->Insert(op.key, value);
        break;
      case StoreOp::kHashRemove:
      case StoreOp::kErase:
        ok = hash->Remove(op.key);
        break;
      case StoreOp::kUpsert:
        ok = hash->InstallVersioned(op.key, op.version, value);
        break;
      case StoreOp::kOrderedInsert:
        ok = tree->Insert(op.key, value);
        break;
      case StoreOp::kOrderedPut:
        ok = tree->Put(op.key, value);
        break;
      case StoreOp::kOrderedRemove:
        ok = tree->Remove(op.key);
        break;
    }
  });
  return ok;
}

void Cluster::NotifyStructuralOp(int node, const StoreOp& op) {
  ElasticHooks* hooks = elastic_hooks();
  if (hooks == nullptr ||
      (op.kind != StoreOp::kHashInsert && op.kind != StoreOp::kHashRemove)) {
    return;
  }
  const bool inserted = op.kind == StoreOp::kHashInsert;
  hooks->OnStructuralOp(node, op.table, op.key, inserted,
                        inserted ? op.value.data() : nullptr,
                        static_cast<uint32_t>(op.value.size()));
}

std::vector<uint8_t> Cluster::ServeStoreOp(int node, const StoreOp& op,
                                           htm::HtmThread& htm,
                                           const char* name) {
  const bool ok = ApplyStoreOp(node, op, htm);
  replay::Recorder::Global().RecordRpcApply(name, node, op.table, op.key, ok);
  if (ok) {
    NotifyStructuralOp(node, op);
  }
  return {static_cast<uint8_t>(ok ? 1 : 0)};
}

std::vector<uint8_t> Cluster::HandleKvInsert(int node,
                                             const rdma::Message& msg,
                                             htm::HtmThread& htm) {
  if (ChaosDropsRpc(RpcPoints().insert, node)) {
    return {static_cast<uint8_t>(0)};
  }
  StoreOp op = DecodeStoreOp(msg, StoreOp::kHashInsert);
  if (!tables_[static_cast<size_t>(op.table)].ordered) {
    return ServeStoreOp(node, op, htm, "rpc.insert");
  }
  // Ordered tables take the same shipped-insert channel; a dedicated
  // point lets scripted chaos plans drop B+-tree inserts specifically.
  if (ChaosDropsRpc(RpcPoints().ordered_insert, node)) {
    return {static_cast<uint8_t>(0)};
  }
  op.kind = StoreOp::kOrderedInsert;
  return ServeStoreOp(node, op, htm, "rpc.ordered.insert");
}

std::vector<uint8_t> Cluster::HandleKvRemove(int node,
                                             const rdma::Message& msg,
                                             htm::HtmThread& htm) {
  if (ChaosDropsRpc(RpcPoints().remove, node)) {
    return {static_cast<uint8_t>(0)};
  }
  StoreOp op = DecodeStoreOp(msg, StoreOp::kHashRemove);
  if (!tables_[static_cast<size_t>(op.table)].ordered) {
    return ServeStoreOp(node, op, htm, "rpc.remove");
  }
  if (ChaosDropsRpc(RpcPoints().ordered_remove, node)) {
    return {static_cast<uint8_t>(0)};
  }
  op.kind = StoreOp::kOrderedRemove;
  return ServeStoreOp(node, op, htm, "rpc.ordered.remove");
}

std::vector<uint8_t> Cluster::HandleKvUpsert(int node,
                                             const rdma::Message& msg,
                                             htm::HtmThread& htm) {
  // A dropped upsert is a lost dual-write/catch-up installment: the
  // migration engine must retry off the 0 reply or reconcile at flip.
  if (ChaosDropsRpc(RpcPoints().upsert, node)) {
    return {static_cast<uint8_t>(0)};
  }
  return ServeStoreOp(node, DecodeStoreOp(msg, StoreOp::kUpsert), htm,
                      "rpc.upsert");
}

std::vector<uint8_t> Cluster::HandleKvErase(int node,
                                            const rdma::Message& msg,
                                            htm::HtmThread& htm) {
  if (ChaosDropsRpc(RpcPoints().erase, node)) {
    return {static_cast<uint8_t>(0)};
  }
  return ServeStoreOp(node, DecodeStoreOp(msg, StoreOp::kErase), htm,
                      "rpc.erase");
}

std::vector<uint8_t> Cluster::HandleCacheInval(int node,
                                               const rdma::Message& msg) {
  // A dropped invalidation leaves stale location-cache hints; hints are
  // validated on use, so the cost is extra RDMA reads, never wrong data.
  if (ChaosDropsRpc(RpcPoints().cache_inval, node)) {
    return {static_cast<uint8_t>(0)};
  }
  CacheInvalHeader header;
  if (msg.payload.size() < sizeof(header)) {
    return {static_cast<uint8_t>(0)};
  }
  std::memcpy(&header, msg.payload.data(), sizeof(header));
  store::LocationCache* local = cache(node, header.source);
  if (local != nullptr) {
    const uint8_t* offs = msg.payload.data() + sizeof(header);
    for (uint32_t i = 0;
         i < header.count &&
         sizeof(header) + (i + 1) * sizeof(uint64_t) <= msg.payload.size();
         ++i) {
      uint64_t bucket_off = 0;
      std::memcpy(&bucket_off, offs + i * sizeof(uint64_t), sizeof(uint64_t));
      local->Invalidate(bucket_off);
    }
  }
  return {static_cast<uint8_t>(1)};
}

namespace {

struct OrderedGetRequest {
  int32_t table;
  uint64_t key;
};

struct OrderedScanRequest {
  int32_t table;
  uint32_t limit;
  uint64_t lo;
  uint64_t hi;
};

}  // namespace

std::vector<uint8_t> Cluster::HandleOrderedGet(int node,
                                               const rdma::Message& msg,
                                               htm::HtmThread& htm) {
  // A dropped ordered get reads as a lost request: empty/negative reply,
  // and the client treats the key as unreachable this attempt.
  if (ChaosDropsRpc(RpcPoints().ordered_get, node)) {
    return {static_cast<uint8_t>(0)};
  }
  OrderedGetRequest req;
  std::memcpy(&req, msg.payload.data(), sizeof(req));
  store::BPlusTree* tree = ordered_table(node, req.table);
  const uint32_t value_size = tables_[static_cast<size_t>(req.table)]
                                  .value_size;
  std::vector<uint8_t> reply(1 + value_size, 0);
  bool found = false;
  htm.TransactUntilCommitted(
      [&] { found = tree->Get(req.key, reply.data() + 1); });
  reply[0] = found ? 1 : 0;
  return reply;
}

std::vector<uint8_t> Cluster::HandleOrderedScan(int node,
                                                const rdma::Message& msg,
                                                htm::HtmThread& htm) {
  // Dropped scan: a sub-4-byte reply, which RemoteOrderedScan reports as
  // a failed RPC rather than an empty (but successful) result set.
  if (ChaosDropsRpc(RpcPoints().ordered_scan, node)) {
    return {static_cast<uint8_t>(0)};
  }
  OrderedScanRequest req;
  std::memcpy(&req, msg.payload.data(), sizeof(req));
  store::BPlusTree* tree = ordered_table(node, req.table);
  const uint32_t value_size = tables_[static_cast<size_t>(req.table)]
                                  .value_size;
  std::vector<uint8_t> reply(4, 0);
  uint32_t count = 0;
  htm.TransactUntilCommitted([&] {
    reply.resize(4);
    count = 0;
    tree->Scan(req.lo, req.hi, [&](uint64_t key, const void* value) {
      const size_t base = reply.size();
      reply.resize(base + 8 + value_size);
      std::memcpy(reply.data() + base, &key, 8);
      std::memcpy(reply.data() + base + 8, value, value_size);
      return ++count < req.limit;
    });
  });
  std::memcpy(reply.data(), &count, 4);
  return reply;
}

bool Cluster::RemoteOrderedGet(int from_node, int target_node, int table,
                               uint64_t key, void* value_out) {
  OrderedGetRequest req{table, key};
  std::vector<uint8_t> payload(sizeof(req));
  std::memcpy(payload.data(), &req, sizeof(req));
  std::vector<uint8_t> reply;
  if (fabric_->Rpc(from_node, target_node, kRpcOrderedGet, std::move(payload),
                   &reply) != rdma::OpStatus::kOk ||
      reply.empty() || reply[0] == 0) {
    return false;
  }
  std::memcpy(value_out, reply.data() + 1,
              tables_[static_cast<size_t>(table)].value_size);
  return true;
}

bool Cluster::RemoteOrderedScan(int from_node, int target_node, int table,
                                uint64_t lo, uint64_t hi, uint32_t limit,
                                std::vector<OrderedScanRow>* rows_out) {
  OrderedScanRequest req{table, limit, lo, hi};
  std::vector<uint8_t> payload(sizeof(req));
  std::memcpy(payload.data(), &req, sizeof(req));
  std::vector<uint8_t> reply;
  if (fabric_->Rpc(from_node, target_node, kRpcOrderedScan,
                   std::move(payload), &reply) != rdma::OpStatus::kOk ||
      reply.size() < 4) {
    return false;
  }
  uint32_t count = 0;
  std::memcpy(&count, reply.data(), 4);
  const uint32_t value_size = tables_[static_cast<size_t>(table)].value_size;
  rows_out->clear();
  size_t pos = 4;
  for (uint32_t i = 0; i < count && pos + 8 + value_size <= reply.size();
       ++i) {
    OrderedScanRow row;
    std::memcpy(&row.key, reply.data() + pos, 8);
    row.value.assign(reply.begin() + static_cast<long>(pos + 8),
                     reply.begin() + static_cast<long>(pos + 8 + value_size));
    rows_out->push_back(std::move(row));
    pos += 8 + value_size;
  }
  return true;
}

StoreOp Cluster::MakeStoreOp(StoreOp::Kind kind, int table, uint64_t key,
                             const void* value, uint32_t version) const {
  const auto* bytes = static_cast<const uint8_t*>(value);
  return StoreOp{kind, table, key, version,
                 value == nullptr
                     ? std::vector<uint8_t>()
                     : std::vector<uint8_t>(
                           bytes, bytes + tables_[static_cast<size_t>(table)]
                                              .value_size)};
}

bool Cluster::ShipStoreOp(int from_node, int target_node, uint32_t kind,
                          const StoreOp& op, uint32_t counter) {
  const StoreOpHeader header{op.table, op.version, op.key};
  std::vector<uint8_t> payload(sizeof(header));
  std::memcpy(payload.data(), &header, sizeof(header));
  payload.insert(payload.end(), op.value.begin(), op.value.end());
  std::vector<uint8_t> reply;
  stat::Registry::Global().Add(counter);
  return fabric_->Rpc(from_node, target_node, kind, std::move(payload),
                      &reply) == rdma::OpStatus::kOk &&
         !reply.empty() && reply[0] == 1;
}

bool Cluster::RemoteInsert(int from_node, int table, uint64_t key,
                           const void* value) {
  return ShipStoreOp(from_node, PartitionOf(table, key), kRpcKvInsert,
                     MakeStoreOp(StoreOp::kHashInsert, table, key, value),
                     ClusterIds().insert_shipped);
}

bool Cluster::RemoteRemove(int from_node, int table, uint64_t key) {
  return ShipStoreOp(from_node, PartitionOf(table, key), kRpcKvRemove,
                     MakeStoreOp(StoreOp::kHashRemove, table, key),
                     ClusterIds().remove_shipped);
}

bool Cluster::ShipUpsert(int from_node, int target_node, int table,
                         uint64_t key, uint32_t version, const void* value) {
  return ShipStoreOp(from_node, target_node, kRpcKvUpsert,
                     MakeStoreOp(StoreOp::kUpsert, table, key, value, version),
                     ClusterIds().upsert_shipped);
}

bool Cluster::ShipErase(int from_node, int target_node, int table,
                        uint64_t key) {
  return ShipStoreOp(from_node, target_node, kRpcKvErase,
                     MakeStoreOp(StoreOp::kErase, table, key),
                     ClusterIds().erase_shipped);
}

int Cluster::BroadcastCacheInvalidate(
    int from_node, int source_node, const std::vector<uint64_t>& bucket_offs) {
  if (bucket_offs.empty()) {
    return 0;
  }
  CacheInvalHeader header{source_node,
                          static_cast<uint32_t>(bucket_offs.size())};
  std::vector<uint8_t> payload(sizeof(header) +
                               bucket_offs.size() * sizeof(uint64_t));
  std::memcpy(payload.data(), &header, sizeof(header));
  std::memcpy(payload.data() + sizeof(header), bucket_offs.data(),
              bucket_offs.size() * sizeof(uint64_t));
  int acked = 0;
  for (int n = 0; n < config_.num_nodes; ++n) {
    if (n == source_node) {
      continue;  // a node never caches its own memory
    }
    std::vector<uint8_t> reply;
    stat::Registry::Global().Add(ClusterIds().cache_inval_sent);
    if (fabric_->Rpc(from_node, n, kRpcCacheInval, payload, &reply) ==
            rdma::OpStatus::kOk &&
        !reply.empty() && reply[0] == 1) {
      ++acked;
    }
  }
  return acked;
}

uint64_t Cluster::BeginTxnWindow() {
  while (true) {
    const uint64_t epoch = window_epoch_.load(std::memory_order_acquire);
    std::atomic<int64_t>& counter =
        (epoch & 1) != 0 ? windows_odd_ : windows_even_;
    counter.fetch_add(1, std::memory_order_acq_rel);
    if (window_epoch_.load(std::memory_order_acquire) == epoch) {
      return epoch;
    }
    // A drain slipped between the epoch read and the increment; back out
    // and register under the new epoch so the drain does not wait on us.
    counter.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void Cluster::EndTxnWindow(uint64_t token) {
  std::atomic<int64_t>& counter =
      (token & 1) != 0 ? windows_odd_ : windows_even_;
  counter.fetch_sub(1, std::memory_order_acq_rel);
}

void Cluster::DrainTxnWindows() {
  const uint64_t old_epoch =
      window_epoch_.fetch_add(1, std::memory_order_acq_rel);
  std::atomic<int64_t>& counter =
      (old_epoch & 1) != 0 ? windows_odd_ : windows_even_;
  while (counter.load(std::memory_order_acquire) != 0) {
    SpinFor(2000);
  }
}

void Cluster::RegisterRpcHandler(uint32_t kind, RpcHandler handler) {
  assert(kind >= kUserRpcBase);
  handlers_[kind] = std::move(handler);
}

rdma::OpStatus Cluster::Rpc(int from, int to, uint32_t kind,
                            std::vector<uint8_t> payload,
                            std::vector<uint8_t>* reply) {
  return fabric_->Rpc(from, to, kind, std::move(payload), reply);
}

void Cluster::Crash(int node) {
  stat::Registry::Global().Add(ClusterIds().crash);
  fabric_->SetAlive(node, false);
  server_running_[static_cast<size_t>(node)]->store(false);
}

void Cluster::Revive(int node) {
  stat::Registry::Global().Add(ClusterIds().revive);
  fabric_->queue(node).Reset();
  fabric_->SetAlive(node, true);
  if (started_) {
    server_running_[static_cast<size_t>(node)]->store(true);
    servers_.emplace_back([this, node] { ServerLoop(node); });
  }
}

uint64_t Cluster::NextTxnId(int node, int worker) {
  const uint64_t seq =
      txn_seq_[static_cast<size_t>(node)]->fetch_add(1,
                                                     std::memory_order_relaxed);
  return (static_cast<uint64_t>(node) << 48) |
         (static_cast<uint64_t>(worker) << 40) | seq;
}

}  // namespace txn
}  // namespace drtm
