#include "src/chaos/chaos_workload.h"

#include <algorithm>
#include <vector>

namespace drtm {
namespace chaos {
namespace {

uint64_t Fnv1a(uint64_t hash, const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    // drtm-lint: allow(TX01 post-run digest over caller-local buffers; "reachability" is a cross-TU name collision with the log checksum helper)
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// One transfer-workload attempt. Returns true on commit.
bool TransferStep(txn::Worker& worker, Xoshiro256& rng,
                  TransferState* state) {
  txn::Cluster& cluster = worker.cluster();
  const int home = worker.node();
  const uint64_t roll = rng.NextBounded(100);
  if (roll < 55) {
    // Intra-pair transfer (any node's pair — remote pairs make the
    // transaction distributed) + home commit-counter bump.
    const int target = static_cast<int>(rng.NextBounded(
        static_cast<uint64_t>(cluster.num_nodes())));
    const uint64_t pair = rng.NextBounded(kPairsPerNode);
    const int64_t amount = 1 + static_cast<int64_t>(rng.NextBounded(8));
    const bool flip = rng.NextBounded(2) == 1;
    const uint64_t from = PairKey(target, pair, flip ? 1 : 0);
    const uint64_t to = PairKey(target, pair, flip ? 0 : 1);
    const uint64_t counter = CounterKey(home);
    txn::Transaction txn(&worker);
    txn.AddWrite(state->table, from);
    txn.AddWrite(state->table, to);
    txn.AddWrite(state->table, counter);
    const txn::TxnStatus status = txn.Run([&](txn::Transaction& t) {
      int64_t a = 0;
      int64_t b = 0;
      int64_t c = 0;
      if (!t.Read(state->table, from, &a) || !t.Read(state->table, to, &b) ||
          !t.Read(state->table, counter, &c)) {
        return false;
      }
      a -= amount;
      b += amount;
      c += 1;
      return t.Write(state->table, from, &a) &&
             t.Write(state->table, to, &b) &&
             t.Write(state->table, counter, &c);
    });
    if (status != txn::TxnStatus::kCommitted) {
      return false;
    }
    state->ledger[state->LedgerIndex(from)].fetch_add(
        -amount, std::memory_order_relaxed);
    state->ledger[state->LedgerIndex(to)].fetch_add(
        amount, std::memory_order_relaxed);
    state->ledger[state->LedgerIndex(counter)].fetch_add(
        1, std::memory_order_relaxed);
    return true;
  }
  if (roll < 80 && state->ro_enabled) {
    // Read-only pair check: lease fencing means the snapshot can never
    // show a half-applied transfer, so the pair sum must be exact.
    const int target = static_cast<int>(rng.NextBounded(
        static_cast<uint64_t>(cluster.num_nodes())));
    const uint64_t pair = rng.NextBounded(kPairsPerNode);
    const uint64_t x = PairKey(target, pair, 0);
    const uint64_t y = PairKey(target, pair, 1);
    txn::ReadOnlyTransaction ro(&worker);
    ro.AddRead(state->table, x);
    ro.AddRead(state->table, y);
    if (ro.Execute() != txn::TxnStatus::kCommitted) {
      return false;
    }
    int64_t vx = 0;
    int64_t vy = 0;
    if (!ro.Get(state->table, x, &vx) || !ro.Get(state->table, y, &vy)) {
      return false;
    }
    state->ro_commits.fetch_add(1, std::memory_order_relaxed);
    if (vx + vy != 2 * kInitialBalance) {
      state->ro_anomalies.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  // Local commit-counter increment.
  const uint64_t counter = CounterKey(home);
  txn::Transaction txn(&worker);
  txn.AddWrite(state->table, counter);
  const txn::TxnStatus status = txn.Run([&](txn::Transaction& t) {
    int64_t c = 0;
    if (!t.Read(state->table, counter, &c)) {
      return false;
    }
    c += 1;
    return t.Write(state->table, counter, &c);
  });
  if (status != txn::TxnStatus::kCommitted) {
    return false;
  }
  state->ledger[state->LedgerIndex(counter)].fetch_add(
      1, std::memory_order_relaxed);
  return true;
}

}  // namespace

uint64_t PairKey(int node, uint64_t pair, int half) {
  return (static_cast<uint64_t>(node) << 32) | (2 * pair + half);
}

uint64_t CounterKey(int node) {
  return (static_cast<uint64_t>(node) << 32) | kCounterIndex;
}

uint64_t ScratchKey(int target, int node, int worker_id) {
  return (static_cast<uint64_t>(target) << 32) | (kCounterIndex << 1) |
         static_cast<uint64_t>(node * 64 + worker_id);
}

TransferState::TransferState(int num_nodes) : nodes(num_nodes) {
  ledger = std::make_unique<std::atomic<int64_t>[]>(
      static_cast<size_t>(num_nodes) * kStride);
  for (size_t i = 0; i < static_cast<size_t>(num_nodes) * kStride; ++i) {
    ledger[i].store(0, std::memory_order_relaxed);
  }
}

size_t TransferState::LedgerIndex(uint64_t key) const {
  const size_t node = static_cast<size_t>(key >> 32);
  const uint64_t low = key & 0xffffffffULL;
  if (low == kCounterIndex) {
    return node * kStride + 2 * kPairsPerNode;
  }
  return node * kStride + low;
}

WorkloadHarness::WorkloadHarness(const WorkloadShape& shape) : shape_(shape) {
  txn::ClusterConfig cluster_config;
  cluster_config.num_nodes = shape.nodes;
  cluster_config.workers_per_node =
      std::max(1, shape.cluster_workers_per_node);
  cluster_config.region_bytes = size_t{48} << 20;
  cluster_config.logging = true;
  cluster_config.group_commit = shape.group_commit;
  cluster_config.latency = rdma::LatencyModel::Zero();
  // Short leases: with the default 10 ms RO lease, a chaos-shifted
  // pile-up of read-only renewals on one hot pair can make every writer
  // wait out (and lose) lease after lease — hundreds of fallback
  // attempts at ~10 ms each turns one transaction into minutes. Chaos
  // runs want many fault/recovery cycles per second, not long leases.
  cluster_config.lease_rw_us = 1500;
  cluster_config.lease_ro_us = 2000;
  cluster_config.delta_us = 300;
  cluster_config.softtime_interval_us = 200;

  cluster_ = std::make_unique<txn::Cluster>(cluster_config);

  if (shape.workload == ChaosWorkload::kTransfer) {
    transfer_ = std::make_unique<TransferState>(shape.nodes);
    transfer_->ro_enabled = shape.transfer_ro_enabled;
    txn::TableSpec spec;
    spec.value_size = 8;
    spec.main_buckets = 1 << 8;
    spec.indirect_buckets = 1 << 7;
    spec.capacity = 1 << 12;
    spec.partition = [](uint64_t key) { return static_cast<int>(key >> 32); };
    transfer_->table = cluster_->AddTable(spec);
    cluster_->Start();
    for (int node = 0; node < shape.nodes; ++node) {
      for (uint64_t p = 0; p < kPairsPerNode; ++p) {
        for (int half = 0; half < 2; ++half) {
          const int64_t balance = kInitialBalance;
          cluster_->hash_table(node, transfer_->table)
              ->Insert(PairKey(node, p, half), &balance);
        }
      }
      const int64_t zero = 0;
      cluster_->hash_table(node, transfer_->table)
          ->Insert(CounterKey(node), &zero);
    }
  } else if (shape.workload == ChaosWorkload::kSmallBank) {
    workload::SmallBankDb::Params params;
    params.accounts_per_node = 256;
    params.hot_accounts_per_node = 32;
    params.cross_node_probability = 0.1;
    smallbank_ = std::make_unique<workload::SmallBankDb>(cluster_.get(),
                                                         params);
    cluster_->Start();
    smallbank_->Load();
    smallbank_expected_ = smallbank_->TotalMoney();
  } else if (shape.workload == ChaosWorkload::kTpcc) {
    workload::TpccDb::Params params;
    params.warehouses = shape.nodes;
    params.customers_per_district = 64;
    params.items = 256;
    params.initial_orders_per_district = 4;
    tpcc_ = std::make_unique<workload::TpccDb>(cluster_.get(), params);
    cluster_->Start();
    tpcc_->Load();
  } else {
    workload::YcsbDb::Params params;
    params.records_per_node = 2048;
    params.value_size = 64;
    params.mix = workload::YcsbDb::Mix::kB;
    params.ops_per_txn = 2;
    ycsb_ = std::make_unique<workload::YcsbDb>(cluster_.get(), params);
    cluster_->Start();
    ycsb_->Load();
  }
}

WorkloadHarness::~WorkloadHarness() {
  if (cluster_ != nullptr) {
    cluster_->Stop();
  }
}

bool WorkloadHarness::RunOp(txn::Worker& worker, Xoshiro256& rng,
                            uint64_t op) {
  const int node = worker.node();
  const int worker_id = worker.worker_id();
  if (transfer_ != nullptr) {
    if ((op & 7) == 3) {
      // Structural scratch op: a shipped INSERT then DELETE against a
      // random host. A chaos-dropped DELETE leaves a stray scratch
      // key, which no oracle reads; the point is to put traffic on
      // the RPC dispatch path while faults fire.
      const int target = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(shape_.nodes)));
      const uint64_t scratch = ScratchKey(target, node, worker_id);
      const int64_t one = 1;
      if (cluster_->RemoteInsert(node, transfer_->table, scratch, &one)) {
        cluster_->RemoteRemove(node, transfer_->table, scratch);
      }
    }
    return TransferStep(worker, rng, transfer_.get());
  }
  if (smallbank_ != nullptr) {
    // Conservation-preserving mix only: send-payment and amalgamate
    // move money between accounts, balance reads it. The deposit /
    // write-check / transact-savings types legitimately change
    // TotalMoney, which would blind the conservation oracle.
    txn::TxnStatus status;
    const uint64_t roll = rng.NextBounded(4);
    if (roll < 2) {
      status = smallbank_->RunSendPayment(&worker);
    } else if (roll == 2) {
      status = smallbank_->RunAmalgamate(&worker);
    } else {
      status = smallbank_->RunBalance(&worker);
    }
    return status == txn::TxnStatus::kCommitted;
  }
  if (tpcc_ != nullptr) {
    // TPC-C draws every input from worker.rng(), which is seeded by
    // worker identity; reseed it from the op stream so the run seed
    // reaches the mix (the replayer feeds the same stream).
    worker.rng().Seed(rng.Next());
    return tpcc_->RunMix(&worker).status == txn::TxnStatus::kCommitted;
  }
  return ycsb_->RunTxn(&worker).committed;
}

uint64_t WorkloadHarness::StateDigest() {
  uint64_t digest = kFnvBasis;
  if (transfer_ != nullptr) {
    // Must stay byte-identical to the fold the judge historically
    // computed: node-major, pairs then counter, value bytes only.
    const int table = transfer_->table;
    for (int node = 0; node < shape_.nodes; ++node) {
      for (uint64_t p = 0; p < kPairsPerNode; ++p) {
        for (int half = 0; half < 2; ++half) {
          int64_t value = 0;
          cluster_->hash_table(node, table)->Get(PairKey(node, p, half),
                                                 &value);
          digest = Fnv1a(digest, &value, sizeof(value));
        }
      }
      int64_t value = 0;
      cluster_->hash_table(node, table)->Get(CounterKey(node), &value);
      digest = Fnv1a(digest, &value, sizeof(value));
    }
    return digest;
  }
  if (smallbank_ != nullptr) {
    for (int node = 0; node < shape_.nodes; ++node) {
      for (uint64_t i = 0; i < smallbank_->params().accounts_per_node; ++i) {
        const uint64_t key = workload::SmallBankDb::AccountKey(node, i);
        int64_t savings = 0;
        int64_t checking = 0;
        cluster_->hash_table(node, smallbank_->savings_table())
            ->Get(key, &savings);
        cluster_->hash_table(node, smallbank_->checking_table())
            ->Get(key, &checking);
        digest = Fnv1a(digest, &savings, sizeof(savings));
        digest = Fnv1a(digest, &checking, sizeof(checking));
      }
    }
    return digest;
  }
  if (tpcc_ != nullptr) {
    // Warehouse + district rows (the consistency-condition state). TPC-C
    // sits outside the replay digest gate; this digest is context.
    const uint32_t wh_size =
        cluster_->table(tpcc_->warehouse_table()).value_size;
    const uint32_t di_size =
        cluster_->table(tpcc_->district_table()).value_size;
    std::vector<uint8_t> buf(std::max(wh_size, di_size));
    for (uint64_t w = 0;
         w < static_cast<uint64_t>(tpcc_->params().warehouses); ++w) {
      const int node = cluster_->PartitionOf(tpcc_->warehouse_table(), w);
      if (cluster_->hash_table(node, tpcc_->warehouse_table())
              ->Get(w, buf.data())) {
        digest = Fnv1a(digest, buf.data(), wh_size);
      }
      for (uint64_t d = 0; d < 10; ++d) {
        const uint64_t key = workload::DistrictKey(w, d);
        const int dnode = cluster_->PartitionOf(tpcc_->district_table(), key);
        if (cluster_->hash_table(dnode, tpcc_->district_table())
                ->Get(key, buf.data())) {
          digest = Fnv1a(digest, buf.data(), di_size);
        }
      }
    }
    return digest;
  }
  const uint32_t value_size = ycsb_->params().value_size;
  std::vector<uint8_t> buf(value_size);
  for (uint64_t logical = 0; logical < ycsb_->total_records(); ++logical) {
    const uint64_t key = ycsb_->KeyAt(logical);
    const int node = cluster_->PartitionOf(ycsb_->table(), key);
    if (cluster_->hash_table(node, ycsb_->table())->Get(key, buf.data())) {
      digest = Fnv1a(digest, buf.data(), value_size);
    }
  }
  return digest;
}

}  // namespace chaos
}  // namespace drtm
