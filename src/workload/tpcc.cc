#include "src/workload/tpcc.h"

#include <array>
#include <cassert>
#include <cstring>
#include <set>
#include <string>
#include <utility>

#include "src/stat/metrics.h"
#include "src/txn/chop_planner.h"
#include "src/txn/chopping.h"

namespace drtm {
namespace workload {

namespace {

constexpr uint32_t kPaymentRpc = txn::Cluster::kUserRpcBase + 1;

const char* TpccTxnName(TpccDb::TxnType type) {
  switch (type) {
    case TpccDb::TxnType::kNewOrder:
      return "new_order";
    case TpccDb::TxnType::kPayment:
      return "payment";
    case TpccDb::TxnType::kOrderStatus:
      return "order_status";
    case TpccDb::TxnType::kDelivery:
      return "delivery";
    case TpccDb::TxnType::kStockLevel:
      return "stock_level";
  }
  return "unknown";
}

void RecordTpccOutcome(TpccDb::TxnType type, txn::TxnStatus status) {
  constexpr int kTypes = 5;
  static const std::array<std::pair<uint32_t, uint32_t>, kTypes> ids = [] {
    stat::Registry& reg = stat::Registry::Global();
    std::array<std::pair<uint32_t, uint32_t>, kTypes> out{};
    for (int i = 0; i < kTypes; ++i) {
      const std::string base = std::string("txn.tpcc.") +
                               TpccTxnName(static_cast<TpccDb::TxnType>(i));
      out[static_cast<size_t>(i)] = {reg.CounterId(base + ".committed"),
                                     reg.CounterId(base + ".aborted")};
    }
    return out;
  }();
  const auto& [committed, aborted] = ids[static_cast<size_t>(type)];
  stat::Registry::Global().Add(
      status == txn::TxnStatus::kCommitted ? committed : aborted);
}

// TPC-C NURand with the spec's per-run constant C.
uint64_t NuRand(Xoshiro256& rng, uint64_t a, uint64_t n) {
  constexpr uint64_t kC = 42;
  const uint64_t r = ((rng.NextBounded(a + 1) | rng.NextBounded(n)) + kC) % n;
  return r;
}

}  // namespace

TpccDb::TpccDb(txn::Cluster* cluster, const Params& params)
    : cluster_(cluster),
      params_(params),
      new_order_floor_(static_cast<size_t>(params.warehouses) *
                       kDistrictsPerWarehouse) {
  const int nodes = cluster->num_nodes();
  const uint64_t warehouses_per_node =
      static_cast<uint64_t>((params.warehouses + nodes - 1) / nodes);

  auto by_warehouse = [nodes](uint64_t w) {
    return static_cast<int>(w % static_cast<uint64_t>(nodes));
  };

  txn::TableSpec spec;
  spec.value_size = sizeof(WarehouseRow);
  spec.main_buckets = 64;
  spec.indirect_buckets = 32;
  spec.capacity = warehouses_per_node + 8;
  spec.partition = [by_warehouse](uint64_t key) { return by_warehouse(key); };
  warehouse_ = cluster->AddTable(spec);

  spec = txn::TableSpec();
  spec.value_size = sizeof(DistrictRow);
  spec.main_buckets = 128;
  spec.indirect_buckets = 64;
  spec.capacity = warehouses_per_node * kDistrictsPerWarehouse + 16;
  spec.partition = [by_warehouse](uint64_t key) {
    return by_warehouse(key / kDistrictsPerWarehouse);
  };
  district_ = cluster->AddTable(spec);

  spec = txn::TableSpec();
  spec.value_size = sizeof(CustomerRow);
  const uint64_t customers_per_node =
      warehouses_per_node * kDistrictsPerWarehouse *
      static_cast<uint64_t>(params.customers_per_district);
  spec.capacity = customers_per_node + 64;
  spec.main_buckets = 1;
  while (spec.main_buckets * 6 < spec.capacity) {
    spec.main_buckets <<= 1;
  }
  spec.indirect_buckets = spec.main_buckets / 2 + 16;
  spec.partition = [by_warehouse](uint64_t key) {
    return by_warehouse((key >> 20) / kDistrictsPerWarehouse);
  };
  customer_ = cluster->AddTable(spec);

  spec = txn::TableSpec();
  spec.value_size = sizeof(StockRow);
  const uint64_t stock_per_node =
      warehouses_per_node * static_cast<uint64_t>(params.items);
  spec.capacity = stock_per_node + 64;
  spec.main_buckets = 1;
  while (spec.main_buckets * 6 < spec.capacity) {
    spec.main_buckets <<= 1;
  }
  spec.indirect_buckets = spec.main_buckets / 2 + 16;
  spec.partition = [by_warehouse](uint64_t key) {
    return by_warehouse(key >> 24);
  };
  stock_ = cluster->AddTable(spec);

  spec = txn::TableSpec();
  spec.value_size = sizeof(ItemRow);
  spec.capacity = static_cast<uint64_t>(params.items) + 64;
  spec.main_buckets = 1;
  while (spec.main_buckets * 6 < spec.capacity) {
    spec.main_buckets <<= 1;
  }
  spec.indirect_buckets = spec.main_buckets / 2 + 16;
  spec.partition = [](uint64_t key) { return static_cast<int>(key >> 32); };
  item_ = cluster->AddTable(spec);

  spec = txn::TableSpec();
  spec.value_size = sizeof(HistoryRow);
  spec.capacity = 1 << 17;
  spec.main_buckets = 1 << 14;
  spec.indirect_buckets = 1 << 13;
  spec.partition = [](uint64_t key) { return static_cast<int>(key >> 40); };
  history_ = cluster->AddTable(spec);

  auto ordered_by_district = [by_warehouse](int shift) {
    return [by_warehouse, shift](uint64_t key) {
      return by_warehouse((key >> shift) / kDistrictsPerWarehouse);
    };
  };

  txn::TableSpec ordered;
  ordered.ordered = true;
  ordered.value_size = sizeof(OrderRow);
  ordered.max_nodes = 1 << 15;
  ordered.partition = ordered_by_district(32);
  order_ = cluster->AddTable(ordered);

  ordered = txn::TableSpec();
  ordered.ordered = true;
  ordered.value_size = sizeof(NewOrderRow);
  ordered.max_nodes = 1 << 14;
  ordered.partition = ordered_by_district(32);
  new_order_ = cluster->AddTable(ordered);

  ordered = txn::TableSpec();
  ordered.ordered = true;
  ordered.value_size = sizeof(OrderLineRow);
  ordered.max_nodes = 1 << 17;
  ordered.partition = ordered_by_district(36);
  order_line_ = cluster->AddTable(ordered);

  ordered = txn::TableSpec();
  ordered.ordered = true;
  ordered.value_size = 8;  // customer id
  ordered.max_nodes = 1 << 13;
  ordered.partition = ordered_by_district(32);
  name_index_ = cluster->AddTable(ordered);

  ordered = txn::TableSpec();
  ordered.ordered = true;
  ordered.value_size = 8;  // presence marker
  ordered.max_nodes = 1 << 15;
  // key = (customer_key << 24) | o_id; customer_key >> 20 = district key.
  ordered.partition = [by_warehouse](uint64_t key) {
    return by_warehouse(((key >> 24) >> 20) / kDistrictsPerWarehouse);
  };
  cust_order_ = cluster->AddTable(ordered);

  shipped_workers_.resize(static_cast<size_t>(nodes));
  cluster_->RegisterRpcHandler(kPaymentRpc, [this](const rdma::Message& msg) {
    PaymentArgs args;
    std::memcpy(&args, msg.payload.data(), sizeof(args));
    const int node = cluster_->PartitionOf(customer_, CustomerKey(args.cw,
                                                                  args.cd, 0));
    txn::Worker* worker = ShippedWorker(node);
    const txn::TxnStatus status = PaymentLocal(worker, args);
    return std::vector<uint8_t>{static_cast<uint8_t>(status)};
  });
}

txn::Worker* TpccDb::ShippedWorker(int node) {
  auto& slot = shipped_workers_[static_cast<size_t>(node)];
  if (slot == nullptr) {
    // Server threads are one per node, so lazy creation is race-free.
    slot = std::make_unique<txn::Worker>(cluster_, node,
                                         cluster_->workers_per_node());
  }
  return slot.get();
}

void TpccDb::Load() {
  const int nodes = cluster_->num_nodes();
  Xoshiro256 rng(0x7bcc5eedULL);
  for (int node = 0; node < nodes; ++node) {
    for (int i = 0; i < params_.items; ++i) {
      // Replicated read-only table: every node's copy must be identical,
      // so derive fields from the item id alone.
      Xoshiro256 item_rng(0x17e3 + static_cast<uint64_t>(i));
      ItemRow item{};
      item.price_cents = 100 + item_rng.NextBounded(9900);
      item.im_id = static_cast<uint32_t>(item_rng.NextBounded(10000));
      cluster_->hash_table(node, item_)->Insert(
          ItemKey(node, static_cast<uint64_t>(i)), &item);
    }
  }
  for (uint64_t w = 0; w < static_cast<uint64_t>(params_.warehouses); ++w) {
    const int node = cluster_->PartitionOf(warehouse_, w);
    WarehouseRow wr{};
    wr.tax_bp = static_cast<uint32_t>(rng.NextBounded(2000));
    cluster_->hash_table(node, warehouse_)->Insert(w, &wr);
    for (uint64_t i = 0; i < static_cast<uint64_t>(params_.items); ++i) {
      StockRow sr{};
      sr.quantity = 10 + rng.NextBounded(91);
      cluster_->hash_table(node, stock_)->Insert(StockKey(w, i), &sr);
    }
    for (uint64_t d = 0; d < kDistrictsPerWarehouse; ++d) {
      DistrictRow dr{};
      dr.next_o_id = static_cast<uint64_t>(params_.initial_orders_per_district);
      dr.tax_bp = static_cast<uint32_t>(rng.NextBounded(2000));
      cluster_->hash_table(node, district_)->Insert(DistrictKey(w, d), &dr);
      for (uint64_t c = 0;
           c < static_cast<uint64_t>(params_.customers_per_district); ++c) {
        CustomerRow cr{};
        cr.balance_cents = -1000;
        cr.discount_bp = static_cast<uint32_t>(rng.NextBounded(5000));
        cr.name_id = static_cast<uint32_t>(
            c % static_cast<uint64_t>(params_.name_count));
        cluster_->hash_table(node, customer_)
            ->Insert(CustomerKey(w, d, c), &cr);
        const uint64_t c_id = c;
        cluster_->ordered_table(node, name_index_)
            ->Insert(NameIndexKey(w, d, cr.name_id, c), &c_id);
      }
      // A small initial backlog of orders; the newest third is
      // undelivered (has NEWORDER rows), mirroring the spec's shape.
      for (uint64_t o = 0;
           o < static_cast<uint64_t>(params_.initial_orders_per_district);
           ++o) {
        const uint64_t c =
            o % static_cast<uint64_t>(params_.customers_per_district);
        OrderRow orow{};
        orow.c_id = static_cast<uint32_t>(c);
        orow.ol_cnt = 10;
        orow.carrier_id =
            o < static_cast<uint64_t>(
                    params_.initial_orders_per_district * 2 / 3)
                ? 1u + static_cast<uint32_t>(rng.NextBounded(10))
                : 0u;
        cluster_->ordered_table(node, order_)->Insert(OrderKey(w, d, o),
                                                      &orow);
        const uint64_t marker = 1;
        cluster_->ordered_table(node, cust_order_)
            ->Insert((CustomerKey(w, d, c) << 24) | o, &marker);
        if (orow.carrier_id == 0) {
          NewOrderRow nrow{1};
          cluster_->ordered_table(node, new_order_)
              ->Insert(OrderKey(w, d, o), &nrow);
        }
        for (uint64_t ol = 0; ol < orow.ol_cnt; ++ol) {
          OrderLineRow line{};
          line.i_id = static_cast<uint32_t>(
              rng.NextBounded(static_cast<uint64_t>(params_.items)));
          line.supply_w = static_cast<uint32_t>(w);
          line.quantity = 5;
          line.amount_cents = static_cast<uint32_t>(rng.NextBounded(10000));
          line.delivery_date = orow.carrier_id != 0 ? 12345 : 0;
          cluster_->ordered_table(node, order_line_)
              ->Insert(OrderLineKey(w, d, o, ol), &line);
        }
      }
    }
  }
}

uint64_t TpccDb::HomeWarehouse(txn::Worker* worker) {
  const uint64_t nodes = static_cast<uint64_t>(cluster_->num_nodes());
  const uint64_t node = static_cast<uint64_t>(worker->node());
  const uint64_t total = static_cast<uint64_t>(params_.warehouses);
  const uint64_t count = (total - node + nodes - 1) / nodes;  // w = node + k*nodes < total
  const uint64_t k = worker->rng().NextBounded(count);
  return node + k * nodes;
}

uint64_t TpccDb::NuRandCustomer(Xoshiro256& rng) {
  return NuRand(rng, 1023,
                static_cast<uint64_t>(params_.customers_per_district));
}

uint64_t TpccDb::NuRandItem(Xoshiro256& rng) {
  return NuRand(rng, 8191, static_cast<uint64_t>(params_.items));
}

txn::TxnStatus TpccDb::RunNewOrder(txn::Worker* worker) {
  return RunNewOrderWithCross(worker, params_.cross_warehouse_new_order);
}

txn::TxnStatus TpccDb::RunNewOrderWithCross(txn::Worker* worker,
                                            double cross_prob) {
  Xoshiro256& rng = worker->rng();
  const uint64_t w = HomeWarehouse(worker);
  const uint64_t d = rng.NextBounded(kDistrictsPerWarehouse);
  const uint64_t c = NuRandCustomer(rng);
  const int ol_cnt = 5 + static_cast<int>(rng.NextBounded(11));
  const bool rollback = rng.Bernoulli(params_.new_order_rollback) &&
                        cross_prob == params_.cross_warehouse_new_order;

  struct Line {
    uint64_t item;
    uint64_t supply_w;
    uint32_t quantity;
  };
  std::vector<Line> lines;
  lines.reserve(static_cast<size_t>(ol_cnt));
  for (int l = 0; l < ol_cnt; ++l) {
    uint64_t item;
    bool unique;
    do {
      item = NuRandItem(rng);
      unique = true;
      for (const Line& existing : lines) {
        if (existing.item == item) {
          unique = false;
          break;
        }
      }
    } while (!unique);
    uint64_t supply = w;
    if (params_.warehouses > 1 && rng.Bernoulli(cross_prob)) {
      do {
        supply = rng.NextBounded(static_cast<uint64_t>(params_.warehouses));
      } while (supply == w);
    }
    lines.push_back(
        Line{item, supply, 1 + static_cast<uint32_t>(rng.NextBounded(10))});
  }

  const int node = worker->node();

  // Fragment decomposition for the planner ("tpcc.new_order" catalog
  // entry): a header fragment allocating o_id, one fragment per item
  // line, ordered inserts last. When the whole footprint fits the HTM
  // write budget the fragments fuse back into one monolithic transaction
  // identical to the pre-planner body; otherwise the item loop is chopped
  // into pieces and cross-piece stock writes are chain-locked (§4.6).
  struct Ctx {
    uint64_t o_id = 0;
    std::vector<OrderLineRow> rows;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->rows.resize(lines.size());

  txn::ChopPlanner planner(cluster_, node, "tpcc.new_order");

  txn::ChopPlanner::Fragment header;
  header.records = {
      {warehouse_, w, false},
      {district_, DistrictKey(w, d), true},
      {customer_, CustomerKey(w, d, c), false},
  };
  header.may_user_abort = true;
  header.body = [this, w, d, c, rollback, ctx](txn::Transaction& t) {
    WarehouseRow wr;
    DistrictRow dr;
    CustomerRow cr;
    if (!t.Read(warehouse_, w, &wr) ||
        !t.Read(district_, DistrictKey(w, d), &dr) ||
        !t.Read(customer_, CustomerKey(w, d, c), &cr)) {
      return false;
    }
    ctx->o_id = dr.next_o_id;
    dr.next_o_id = ctx->o_id + 1;
    if (!t.Write(district_, DistrictKey(w, d), &dr)) {
      return false;
    }
    // The spec's 1% invalid-item rollback. Decided in the header so a
    // chopped chain only ever user-aborts from its first piece.
    return !rollback;
  };
  planner.AddFragment(std::move(header));

  for (size_t l = 0; l < lines.size(); ++l) {
    const Line line = lines[l];
    txn::ChopPlanner::Fragment item;
    item.records = {
        {item_, ItemKey(node, line.item), false},
        {stock_, StockKey(line.supply_w, line.item), true},
    };
    item.body = [this, node, w, l, line, ctx](txn::Transaction& t) {
      ItemRow item_row;
      StockRow stock;
      if (!t.Read(item_, ItemKey(node, line.item), &item_row) ||
          !t.Read(stock_, StockKey(line.supply_w, line.item), &stock)) {
        return false;
      }
      if (stock.quantity >= line.quantity + 10) {
        stock.quantity -= line.quantity;
      } else {
        stock.quantity += 91 - line.quantity;
      }
      stock.ytd += line.quantity;
      stock.order_cnt += 1;
      if (line.supply_w != w) {
        stock.remote_cnt += 1;
      }
      if (!t.Write(stock_, StockKey(line.supply_w, line.item), &stock)) {
        return false;
      }
      OrderLineRow& row = ctx->rows[l];
      row.i_id = static_cast<uint32_t>(line.item);
      row.supply_w = static_cast<uint32_t>(line.supply_w);
      row.quantity = line.quantity;
      row.amount_cents =
          static_cast<uint32_t>(line.quantity * item_row.price_cents);
      row.delivery_date = 0;
      return true;
    };
    planner.AddFragment(std::move(item));
  }

  txn::ChopPlanner::Fragment inserts;
  // Ordered inserts write B+ tree nodes inside the HTM region (leaf
  // rewrite, occasional split) — not visible as declared records, so
  // estimated here at ~8 lines per insert.
  inserts.extra_write_lines = (3 + lines.size()) * 8;
  inserts.body = [this, w, d, c, ctx](txn::Transaction& t) {
    const uint64_t o_id = ctx->o_id;
    OrderRow orow{};
    orow.c_id = static_cast<uint32_t>(c);
    orow.ol_cnt = static_cast<uint32_t>(ctx->rows.size());
    orow.entry_date = t.start_time_us();
    if (!t.OrderedInsert(order_, OrderKey(w, d, o_id), &orow)) {
      return false;
    }
    const NewOrderRow nrow{1};
    if (!t.OrderedInsert(new_order_, OrderKey(w, d, o_id), &nrow)) {
      return false;
    }
    const uint64_t marker = 1;
    if (!t.OrderedInsert(cust_order_, (CustomerKey(w, d, c) << 24) | o_id,
                         &marker)) {
      return false;
    }
    for (size_t l = 0; l < ctx->rows.size(); ++l) {
      if (!t.OrderedInsert(order_line_, OrderLineKey(w, d, o_id, l),
                           &ctx->rows[l])) {
        return false;
      }
    }
    return true;
  };
  planner.AddFragment(std::move(inserts));

  const txn::TxnStatus status = planner.Run(worker);
  if (status == txn::TxnStatus::kCommitted) {
    // Only after the commit: lowered earlier, a delivery could scan from
    // o_id before the row is visible and advance the floor past it.
    std::atomic<uint64_t>& floor = new_order_floor_[DistrictKey(w, d)];
    uint64_t from = floor.load(std::memory_order_relaxed);
    while (from > ctx->o_id &&
           !floor.compare_exchange_weak(from, ctx->o_id,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
    }
  }
  return status;
}

txn::TxnStatus TpccDb::RunPayment(txn::Worker* worker) {
  Xoshiro256& rng = worker->rng();
  PaymentArgs args{};
  args.w = HomeWarehouse(worker);
  args.d = rng.NextBounded(kDistrictsPerWarehouse);
  args.cw = args.w;
  args.cd = args.d;
  if (params_.warehouses > 1 &&
      rng.Bernoulli(params_.cross_warehouse_payment)) {
    do {
      args.cw = rng.NextBounded(static_cast<uint64_t>(params_.warehouses));
    } while (args.cw == args.w);
    args.cd = rng.NextBounded(kDistrictsPerWarehouse);
  }
  args.by_name = rng.Bernoulli(params_.payment_by_name) ? 1 : 0;
  args.customer = args.by_name != 0
                      ? rng.NextBounded(
                            static_cast<uint64_t>(params_.name_count))
                      : NuRandCustomer(rng);
  args.amount_cents = 100 + rng.NextBounded(499900);

  const int customer_node =
      cluster_->PartitionOf(customer_, CustomerKey(args.cw, args.cd, 0));
  if (customer_node == worker->node()) {
    return PaymentLocal(worker, args);
  }
  // Remote customer: resolving by name needs a remote ordered-store scan,
  // so ship the whole transaction to the customer's node (section 6.5).
  std::vector<uint8_t> payload(sizeof(args));
  std::memcpy(payload.data(), &args, sizeof(args));
  std::vector<uint8_t> reply;
  if (cluster_->Rpc(worker->node(), customer_node, kPaymentRpc,
                    std::move(payload), &reply) != rdma::OpStatus::kOk ||
      reply.empty()) {
    // No Transaction ran on this side, so nothing else counts the failure.
    static const uint32_t node_failure =
        stat::Registry::Global().CounterId("txn.node_failure");
    stat::Registry::Global().Add(node_failure);
    return txn::TxnStatus::kNodeFailure;
  }
  // The server's Transaction::Run already counted the outcome.
  return static_cast<txn::TxnStatus>(reply[0]);
}

bool TpccDb::CustomerByName(txn::Worker* worker, uint64_t w, uint64_t d,
                            uint64_t name, uint64_t* c) {
  std::vector<uint64_t> matches;
  store::BPlusTree* index =
      cluster_->ordered_table(worker->node(), name_index_);
  worker->htm().TransactUntilCommitted([&] {
    matches.clear();
    index->Scan(NameIndexKey(w, d, name, 0), NameIndexKey(w, d, name, 0xfff),
                [&](uint64_t, const void* value) {
                  uint64_t c_id;
                  std::memcpy(&c_id, value, 8);
                  matches.push_back(c_id);
                  return true;
                });
  });
  if (matches.empty()) {
    return false;
  }
  *c = matches[matches.size() / 2];  // the spec's "middle" customer
  return true;
}

txn::TxnStatus TpccDb::PaymentLocal(txn::Worker* worker,
                                    const PaymentArgs& args) {
  uint64_t c = args.customer;
  if (args.by_name != 0 &&
      !CustomerByName(worker, args.cw, args.cd, args.customer, &c)) {
    return txn::TxnStatus::kUserAbort;
  }

  const uint64_t ck = CustomerKey(args.cw, args.cd, c);
  txn::Transaction txn(worker);
  txn.AddWrite(warehouse_, args.w);
  txn.AddWrite(district_, DistrictKey(args.w, args.d));
  txn.AddWrite(customer_, ck);
  const uint64_t history_key =
      (static_cast<uint64_t>(worker->node()) << 40) |
      history_seq_.fetch_add(1, std::memory_order_relaxed);
  return txn.Run([&](txn::Transaction& t) {
    WarehouseRow wr;
    DistrictRow dr;
    CustomerRow cr;
    if (!t.Read(warehouse_, args.w, &wr) ||
        !t.Read(district_, DistrictKey(args.w, args.d), &dr) ||
        !t.Read(customer_, ck, &cr)) {
      return false;
    }
    wr.ytd_cents += args.amount_cents;
    dr.ytd_cents += args.amount_cents;
    cr.balance_cents -= static_cast<int64_t>(args.amount_cents);
    cr.ytd_payment_cents += args.amount_cents;
    cr.payment_cnt += 1;
    if (!t.Write(warehouse_, args.w, &wr) ||
        !t.Write(district_, DistrictKey(args.w, args.d), &dr) ||
        !t.Write(customer_, ck, &cr)) {
      return false;
    }
    HistoryRow history{};
    history.amount_cents = args.amount_cents;
    history.wdc = ck;
    history.date = t.start_time_us();
    t.Insert(history_, history_key, &history);
    return true;
  });
}

txn::TxnStatus TpccDb::RunOrderStatus(txn::Worker* worker) {
  Xoshiro256& rng = worker->rng();
  const uint64_t w = HomeWarehouse(worker);
  const uint64_t d = rng.NextBounded(kDistrictsPerWarehouse);
  uint64_t c = NuRandCustomer(rng);
  if (rng.Bernoulli(params_.payment_by_name)) {
    const uint64_t name = rng.NextBounded(
        static_cast<uint64_t>(params_.name_count));
    CustomerByName(worker, w, d, name, &c);  // keeps c when none match
  }

  const uint64_t ck = CustomerKey(w, d, c);
  txn::Transaction txn(worker);
  txn.AddRead(customer_, ck);
  return txn.Run([&](txn::Transaction& t) {
    CustomerRow cr;
    if (!t.Read(customer_, ck, &cr)) {
      return false;
    }
    // Latest order of this customer via the per-customer index.
    uint64_t index_key = 0;
    uint64_t marker;
    if (!t.OrderedFindFloor(cust_order_, ck << 24, (ck << 24) | 0xffffff,
                            &index_key, &marker)) {
      return true;  // customer has no orders yet
    }
    const uint64_t o_id = index_key & 0xffffff;
    OrderRow orow;
    if (!t.OrderedGet(order_, OrderKey(w, d, o_id), &orow)) {
      return true;
    }
    uint64_t lines_seen = 0;
    t.OrderedScan(order_line_, OrderLineKey(w, d, o_id, 0),
                  OrderLineKey(w, d, o_id, 0xff),
                  [&](uint64_t, const void* value) {
                    OrderLineRow line;
                    std::memcpy(&line, value, sizeof(line));
                    ++lines_seen;
                    return true;
                  });
    return true;
  });
}

txn::TxnStatus TpccDb::RunDelivery(txn::Worker* worker) {
  Xoshiro256& rng = worker->rng();
  const uint64_t w = HomeWarehouse(worker);
  const uint32_t carrier = 1 + static_cast<uint32_t>(rng.NextBounded(10));

  // Reconnaissance (section 4.1): discover per-district oldest undelivered
  // orders and their customers outside the transaction; each piece then
  // re-checks its NEWORDER row and no-ops if another delivery beat it.
  struct Target {
    uint64_t d, o_id, c_id;
  };
  std::vector<Target> targets;
  htm::HtmThread& htm = worker->htm();
  for (uint64_t d = 0; d < kDistrictsPerWarehouse; ++d) {
    std::atomic<uint64_t>& floor = new_order_floor_[DistrictKey(w, d)];
    uint64_t from = floor.load(std::memory_order_acquire);
    uint64_t oldest = ~uint64_t{0};
    htm.TransactUntilCommitted([&] {
      oldest = ~uint64_t{0};
      cluster_->ordered_table(worker->node(), new_order_)
          ->Scan(OrderKey(w, d, from), OrderKey(w, d, 0xffffffff),
                 [&](uint64_t key, const void*) {
                   oldest = key & 0xffffffff;
                   return false;  // first = oldest
                 });
    });
    if (oldest == ~uint64_t{0}) {
      continue;
    }
    // Fails when a new-order lowered the floor meanwhile; its row may
    // lie below the scanned range.
    floor.compare_exchange_strong(from, oldest, std::memory_order_relaxed);
    OrderRow orow{};
    bool found = false;
    htm.TransactUntilCommitted([&] {
      found = cluster_->ordered_table(worker->node(), order_)
                  ->Get(OrderKey(w, d, oldest), &orow);
    });
    if (found) {
      targets.push_back(Target{d, oldest, orow.c_id});
    }
  }
  if (targets.empty()) {
    return txn::TxnStatus::kCommitted;  // nothing to deliver
  }

  // One piece per district via the planner (the paper chops TPC-C;
  // delivery is the canonical beneficiary — its "tpcc.delivery" catalog
  // entry pins one fragment per piece, so the per-district decomposition
  // survives regardless of footprint).
  txn::ChopPlanner planner(cluster_, worker->node(), "tpcc.delivery");
  for (const Target& target : targets) {
    const uint64_t ck = CustomerKey(w, target.d, target.c_id);
    txn::ChopPlanner::Fragment piece;
    piece.records = {{customer_, ck, true}};
    // Order/new-order/order-line tree writes inside the HTM region.
    piece.extra_write_lines = 96;
    piece.body = [this, w, target, carrier, ck](txn::Transaction& t) {
          const uint64_t okey = OrderKey(w, target.d, target.o_id);
          NewOrderRow nrow;
          if (!t.OrderedGet(new_order_, okey, &nrow)) {
            return true;  // someone else delivered it; piece is a no-op
          }
          t.OrderedRemove(new_order_, okey);
          OrderRow orow;
          if (!t.OrderedGet(order_, okey, &orow)) {
            return true;
          }
          orow.carrier_id = carrier;
          t.OrderedPut(order_, okey, &orow);
          uint64_t amount = 0;
          std::vector<std::pair<uint64_t, OrderLineRow>> lines;
          t.OrderedScan(order_line_, OrderLineKey(w, target.d, target.o_id, 0),
                        OrderLineKey(w, target.d, target.o_id, 0xff),
                        [&](uint64_t key, const void* value) {
                          OrderLineRow line;
                          std::memcpy(&line, value, sizeof(line));
                          amount += line.amount_cents;
                          lines.emplace_back(key, line);
                          return true;
                        });
          for (auto& [key, line] : lines) {
            line.delivery_date = t.start_time_us();
            t.OrderedPut(order_line_, key, &line);
          }
          CustomerRow cr;
          if (!t.Read(customer_, ck, &cr)) {
            return true;
          }
          cr.balance_cents += static_cast<int64_t>(amount);
          cr.delivery_cnt += 1;
          return t.Write(customer_, ck, &cr);
        };
    planner.AddFragment(std::move(piece));
  }
  return planner.Run(worker);
}

txn::TxnStatus TpccDb::RunStockLevel(txn::Worker* worker) {
  Xoshiro256& rng = worker->rng();
  const uint64_t w = HomeWarehouse(worker);
  const uint64_t d = rng.NextBounded(kDistrictsPerWarehouse);
  const uint64_t threshold = 10 + rng.NextBounded(11);

  txn::Transaction txn(worker);
  txn.AddRead(district_, DistrictKey(w, d));
  return txn.Run([&](txn::Transaction& t) {
    DistrictRow dr;
    if (!t.Read(district_, DistrictKey(w, d), &dr)) {
      return false;
    }
    const uint64_t hi_o = dr.next_o_id;
    const uint64_t lo_o = hi_o >= 20 ? hi_o - 20 : 0;
    std::set<uint32_t> items;
    t.OrderedScan(order_line_, OrderLineKey(w, d, lo_o, 0),
                  OrderLineKey(w, d, hi_o, 0),
                  [&](uint64_t, const void* value) {
                    OrderLineRow line;
                    std::memcpy(&line, value, sizeof(line));
                    items.insert(line.i_id);
                    return true;
                  });
    uint64_t low_stock = 0;
    for (const uint32_t item : items) {
      StockRow stock;
      if (t.ReadDynamic(stock_, StockKey(w, item), &stock) &&
          stock.quantity < threshold) {
        ++low_stock;
      }
    }
    return true;
  });
}

TpccDb::MixResult TpccDb::RunMix(txn::Worker* worker) {
  const uint64_t roll = worker->rng().NextBounded(100);
  TxnType type;
  if (roll < 45) {
    type = TxnType::kNewOrder;
  } else if (roll < 88) {
    type = TxnType::kPayment;
  } else if (roll < 92) {
    type = TxnType::kOrderStatus;
  } else if (roll < 96) {
    type = TxnType::kDelivery;
  } else {
    type = TxnType::kStockLevel;
  }
  txn::TxnStatus status;
  switch (type) {
    case TxnType::kNewOrder:
      status = RunNewOrder(worker);
      break;
    case TxnType::kPayment:
      status = RunPayment(worker);
      break;
    case TxnType::kOrderStatus:
      status = RunOrderStatus(worker);
      break;
    case TxnType::kDelivery:
      status = RunDelivery(worker);
      break;
    case TxnType::kStockLevel:
      status = RunStockLevel(worker);
      break;
  }
  RecordTpccOutcome(type, status);
  return MixResult{type, status};
}

bool TpccDb::CheckConsistency() {
  bool ok = true;
  for (uint64_t w = 0; w < static_cast<uint64_t>(params_.warehouses); ++w) {
    const int node = cluster_->PartitionOf(warehouse_, w);
    WarehouseRow wr;
    if (!cluster_->hash_table(node, warehouse_)->Get(w, &wr)) {
      return false;
    }
    uint64_t district_ytd = 0;
    for (uint64_t d = 0; d < kDistrictsPerWarehouse; ++d) {
      DistrictRow dr;
      if (!cluster_->hash_table(node, district_)->Get(DistrictKey(w, d),
                                                      &dr)) {
        return false;
      }
      district_ytd += dr.ytd_cents;
      // Order ids are dense in [0, next_o_id).
      uint64_t orders = 0;
      uint64_t max_o = 0;
      cluster_->ordered_table(node, order_)
          ->Scan(OrderKey(w, d, 0), OrderKey(w, d, 0xffffffff),
                 [&](uint64_t key, const void* value) {
                   ++orders;
                   max_o = key & 0xffffffff;
                   OrderRow orow;
                   std::memcpy(&orow, value, sizeof(orow));
                   uint64_t lines = 0;
                   cluster_->ordered_table(node, order_line_)
                       ->Scan(OrderLineKey(w, d, max_o, 0),
                              OrderLineKey(w, d, max_o, 0xff),
                              [&](uint64_t, const void*) {
                                ++lines;
                                return true;
                              });
                   if (lines != orow.ol_cnt) {
                     ok = false;
                   }
                   return true;
                 });
      if (orders != dr.next_o_id || (orders > 0 && max_o + 1 != dr.next_o_id)) {
        ok = false;
      }
      // Every NEWORDER row has a matching ORDER row.
      cluster_->ordered_table(node, new_order_)
          ->Scan(OrderKey(w, d, 0), OrderKey(w, d, 0xffffffff),
                 [&](uint64_t key, const void*) {
                   OrderRow orow;
                   if (!cluster_->ordered_table(node, order_)
                            ->Get(key, &orow)) {
                     ok = false;
                   }
                   return true;
                 });
    }
    if (wr.ytd_cents != district_ytd) {
      ok = false;
    }
  }
  return ok;
}

}  // namespace workload
}  // namespace drtm
