// TPC-C on DrTM (paper section 7.1/7.2).
//
// Scaling knobs shrink the row counts for a small simulation host; the
// schema, transaction logic, access patterns and the mix (Table 5:
// NEW 45%, PAY 43%, OS 4%, DLY 4%, SL 4%) follow the spec the way the
// paper's implementation does:
//   * partitioned by warehouse across nodes;
//   * unordered tables (warehouse, district, customer, stock, item,
//     history) in DrTM-KV; ordered tables (order, new-order, order-line,
//     customer-name index) in the HTM B+ tree;
//   * item is replicated per node (read-only);
//   * payment with a remote customer resolved *by name* needs a remote
//     ordered-store scan, so the whole transaction is shipped to the
//     customer's node (paper section 6.5);
//   * delivery is chopped into per-district pieces with a reconnaissance
//     query discovering the customer write set (sections 3, 4.1);
//   * 1% of new-orders roll back (the spec's invalid-item case),
//     exercising the user-abort path.
#ifndef SRC_WORKLOAD_TPCC_H_
#define SRC_WORKLOAD_TPCC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rand.h"
#include "src/txn/cluster.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace workload {

// --- row formats -------------------------------------------------------------

struct WarehouseRow {
  uint64_t ytd_cents;
  uint32_t tax_bp;  // basis points
  uint8_t pad[20];
};
static_assert(sizeof(WarehouseRow) == 32);

struct DistrictRow {
  uint64_t next_o_id;
  uint64_t ytd_cents;
  uint32_t tax_bp;
  uint8_t pad[12];
};
static_assert(sizeof(DistrictRow) == 32);

struct CustomerRow {
  int64_t balance_cents;
  uint64_t ytd_payment_cents;
  uint32_t payment_cnt;
  uint32_t delivery_cnt;
  uint32_t discount_bp;
  uint32_t name_id;
  uint8_t data[96];  // stands in for the spec's wide character columns
};
static_assert(sizeof(CustomerRow) == 128);

struct StockRow {
  uint64_t quantity;
  uint64_t ytd;
  uint32_t order_cnt;
  uint32_t remote_cnt;
  uint8_t dist_info[40];
};
static_assert(sizeof(StockRow) == 64);

struct ItemRow {
  uint64_t price_cents;
  uint32_t im_id;
  uint8_t name[20];
};
static_assert(sizeof(ItemRow) == 32);

struct HistoryRow {
  uint64_t amount_cents;
  uint64_t wdc;  // packed (w, d, customer key)
  uint64_t date;
};
static_assert(sizeof(HistoryRow) == 24);

struct OrderRow {
  uint32_t c_id;
  uint32_t ol_cnt;
  uint64_t entry_date;
  uint32_t carrier_id;
  uint32_t pad;
};
static_assert(sizeof(OrderRow) == 24);

struct NewOrderRow {
  uint64_t present;
};

struct OrderLineRow {
  uint32_t i_id;
  uint32_t supply_w;
  uint32_t quantity;
  uint32_t amount_cents;
  uint64_t delivery_date;
};
static_assert(sizeof(OrderLineRow) == 24);

// --- key packing ---------------------------------------------------------------

inline constexpr int kDistrictsPerWarehouse = 10;

inline uint64_t DistrictKey(uint64_t w, uint64_t d) {
  return w * kDistrictsPerWarehouse + d;
}
inline uint64_t CustomerKey(uint64_t w, uint64_t d, uint64_t c) {
  return (DistrictKey(w, d) << 20) | c;
}
inline uint64_t StockKey(uint64_t w, uint64_t i) { return (w << 24) | i; }
inline uint64_t ItemKey(int node, uint64_t i) {
  return (static_cast<uint64_t>(node) << 32) | i;
}
inline uint64_t OrderKey(uint64_t w, uint64_t d, uint64_t o) {
  return (DistrictKey(w, d) << 32) | o;
}
inline uint64_t OrderLineKey(uint64_t w, uint64_t d, uint64_t o, uint64_t ol) {
  return (DistrictKey(w, d) << 36) | (o << 8) | ol;
}
inline uint64_t NameIndexKey(uint64_t w, uint64_t d, uint64_t name_id,
                             uint64_t c) {
  return (DistrictKey(w, d) << 32) | (name_id << 12) | c;
}

class TpccDb {
 public:
  struct Params {
    int warehouses = 2;  // node(w) = w % num_nodes
    int customers_per_district = 300;
    int items = 2000;
    int name_count = 100;  // distinct last names per district
    int initial_orders_per_district = 10;
    // Probability that a new-order item line is supplied by a remote
    // warehouse (spec default 1%) and that a payment customer belongs to
    // a remote warehouse (spec default 15%).
    double cross_warehouse_new_order = 0.01;
    double cross_warehouse_payment = 0.15;
    double payment_by_name = 0.60;
    double new_order_rollback = 0.01;
  };

  enum class TxnType {
    kNewOrder,
    kPayment,
    kOrderStatus,
    kDelivery,
    kStockLevel,
  };

  TpccDb(txn::Cluster* cluster, const Params& params);

  // Populates every node's partition. Call after cluster.Start().
  void Load();

  // Standard-mix step for one worker: picks a type per Table 5 and runs
  // it against a home warehouse on the worker's node.
  struct MixResult {
    TxnType type;
    txn::TxnStatus status;
  };
  MixResult RunMix(txn::Worker* worker);

  txn::TxnStatus RunNewOrder(txn::Worker* worker);
  txn::TxnStatus RunPayment(txn::Worker* worker);
  txn::TxnStatus RunOrderStatus(txn::Worker* worker);
  txn::TxnStatus RunDelivery(txn::Worker* worker);
  txn::TxnStatus RunStockLevel(txn::Worker* worker);

  // New-order with a caller-chosen cross-warehouse probability and no
  // rollback — the Fig. 16 sweep and the Fig. 17 micro-benchmarks reuse
  // this entry point.
  txn::TxnStatus RunNewOrderWithCross(txn::Worker* worker, double cross_prob);

  // Verifies warehouse/district YTD, order-id continuity and
  // order/order-line matching invariants across the whole database.
  bool CheckConsistency();

  const Params& params() const { return params_; }

  // Table ids.
  int warehouse_table() const { return warehouse_; }
  int district_table() const { return district_; }
  int customer_table() const { return customer_; }
  int stock_table() const { return stock_; }
  int item_table() const { return item_; }
  int history_table() const { return history_; }
  int order_table() const { return order_; }
  int new_order_table() const { return new_order_; }
  int order_line_table() const { return order_line_; }
  int name_index_table() const { return name_index_; }
  int customer_order_table() const { return cust_order_; }

 private:
  // Uniformly picks a warehouse hosted by the worker's node.
  uint64_t HomeWarehouse(txn::Worker* worker);
  uint64_t NuRandCustomer(Xoshiro256& rng);
  uint64_t NuRandItem(Xoshiro256& rng);
  // By-name customer resolution with a scan of the worker's local name
  // index (reconnaissance, section 4.1; names are immutable, so no
  // in-transaction re-check is needed): sets *c to the spec's "middle"
  // match of (w, d, name), or returns false when nothing matches.
  bool CustomerByName(txn::Worker* worker, uint64_t w, uint64_t d,
                      uint64_t name, uint64_t* c);

  // Payment executed where the customer is local; warehouse/district may
  // be remote. Registered as an RPC handler for shipped transactions.
  struct PaymentArgs {
    uint64_t w, d, cw, cd;
    uint64_t customer;  // resolved id, or name_id when by_name
    uint64_t amount_cents;
    uint8_t by_name;
  };
  txn::TxnStatus PaymentLocal(txn::Worker* worker, const PaymentArgs& args);
  txn::Worker* ShippedWorker(int node);

  txn::Cluster* cluster_;
  Params params_;
  int warehouse_, district_, customer_, stock_, item_, history_;
  int order_, new_order_, order_line_, name_index_, cust_order_;
  std::atomic<uint64_t> history_seq_{1};
  // Per district (indexed by DistrictKey), an o_id at or below every
  // NEW-ORDER row whose new-order has returned: delivery's
  // reconnaissance scans from it, not from 0, so it never walks the
  // emptied leaves of delivered orders (Silo's last_no_o_ids). A
  // delivery advances it by CAS from the value it scanned from. A
  // committed new-order lowers it with a fetch-min, so an order whose
  // inserts commit after a later order's (a chopped chain's insert
  // piece) is still delivered.
  std::vector<std::atomic<uint64_t>> new_order_floor_;
  std::vector<std::unique_ptr<txn::Worker>> shipped_workers_;
};

}  // namespace workload
}  // namespace drtm

#endif  // SRC_WORKLOAD_TPCC_H_
