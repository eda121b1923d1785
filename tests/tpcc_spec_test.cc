// Spec-level TPC-C checks: mix distribution, per-transaction semantics
// (district ordering, payment YTD, delivery settlement, order-status
// lookups), the section 6.5 payment-shipping path, and chopped delivery
// under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "src/stat/metrics.h"
#include "src/txn/transaction.h"
#include "src/workload/tpcc.h"

namespace drtm {
namespace workload {
namespace {

txn::ClusterConfig TestClusterConfig(int nodes) {
  txn::ClusterConfig config;
  config.num_nodes = nodes;
  config.workers_per_node = 2;
  config.region_bytes = 96 << 20;
  return config;
}

TpccDb::Params SmallParams(int warehouses) {
  TpccDb::Params params;
  params.warehouses = warehouses;
  params.customers_per_district = 40;
  params.items = 120;
  params.name_count = 10;
  params.initial_orders_per_district = 6;
  return params;
}

class TpccSpecTest : public ::testing::Test {
 protected:
  void SetUpTpcc(int nodes, int warehouses, TpccDb::Params params) {
    cluster_ = std::make_unique<txn::Cluster>(TestClusterConfig(nodes));
    params.warehouses = warehouses;
    db_ = std::make_unique<TpccDb>(cluster_.get(), params);
    cluster_->Start();
    db_->Load();
  }
  void TearDown() override {
    if (cluster_ != nullptr) {
      cluster_->Stop();
    }
  }
  std::unique_ptr<txn::Cluster> cluster_;
  std::unique_ptr<TpccDb> db_;
};

TEST_F(TpccSpecTest, MixFollowsTable5Percentages) {
  SetUpTpcc(1, 1, SmallParams(1));
  // Sample the type picker through RunMix on a quiesced database; count
  // per-type frequencies over many draws.
  txn::Worker worker(cluster_.get(), 0, 0);
  std::map<TpccDb::TxnType, int> counts;
  constexpr int kDraws = 3000;
  for (int i = 0; i < kDraws; ++i) {
    counts[db_->RunMix(&worker).type]++;
  }
  // Paper Table 5: NEW 45, PAY 43, OS 4, DLY 4, SL 4 (percent).
  EXPECT_NEAR(counts[TpccDb::TxnType::kNewOrder] * 100.0 / kDraws, 45, 4);
  EXPECT_NEAR(counts[TpccDb::TxnType::kPayment] * 100.0 / kDraws, 43, 4);
  EXPECT_NEAR(counts[TpccDb::TxnType::kOrderStatus] * 100.0 / kDraws, 4, 2);
  EXPECT_NEAR(counts[TpccDb::TxnType::kDelivery] * 100.0 / kDraws, 4, 2);
  EXPECT_NEAR(counts[TpccDb::TxnType::kStockLevel] * 100.0 / kDraws, 4, 2);
}

TEST_F(TpccSpecTest, NewOrderAssignsDenseOrderIds) {
  SetUpTpcc(1, 1, SmallParams(1));
  txn::Worker worker(cluster_.get(), 0, 0);
  const int before = 6;  // initial orders per district
  int committed = 0;
  for (int i = 0; i < 50; ++i) {
    if (db_->RunNewOrder(&worker) == txn::TxnStatus::kCommitted) {
      ++committed;
    }
  }
  // Sum of (next_o_id - initial) across districts equals committed count.
  uint64_t assigned = 0;
  for (uint64_t d = 0; d < kDistrictsPerWarehouse; ++d) {
    DistrictRow dr;
    ASSERT_TRUE(cluster_->hash_table(0, db_->district_table())
                    ->Get(DistrictKey(0, d), &dr));
    assigned += dr.next_o_id - before;
  }
  EXPECT_EQ(assigned, static_cast<uint64_t>(committed));
}

TEST_F(TpccSpecTest, NewOrderRollbackRateIsAboutOnePercent) {
  auto params = SmallParams(1);
  params.new_order_rollback = 0.10;  // exaggerate for statistical power
  SetUpTpcc(1, 1, params);
  txn::Worker worker(cluster_.get(), 0, 0);
  int aborted = 0;
  constexpr int kRuns = 400;
  for (int i = 0; i < kRuns; ++i) {
    if (db_->RunNewOrder(&worker) == txn::TxnStatus::kUserAbort) {
      ++aborted;
    }
  }
  EXPECT_NEAR(aborted * 1.0 / kRuns, 0.10, 0.05);
  EXPECT_TRUE(db_->CheckConsistency());
}

TEST_F(TpccSpecTest, PaymentMovesYtdAndCustomerBalance) {
  SetUpTpcc(1, 1, SmallParams(1));
  txn::Worker worker(cluster_.get(), 0, 0);
  WarehouseRow before_w;
  ASSERT_TRUE(
      cluster_->hash_table(0, db_->warehouse_table())->Get(0, &before_w));
  int64_t customer_sum_before = 0;
  for (uint64_t d = 0; d < kDistrictsPerWarehouse; ++d) {
    for (uint64_t c = 0; c < 40; ++c) {
      CustomerRow cr;
      ASSERT_TRUE(cluster_->hash_table(0, db_->customer_table())
                      ->Get(CustomerKey(0, d, c), &cr));
      customer_sum_before += cr.balance_cents;
    }
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(db_->RunPayment(&worker), txn::TxnStatus::kCommitted);
  }
  WarehouseRow after_w;
  ASSERT_TRUE(
      cluster_->hash_table(0, db_->warehouse_table())->Get(0, &after_w));
  const uint64_t paid = after_w.ytd_cents - before_w.ytd_cents;
  EXPECT_GT(paid, 0u);
  int64_t customer_sum_after = 0;
  for (uint64_t d = 0; d < kDistrictsPerWarehouse; ++d) {
    for (uint64_t c = 0; c < 40; ++c) {
      CustomerRow cr;
      ASSERT_TRUE(cluster_->hash_table(0, db_->customer_table())
                      ->Get(CustomerKey(0, d, c), &cr));
      customer_sum_after += cr.balance_cents;
    }
  }
  // Payments debit customers by exactly what the warehouse received.
  EXPECT_EQ(customer_sum_before - customer_sum_after,
            static_cast<int64_t>(paid));
}

TEST_F(TpccSpecTest, RemotePaymentShipsAndStaysConsistent) {
  auto params = SmallParams(2);
  params.cross_warehouse_payment = 1.0;  // every payment remote customer
  params.payment_by_name = 1.0;          // and resolved by name (ships)
  SetUpTpcc(2, 2, params);
  txn::Worker worker(cluster_.get(), 0, 0);
  for (int i = 0; i < 25; ++i) {
    ASSERT_EQ(db_->RunPayment(&worker), txn::TxnStatus::kCommitted);
  }
  EXPECT_TRUE(db_->CheckConsistency());
  // History rows were inserted at the *customer's* node (the shipped
  // transaction runs there).
  EXPECT_GT(cluster_->hash_table(1, db_->history_table())->live_entries(),
            0u);
}

TEST_F(TpccSpecTest, ShippedPaymentCountsOneCommit) {
  auto params = SmallParams(2);
  params.cross_warehouse_payment = 1.0;  // customer on the other node
  SetUpTpcc(2, 2, params);
  txn::Worker worker(cluster_.get(), 0, 0);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  ASSERT_EQ(db_->RunPayment(&worker), txn::TxnStatus::kCommitted);
  // The customer's node ran (and counted) it; the client adds nothing.
  EXPECT_EQ(stat::Registry::Global()
                .TakeSnapshot()
                .DeltaSince(before)
                .Counter("txn.commit"),
            1u);
}

TEST_F(TpccSpecTest, DeliverySettlesOrderAmountsIntoCustomerBalance) {
  SetUpTpcc(1, 1, SmallParams(1));
  txn::Worker worker(cluster_.get(), 0, 0);
  // Compute each district's oldest undelivered order amount + customer.
  struct Expect {
    uint64_t amount = 0;
    uint64_t customer = 0;
    bool present = false;
  };
  std::map<uint64_t, Expect> expected;
  for (uint64_t d = 0; d < kDistrictsPerWarehouse; ++d) {
    uint64_t oldest = ~uint64_t{0};
    cluster_->ordered_table(0, db_->new_order_table())
        ->Scan(OrderKey(0, d, 0), OrderKey(0, d, 0xffffffff),
               [&](uint64_t key, const void*) {
                 oldest = key & 0xffffffff;
                 return false;
               });
    if (oldest == ~uint64_t{0}) {
      continue;
    }
    OrderRow orow;
    ASSERT_TRUE(cluster_->ordered_table(0, db_->order_table())
                    ->Get(OrderKey(0, d, oldest), &orow));
    Expect e;
    e.customer = orow.c_id;
    e.present = true;
    cluster_->ordered_table(0, db_->order_line_table())
        ->Scan(OrderLineKey(0, d, oldest, 0), OrderLineKey(0, d, oldest, 255),
               [&](uint64_t, const void* value) {
                 OrderLineRow line;
                 std::memcpy(&line, value, sizeof(line));
                 e.amount += line.amount_cents;
                 return true;
               });
    expected[d] = e;
  }
  ASSERT_FALSE(expected.empty());

  std::map<uint64_t, int64_t> balance_before;
  for (const auto& [d, e] : expected) {
    CustomerRow cr;
    ASSERT_TRUE(cluster_->hash_table(0, db_->customer_table())
                    ->Get(CustomerKey(0, d, e.customer), &cr));
    balance_before[d] = cr.balance_cents;
  }

  ASSERT_EQ(db_->RunDelivery(&worker), txn::TxnStatus::kCommitted);

  for (const auto& [d, e] : expected) {
    CustomerRow cr;
    ASSERT_TRUE(cluster_->hash_table(0, db_->customer_table())
                    ->Get(CustomerKey(0, d, e.customer), &cr));
    EXPECT_EQ(cr.balance_cents - balance_before[d],
              static_cast<int64_t>(e.amount))
        << "district " << d;
    EXPECT_GE(cr.delivery_cnt, 1u);
  }
}

TEST_F(TpccSpecTest, ConcurrentDeliveriesNeverDoubleSettle) {
  SetUpTpcc(1, 1, SmallParams(1));
  // Two workers run delivery simultaneously; each undelivered order must
  // be settled exactly once (the chopped piece re-checks NEWORDER).
  const size_t backlog =
      cluster_->ordered_table(0, db_->new_order_table())->size();
  ASSERT_GT(backlog, 0u);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      txn::Worker worker(cluster_.get(), 0, t);
      for (int i = 0; i < 3; ++i) {
        ASSERT_NE(db_->RunDelivery(&worker), txn::TxnStatus::kAborted);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_TRUE(db_->CheckConsistency());
  // Delivered orders all have carriers; no NEWORDER row refers to a
  // carrier-assigned order.
  cluster_->ordered_table(0, db_->new_order_table())
      ->Scan(0, ~uint64_t{0}, [&](uint64_t key, const void*) {
        OrderRow orow;
        EXPECT_TRUE(
            cluster_->ordered_table(0, db_->order_table())->Get(key, &orow));
        EXPECT_EQ(orow.carrier_id, 0u);
        return true;
      });
}

TEST_F(TpccSpecTest, OrderStatusFindsTheLatestOrder) {
  SetUpTpcc(1, 1, SmallParams(1));
  txn::Worker worker(cluster_.get(), 0, 0);
  // Issue new-orders until one commits for a known customer by patching
  // the RNG is intrusive; instead verify the index invariant directly:
  // for every customer-order index entry, the referenced order exists.
  int checked = 0;
  cluster_->ordered_table(0, db_->customer_order_table())
      ->Scan(0, ~uint64_t{0}, [&](uint64_t key, const void*) {
        const uint64_t ck = key >> 24;
        const uint64_t o_id = key & 0xffffff;
        const uint64_t dk = ck >> 20;
        OrderRow orow;
        EXPECT_TRUE(cluster_->ordered_table(0, db_->order_table())
                        ->Get((dk << 32) | o_id, &orow))
            << "dangling customer-order index entry";
        ++checked;
        return checked < 200;
      });
  EXPECT_GT(checked, 0);
  // And the read path itself commits.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(db_->RunOrderStatus(&worker), txn::TxnStatus::kCommitted);
  }
}

TEST_F(TpccSpecTest, StockLevelSeesRecentOrdersOnly) {
  SetUpTpcc(1, 1, SmallParams(1));
  txn::Worker worker(cluster_.get(), 0, 0);
  // Functional check under load: run new-orders and stock-levels
  // interleaved; stock-level must always commit (read-only + dynamic
  // stock reads).
  for (int i = 0; i < 20; ++i) {
    (void)db_->RunNewOrder(&worker);
    EXPECT_EQ(db_->RunStockLevel(&worker), txn::TxnStatus::kCommitted);
  }
}

TEST_F(TpccSpecTest, ItemTableIsImmutableAndReplicated) {
  SetUpTpcc(2, 2, SmallParams(2));
  // After a burst of mixed traffic, item replicas still agree.
  txn::Worker w0(cluster_.get(), 0, 0);
  txn::Worker w1(cluster_.get(), 1, 0);
  for (int i = 0; i < 40; ++i) {
    (void)db_->RunMix(&w0);
    (void)db_->RunMix(&w1);
  }
  for (uint64_t i = 0; i < 120; i += 13) {
    ItemRow a, b;
    ASSERT_TRUE(
        cluster_->hash_table(0, db_->item_table())->Get(ItemKey(0, i), &a));
    ASSERT_TRUE(
        cluster_->hash_table(1, db_->item_table())->Get(ItemKey(1, i), &b));
    EXPECT_EQ(a.price_cents, b.price_cents);
  }
}

}  // namespace
}  // namespace workload
}  // namespace drtm
