// Configurable workload runner: pick a workload, cluster shape, and
// duration from the command line and get a full statistics report.
//
//   ./workload_cli [--workload=tpcc|smallbank|ycsb-a|ycsb-b|ycsb-c]
//                  [--nodes=N] [--workers=W] [--ms=D] [--latency=S]
//                  [--logging]
//
// Example: ./workload_cli --workload=smallbank --nodes=3 --workers=2
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/workload/driver.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"

namespace {

using namespace drtm;

struct Options {
  std::string workload = "smallbank";
  int nodes = 2;
  int workers = 2;
  uint64_t ms = 1000;
  double latency_scale = 0.1;
  bool logging = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "workload", &value)) {
      options.workload = value;
    } else if (ParseFlag(argv[i], "nodes", &value)) {
      options.nodes = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "workers", &value)) {
      options.workers = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "ms", &value)) {
      options.ms = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "latency", &value)) {
      options.latency_scale = std::atof(value.c_str());
    } else if (std::strcmp(argv[i], "--logging") == 0) {
      options.logging = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return options;
}

void Report(const workload::RunResult& result) {
  std::printf("throughput      : %.0f txns/sec\n", result.Throughput());
  std::printf("committed       : %llu of %llu attempts (abort %.2f%%)\n",
              static_cast<unsigned long long>(result.committed),
              static_cast<unsigned long long>(result.attempted),
              result.AbortRate() * 100);
  std::printf("latency (us)    : %s\n", result.latency_us.Summary().c_str());
  const stat::Snapshot& s = result.stats_delta;
  const auto count = [&](const char* name) {
    return static_cast<unsigned long long>(s.Counter(name));
  };
  std::printf(
      "txn layer       : start-conflicts %llu, htm aborts "
      "(conflict/capacity/lock/lease) %llu/%llu/%llu/%llu, fallbacks %llu\n",
      count("txn.start_conflict"), count("txn.conflict_abort"),
      count("txn.capacity_abort"), count("txn.lock_abort"),
      count("txn.lease_abort"), count("txn.fallback"));
  std::printf("read-only       : %llu committed, %llu retries\n",
              count("txn.readonly.commit"), count("txn.readonly.retry"));
  std::printf("HTM             : %llu commits, %llu aborts\n",
              count("htm.commit"), count("htm.abort.total"));
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);

  txn::ClusterConfig config;
  config.num_nodes = options.nodes;
  config.workers_per_node = options.workers;
  config.region_bytes = 96 << 20;
  config.latency = rdma::LatencyModel::Calibrated(options.latency_scale);
  config.logging = options.logging;
  txn::Cluster cluster(config);

  workload::RunOptions run;
  run.nodes = options.nodes;
  run.workers_per_node = options.workers;
  run.warmup_ms = options.ms / 4;
  run.duration_ms = options.ms;

  std::printf("workload=%s nodes=%d workers/node=%d duration=%llums "
              "latency-scale=%.2f logging=%s\n",
              options.workload.c_str(), options.nodes, options.workers,
              static_cast<unsigned long long>(options.ms),
              options.latency_scale, options.logging ? "on" : "off");

  if (options.workload == "tpcc") {
    workload::TpccDb::Params params;
    params.warehouses = options.nodes * 2;
    params.customers_per_district = 100;
    params.items = 400;
    workload::TpccDb db(&cluster, params);
    cluster.Start();
    db.Load();
    const auto result =
        workload::RunWorkers(&cluster, run, [&](txn::Worker& worker) {
          return db.RunMix(&worker).status == txn::TxnStatus::kCommitted;
        });
    Report(result);
    std::printf("consistency     : %s\n",
                db.CheckConsistency() ? "PASS" : "FAIL");
  } else if (options.workload == "smallbank") {
    workload::SmallBankDb::Params params;
    workload::SmallBankDb db(&cluster, params);
    cluster.Start();
    db.Load();
    const auto result =
        workload::RunWorkers(&cluster, run, [&](txn::Worker& worker) {
          return db.RunMix(&worker).status == txn::TxnStatus::kCommitted;
        });
    Report(result);
  } else if (options.workload.rfind("ycsb-", 0) == 0) {
    workload::YcsbDb::Params params;
    const char mix = options.workload.back();
    params.mix = mix == 'a'   ? workload::YcsbDb::Mix::kA
                 : mix == 'b' ? workload::YcsbDb::Mix::kB
                 : mix == 'f' ? workload::YcsbDb::Mix::kF
                              : workload::YcsbDb::Mix::kC;
    workload::YcsbDb db(&cluster, params);
    cluster.Start();
    db.Load();
    const auto result = workload::RunWorkers(
        &cluster, run,
        [&](txn::Worker& worker) { return db.RunTxn(&worker).committed; });
    Report(result);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  cluster.Stop();
  return 0;
}
