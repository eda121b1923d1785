// One-sided RDMA client for a remote DrTM-KV table.
//
// Lookup walks the remote bucket chain (each READ fetches all 8
// candidate slots — the property that gives cluster chaining its low
// lookup cost in Table 4), optionally short-circuited by the location
// cache. The walk is pipelined: chain-shape hints remembered by the
// cache (LocationCache::NextHint) let the client post the predicted
// next bucket's READ in the same doorbell batch as the current one
// (rdma::PhaseScatter), so a k-deep chain costs one doorbell instead of
// k serialized round trips whenever the shape was seen before. A
// misprediction only wastes the speculative READ — correctness never
// depends on a hint, because every fetched bucket is re-examined for
// the key and the true chain pointer. A lookup of one key is a one-task
// ScatterLookup. A hit through the cache is validated by incarnation
// checking against the fetched entry; a stale location degrades to a
// cache miss and a refetch, never to a wrong answer.
#ifndef SRC_STORE_REMOTE_KV_H_
#define SRC_STORE_REMOTE_KV_H_

#include <cstdint>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/rdma/phase_scatter.h"
#include "src/store/kv_layout.h"
#include "src/store/location_cache.h"

namespace drtm {
namespace store {

struct RemoteEntryRef {
  bool found = false;
  // A chain READ failed (dead or faulted target): not-found then means
  // "unknown", not "absent".
  bool fetch_failed = false;
  uint64_t entry_off = kInvalidOffset;
  uint32_t incarnation = 0;
  int rdma_reads = 0;  // READs spent on this lookup (bench instrumentation)
  int rdma_doorbells = 0;  // batched submissions those READs rode on
};

// Snapshot of a remote entry: header plus value bytes.
struct RemoteEntrySnapshot {
  EntryHeader header;
  std::vector<uint8_t> value;
};

class RemoteKv {
 public:
  // cache may be nullptr (uncached client, as in Table 4).
  RemoteKv(rdma::Fabric* fabric, int target_node, const Geometry& geometry,
           LocationCache* cache = nullptr);

  // Locates the entry for key. On a found result, entry_off addresses the
  // entry in the target node's region. `bypass_cache` distrusts cached
  // bucket contents (Get's retry after a stale cached location).
  RemoteEntryRef Lookup(uint64_t key, bool bypass_cache = false);

  // Reads header + value in one RDMA READ. Returns false if the node is
  // down.
  bool ReadEntry(uint64_t entry_off, RemoteEntrySnapshot* out);

  // Reads only the value bytes.
  bool ReadValue(uint64_t entry_off, void* out);

  // Combined GET: lookup, fetch, incarnation check (retries once on a
  // stale cached location).
  bool Get(uint64_t key, void* value_out);

  int target_node() const { return target_; }
  const Geometry& geometry() const { return geo_; }

  // One key's lookup in a multi-target scatter round: `client` is the
  // RemoteKv for the key's host node (clients may repeat across tasks).
  struct LookupTask {
    RemoteKv* client = nullptr;
    uint64_t key = 0;
    bool bypass_cache = false;
    RemoteEntryRef result;
  };

  // Multi-target lookup: walks every task's bucket chain in lockstep.
  // Each round posts each unfinished walk's next predicted run of chain
  // READs on its host's queue in `scatter`, rings one doorbell per
  // target (overlapped — see rdma::PhaseScatter), then consumes the
  // fetched buckets. A transaction resolving keys on k nodes pays
  // ~max(chain depth) overlapped rounds instead of the sum of every
  // node's walk. A task whose READ fails reports not-found with
  // fetch_failed set. Each READ's wr_id is its task's index.
  static void ScatterLookup(rdma::PhaseScatter& scatter,
                            std::vector<LookupTask>* tasks);

 private:
  struct Walk;  // resumable chain-walk state (defined in remote_kv.cc)

  // Chain-walk steps. A walk round is: serve from cache (may finish the
  // walk), predict the next speculative run, post the run's uncached
  // READs, then — after the doorbell — consume the fetched buckets (may
  // finish or restart).
  bool WalkServeFromCache(Walk& w);  // true when the walk finished
  void WalkPredictRun(Walk& w);
  size_t WalkPostRun(Walk& w, rdma::PhaseScatter& scatter, rdma::WrId wr_id);
  bool WalkConsumeRun(Walk& w);  // true when finished

  rdma::Fabric* fabric_;
  int target_;
  Geometry geo_;
  LocationCache* cache_;
};

}  // namespace store
}  // namespace drtm

#endif  // SRC_STORE_REMOTE_KV_H_
