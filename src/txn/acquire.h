// The lock/lease acquisition engine: every lock and lease the transaction
// layer takes on a record's state word (Fig. 4) goes through here — the
// HTM Start phase, the 2PL fallback and its dynamic reads, chopped-chain
// locks (§4.6) and read-only transactions (Fig. 8).
//
// The moves on the word are few (§4.2–4.5, §6.2–6.3): lock it, share a
// healthy lease, steal an expired one, renew a short one, or wait it
// out. A lock is one CAS from INIT. A lease is first probed — a strong
// load on a local record, an RDMA READ on a remote one — and a healthy
// lease is shared without any CAS; a lease CAS is issued only on INIT or
// on a short or expired lease. Every CAS is a processor CAS on a local
// record when the NIC offers GLOB-level atomicity, an RDMA CAS otherwise
// (§6.3), and the elastic freeze gate is consulted before each one.
//
// A held record's image (header and value) comes with its acquisition
// where it can: each remote probe or CAS posted on a TryAll round carries
// a READ of the record behind it on the same in-order queue. Prefetch
// reads only what is still unfetched, a local record by a strong CPU
// read like its probe and write-back, so no local image crosses the NIC.
//
// Two modes drive those moves:
//   TryAll         non-waiting, for the HTM Start phase and read-only
//                  transactions: each round posts every unsettled
//                  request's first attempt on one overlapped PhaseScatter
//                  round, each remote verb followed by its record's READ
//                  (a CAS retried after losing a race goes out as its
//                  own one-WQE doorbell, Fabric::Cas, with no READ). A
//                  lock blocked on its first CAS gets one immediate
//                  retry; after that, any request that would have to
//                  wait fails the whole set (acquiring out of order is
//                  then still deadlock-free: nothing waits).
//   AcquireInOrder waiting, for the 2PL fallback, its dynamic reads and
//                  chain locks: requests are taken one at a time in the
//                  global <table, key> order, waiting out lock holders
//                  and leases — the order is what makes waiting
//                  deadlock-free (§6.2).
#ifndef SRC_TXN_ACQUIRE_H_
#define SRC_TXN_ACQUIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/stat/scatter_stats.h"

namespace drtm {
namespace txn {

class Cluster;
struct ClusterConfig;
class Worker;

// One record to acquire: what is wanted, where it lives and what is
// held. Transaction refs, read-only refs and chain locks are all this
// type.
struct LockRequest {
  int table = 0;
  uint64_t key = 0;
  // Wants the exclusive write lock; otherwise a shared read lease.
  bool exclusive = false;
  // Already held by the enclosing chopped-transaction chain: never
  // acquired or released here, only prefetched.
  bool chain_locked = false;
  // Routing and resolution (Acquirer::Route, Acquirer::Resolve).
  int node = -1;
  bool local = false;
  bool found = false;
  uint64_t entry_off = ~uint64_t{0};
  // Held by us.
  bool locked = false;
  bool leased = false;
  uint64_t lease_end = 0;
  // The record's image, read by the round that acquired it (TryAll) or by
  // Acquirer::Prefetch. `fetched` marks it as this attempt's; Route
  // clears it, so no image outlives the attempt that read it.
  bool fetched = false;
  uint32_t version = 0;
  std::vector<uint8_t> buf;
};

// Pointers to every request in `items` (a vector of LockRequest or of a
// type derived from it).
template <typename T>
std::vector<LockRequest*> RequestsOf(std::vector<T>& items) {
  std::vector<LockRequest*> out;
  out.reserve(items.size());
  for (T& item : items) {
    out.push_back(&item);
  }
  return out;
}

// The elastic freeze gate: false while a live migration has the key's
// bucket frozen mid-switch. Gated acquisitions fail as conflicts; the
// retry re-resolves the owner and lands on the new one after the flip.
bool GateAllows(Cluster& cluster, int table, uint64_t key);

// Retries a WRITE until the target accepts it: after a commit the
// surviving workers wait for a dead target's recovery (Fig. 7(d)).
// Returns false when the target stayed down past the retry budget.
bool WriteUntilRecovered(rdma::Fabric& fabric, int node, uint64_t offset,
                         const void* src, size_t len);

class Acquirer {
 public:
  enum class Result { kOk, kConflict, kNodeDown };

  // Leases this engine installs or renews end at `lease_end`; an existing
  // lease is shared only while more than 2*DELTA + lease_us/8 of it
  // remains, enough to confirm it at commit.
  explicit Acquirer(Worker* worker, uint64_t lease_end = 0,
                    uint64_t lease_us = 0);

  // Sets the request's owner node from the current routing (a live
  // migration may move it between attempts) and drops its image.
  void Route(LockRequest& r) const;
  // Resolves every request's entry offset: local records by a direct
  // lookup, remote chains walked in lockstep by one scatter lookup.
  // Returns false if a target is dead or a chain READ failed.
  bool Resolve(const std::vector<LockRequest*>& reqs);

  // Non-waiting batched acquisition of every found request (see above).
  // A remote request held by a round's batched verb also takes the image
  // read behind it, unless that READ failed or found the entry recycled.
  // On kConflict or kNodeDown some requests may be held; the caller
  // releases them.
  Result TryAll(const std::vector<LockRequest*>& reqs,
                const stat::ScatterPhaseIds& ids);
  // Waiting acquisition in global <table, key> order. On failure the
  // requests acquired so far stay held; the caller releases them.
  Result AcquireInOrder(std::vector<LockRequest*> reqs);

  // Reads the header and value of every held (or chain-locked) request
  // not yet fetched: a local record by a strong CPU read, remote ones in
  // one overlapped scatter round. kConflict when an entry was deleted
  // (and possibly recycled) under us: its lock is dropped and it is
  // marked not found, so the retry re-resolves it (kNodeDown if that
  // unlock cannot land).
  Result Prefetch(const std::vector<LockRequest*>& reqs);

  // True when every lease held in `reqs` is still valid at one instant,
  // now: the confirmation that makes leased reads serializable.
  bool LeasesValid(const std::vector<LockRequest*>& reqs) const;

  // Drops every held lock; leases simply expire. Returns false when some
  // unlock did not land (see DropLock).
  bool Release(const std::vector<LockRequest*>& reqs);
  // Returns false when the unlock could not land on a dead target; the
  // lock then stays held until recovery releases it.
  bool DropLock(LockRequest& r);

 private:
  struct Step;
  class Round;
  enum class Outcome { kHeld, kNext, kBlocked };

  rdma::OpStatus IssueStep(const LockRequest& r, Step& step, Round* round);
  rdma::OpStatus StateCas(const LockRequest& r, Step& step, Round* round);
  Outcome Advance(LockRequest& r, Step& step);
  uint64_t* StatePtr(const LockRequest& r) const;
  // Bytes of a record's image: its header and value.
  size_t ImageBytes(const LockRequest& r) const;

  Worker* worker_;
  Cluster& cluster_;
  const ClusterConfig& cfg_;
  const int node_;
  const bool glob_;
  const uint64_t lease_end_;
  const uint64_t lease_us_;
};

}  // namespace txn
}  // namespace drtm

#endif  // SRC_TXN_ACQUIRE_H_
