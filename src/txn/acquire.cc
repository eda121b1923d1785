#include "src/txn/acquire.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "src/common/clock.h"
#include "src/htm/htm.h"
#include "src/rdma/phase_scatter.h"
#include "src/stat/metrics.h"
#include "src/stat/timer.h"
#include "src/store/kv_layout.h"
#include "src/store/remote_kv.h"
#include "src/txn/lock_state.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace txn {

namespace {

constexpr int kWaitTriesLimit = 4096;
constexpr int kWriteBackRetries = 2000;

void SleepUs(uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// Takes `raw` (a record's header and value) as the request's image when
// its header still names the request's key; false on a recycled entry.
bool TakeImage(LockRequest& r, const std::vector<uint8_t>& raw) {
  store::EntryHeader header;
  std::memcpy(&header, raw.data(), sizeof(header));
  if (header.key != r.key) {
    return false;
  }
  r.version = header.version;
  r.buf.assign(raw.begin() + sizeof(header), raw.end());
  r.fetched = true;
  return true;
}

// The phase timer a waiting acquisition is charged to.
uint32_t WaitTimer(bool exclusive) {
  stat::Registry& reg = stat::Registry::Global();
  static const uint32_t lock = reg.TimerId("phase.lock_acquire_ns");
  static const uint32_t lease = reg.TimerId("phase.lease_wait_ns");
  return exclusive ? lock : lease;
}

}  // namespace

bool GateAllows(Cluster& cluster, int table, uint64_t key) {
  Cluster::ElasticHooks* hooks = cluster.elastic_hooks();
  return hooks == nullptr || hooks->AllowAcquire(table, key);
}

bool WriteUntilRecovered(rdma::Fabric& fabric, int node, uint64_t offset,
                         const void* src, size_t len) {
  for (int attempt = 0; attempt < kWriteBackRetries; ++attempt) {
    if (fabric.Write(node, offset, src, len) == rdma::OpStatus::kOk) {
      return true;
    }
    SleepUs(1000);
  }
  return false;
}

// A request's next move on its state word, and the word it last saw.
struct Acquirer::Step {
  enum Op : uint8_t {
    kDone,     // held, or nothing to acquire
    kProbe,    // read the word
    kCas,      // CAS it from `expected` to our lock or lease
    kRecheck,  // a lease blocks a writer: re-judge `observed` on the clock
  };
  Op op = kDone;
  uint64_t expected = kStateInit;
  uint64_t observed = 0;
  bool lost = false;  // a CAS of ours has lost a race
  // The record's header and value, read behind this round's verb;
  // `image_read` once that READ completed.
  std::vector<uint8_t> image;
  bool image_read = false;
};

// One overlapped scatter round. Each verb's wr_id is its step's address,
// so a completion finds its step directly; the image READ behind it
// carries the same address with its low bit set.
class Acquirer::Round {
 public:
  Round(rdma::Fabric& fabric, const stat::ScatterPhaseIds& ids)
      : scatter_(fabric, &ids) {}

  // Posts the step's verb on the record's queue — a CAS to `*desired`,
  // or a probe READ when `desired` is null — and behind it, unless
  // `image_len` is 0, a READ of the record's header and value. The queue
  // executes in post order, so the image is read after the verb acted.
  void Post(const LockRequest& r, Step& step, const uint64_t* desired,
            size_t image_len) {
    const rdma::WrId id = reinterpret_cast<uintptr_t>(&step);
    const uint64_t state_off = r.entry_off + store::kEntryStateOffset;
    if (desired != nullptr) {
      scatter_.PostCas(r.node, id, state_off, step.expected, *desired);
    } else {
      scatter_.PostRead(r.node, id, state_off, &step.observed,
                        sizeof(step.observed));
    }
    if (image_len == 0) {
      return;
    }
    step.image.resize(image_len);
    scatter_.PostRead(r.node, id | kImageTag, r.entry_off, step.image.data(),
                      image_len);
  }

  // Rings every target's doorbell, then records each CAS's observed
  // word. A failed verb ends its step; returns false if any did. A
  // failed image READ only leaves its record for Prefetch.
  bool Gather() {
    std::vector<rdma::Completion> comps;
    scatter_.Gather(&comps);
    bool ok = true;
    for (const rdma::Completion& comp : comps) {
      if ((comp.wr_id & kImageTag) != 0) {
        reinterpret_cast<Step*>(comp.wr_id & ~kImageTag)->image_read =
            comp.status == rdma::OpStatus::kOk;
        continue;
      }
      Step& step = *reinterpret_cast<Step*>(comp.wr_id);
      if (comp.status != rdma::OpStatus::kOk) {
        step.op = Step::kDone;
        ok = false;
      } else if (step.op == Step::kCas) {
        step.observed = comp.observed;
      }
    }
    return ok;
  }

 private:
  static constexpr rdma::WrId kImageTag = 1;
  static_assert(alignof(Step) > kImageTag, "wr_id tag needs a free bit");

  rdma::PhaseScatter scatter_;
};

Acquirer::Acquirer(Worker* worker, uint64_t lease_end, uint64_t lease_us)
    : worker_(worker),
      cluster_(worker->cluster()),
      cfg_(worker->cluster().config()),
      node_(worker->node()),
      glob_(worker->cluster().fabric().atomic_level() ==
            rdma::AtomicLevel::kGlob),
      lease_end_(lease_end),
      lease_us_(lease_us) {}

void Acquirer::Route(LockRequest& r) const {
  r.node = cluster_.PartitionOf(r.table, r.key);
  r.local = r.node == node_;
  r.fetched = false;
}

bool Acquirer::Resolve(const std::vector<LockRequest*>& reqs) {
  // One RemoteKv per remote request (geometry is per <node, table>); the
  // scatter keeps one queue per target node, so all chains walk in
  // lockstep with one overlapped doorbell per node per round.
  std::vector<std::unique_ptr<store::RemoteKv>> clients;
  std::vector<store::RemoteKv::LookupTask> tasks;
  std::vector<LockRequest*> remote;
  for (LockRequest* r : reqs) {
    store::ClusterHashTable* host = cluster_.hash_table(r->node, r->table);
    if (r->local) {
      r->entry_off = host->FindEntry(r->key);
      r->found = r->entry_off != store::kInvalidOffset;
      continue;
    }
    clients.push_back(std::make_unique<store::RemoteKv>(
        &cluster_.fabric(), r->node, host->geometry(),
        cluster_.cache(node_, r->node)));
    store::RemoteKv::LookupTask task;
    task.client = clients.back().get();
    task.key = r->key;
    tasks.push_back(std::move(task));
    remote.push_back(r);
  }
  if (!tasks.empty()) {
    rdma::PhaseScatter scatter(cluster_.fabric(), &stat::ScatterLookupIds());
    store::RemoteKv::ScatterLookup(scatter, &tasks);
  }
  for (size_t t = 0; t < tasks.size(); ++t) {
    // A failed chain READ leaves the key's presence unknown: reading it
    // as absent would turn a NIC fault into a user-visible miss.
    if (tasks[t].result.fetch_failed ||
        !cluster_.fabric().IsAlive(remote[t]->node)) {
      return false;
    }
    remote[t]->found = tasks[t].result.found;
    remote[t]->entry_off = tasks[t].result.entry_off;
  }
  return true;
}

uint64_t* Acquirer::StatePtr(const LockRequest& r) const {
  return cluster_.hash_table(r.node, r.table)->StatePtr(r.entry_off);
}

size_t Acquirer::ImageBytes(const LockRequest& r) const {
  return sizeof(store::EntryHeader) + cluster_.table(r.table).value_size;
}

// The engine's single CAS entry point (drtm-lint EL01's acquire
// primitive): a processor CAS on a local record when GLOB-level NICs keep
// it coherent with RDMA CAS (§6.3), answered at once; otherwise an RDMA
// CAS, posted on `round` with the record's READ behind it, or issued as a
// scalar verb.
rdma::OpStatus Acquirer::StateCas(const LockRequest& r, Step& step,
                                  Round* round) {
  const uint64_t desired =
      r.exclusive ? MakeWriteLocked(static_cast<uint8_t>(node_))
                  : MakeLease(lease_end_);
  if (r.local && glob_) {
    SpinFor(cfg_.latency.LocalCasNs());
    // drtm-lint: allow(TX03 local stand-in for an RDMA CAS verb on GLOB-coherent NICs)
    step.observed = htm::StrongCas64(StatePtr(r), step.expected, desired);
    return rdma::OpStatus::kOk;
  }
  if (round != nullptr) {
    // A local record's image is a strong CPU read in Prefetch instead.
    round->Post(r, step, &desired, r.local ? 0 : ImageBytes(r));
    return rdma::OpStatus::kOk;
  }
  return cluster_.fabric().Cas(r.node,
                               r.entry_off + store::kEntryStateOffset,
                               step.expected, desired, &step.observed);
}

rdma::OpStatus Acquirer::IssueStep(const LockRequest& r, Step& step,
                                   Round* round) {
  if (step.op == Step::kCas) {
    return StateCas(r, step, round);
  }
  if (r.local) {
    // drtm-lint: allow(TX03 lease probe outside any HTM region, stands in for a one-sided RDMA READ)
    step.observed = htm::StrongLoad(StatePtr(r));
    return rdma::OpStatus::kOk;
  }
  if (round != nullptr) {
    round->Post(r, step, nullptr, ImageBytes(r));
    return rdma::OpStatus::kOk;
  }
  return cluster_.fabric().Read(r.node, r.entry_off + store::kEntryStateOffset,
                                &step.observed, sizeof(step.observed));
}

// The one decode of an observed state word (Fig. 4). Takes the request
// when our CAS landed or a healthy lease can be shared; otherwise sets
// the next step and reports whether it must wait first.
Acquirer::Outcome Acquirer::Advance(LockRequest& r, Step& step) {
  const uint64_t observed = step.observed;
  if (step.op == Step::kCas && observed == step.expected) {
    if (r.exclusive) {
      r.locked = true;
    } else {
      r.leased = true;
      r.lease_end = lease_end_;
    }
    step.op = Step::kDone;
    return Outcome::kHeld;
  }
  step.lost |= step.op == Step::kCas;
  step.op = Step::kCas;
  step.expected = kStateInit;
  if (IsWriteLocked(observed)) {
    return Outcome::kBlocked;  // CAS from INIT once the holder unlocks
  }
  if (observed == kStateInit) {
    return Outcome::kNext;
  }
  const uint64_t end = LeaseEnd(observed);
  const uint64_t now = cluster_.synctime().ReadStrong(node_);
  if (!r.exclusive && end > now + 2 * cfg_.delta_us + lease_us_ / 8) {
    // Read-read sharing: adopt the lease and its end time, CAS-free.
    r.leased = true;
    r.lease_end = end;
    step.op = Step::kDone;
    return Outcome::kHeld;
  }
  if (r.exclusive && !LeaseExpired(end, now, cfg_.delta_us)) {
    step.op = Step::kRecheck;  // writers wait a lease out (Fig. 5)
    return Outcome::kBlocked;
  }
  // Steal an expired lease, or renew a short one in place (extending a
  // lease only delays writers; readers of the old end stay valid).
  step.expected = observed;
  return Outcome::kNext;
}

Acquirer::Result Acquirer::TryAll(const std::vector<LockRequest*>& reqs,
                                  const stat::ScatterPhaseIds& ids) {
  std::vector<Step> steps(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const LockRequest& r = *reqs[i];
    if (r.found && !r.chain_locked) {
      steps[i].op = r.exclusive ? Step::kCas : Step::kProbe;
    }
  }
  Result result = Result::kOk;
  for (int round = 0; result == Result::kOk; ++round) {
    bool pending = false;
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (steps[i].op == Step::kDone) {
        continue;
      }
      pending = true;
      // The freeze gate guards every CAS: installing, renewing or
      // stealing on a frozen bucket would outlive the migration's lease
      // revocation. Sharing a lease extends nothing and stays allowed.
      if (steps[i].op == Step::kCas &&
          !GateAllows(cluster_, reqs[i]->table, reqs[i]->key)) {
        return Result::kConflict;
      }
    }
    if (!pending) {
      break;
    }
    if (round == kWaitTriesLimit) {
      return Result::kConflict;
    }
    // First attempts ride one overlapped round; a CAS retried after
    // losing a race (contention only) goes out as its own doorbell.
    Round batch(cluster_.fabric(), ids);
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (steps[i].op != Step::kDone &&
          IssueStep(*reqs[i], steps[i], steps[i].lost ? nullptr : &batch) !=
              rdma::OpStatus::kOk) {
        steps[i].op = Step::kDone;
        result = Result::kNodeDown;
      }
    }
    if (!batch.Gather()) {
      result = Result::kNodeDown;
    }
    // Take every request whose verb succeeded before acting on any
    // failure, so the caller's release sees all of them.
    for (size_t i = 0; i < reqs.size(); ++i) {
      Step& step = steps[i];
      if (step.op == Step::kDone) {
        continue;
      }
      const Outcome outcome = Advance(*reqs[i], step);
      // An image is safe only behind the verb that took the request: it
      // was read under our lock, or under a shared lease too long to
      // expire before commit confirms it. A recycled entry's image is
      // left for Prefetch to find.
      if (outcome == Outcome::kHeld && step.image_read) {
        TakeImage(*reqs[i], step.image);
      }
      step.image_read = false;
      if (outcome != Outcome::kBlocked) {
        continue;
      }
      if (round == 0 && reqs[i]->exclusive) {
        // A lock holder is usually mid-commit, one write-back from
        // releasing: a lock's first CAS that lost gets one immediate
        // second try from INIT before the set fails.
        step.op = Step::kCas;
        step.expected = kStateInit;
      } else if (result == Result::kOk) {
        result = Result::kConflict;
      }
    }
  }
  return result;
}

Acquirer::Result Acquirer::AcquireInOrder(std::vector<LockRequest*> reqs) {
  std::sort(reqs.begin(), reqs.end(),
            [](const LockRequest* a, const LockRequest* b) {
              return a->table != b->table ? a->table < b->table
                                          : a->key < b->key;
            });
  for (LockRequest* r : reqs) {
    if (!r->found || r->chain_locked) {
      continue;
    }
    stat::ScopedTimer phase(WaitTimer(r->exclusive));
    Step step;
    step.op = r->exclusive ? Step::kCas : Step::kProbe;
    for (int tries = 0; step.op != Step::kDone;) {
      if (step.op == Step::kCas && !GateAllows(cluster_, r->table, r->key)) {
        return Result::kConflict;
      }
      if (step.op != Step::kRecheck &&
          IssueStep(*r, step, nullptr) != rdma::OpStatus::kOk) {
        return Result::kNodeDown;
      }
      if (Advance(*r, step) != Outcome::kBlocked) {
        continue;
      }
      if (++tries > kWaitTriesLimit) {
        return Result::kConflict;
      }
      // A lease is waited out on the clock alone; a lock holder is
      // mid-commit, so retry its CAS after a jittered pause.
      SleepUs(step.op == Step::kRecheck
                  ? 20
                  : 10 + worker_->backoff_rng().NextBounded(50));
    }
  }
  return Result::kOk;
}

Acquirer::Result Acquirer::Prefetch(const std::vector<LockRequest*>& reqs) {
  std::vector<std::vector<uint8_t>> raws(reqs.size());
  {
    rdma::PhaseScatter scatter(cluster_.fabric(), &stat::ScatterPrefetchIds());
    for (size_t i = 0; i < reqs.size(); ++i) {
      const LockRequest& r = *reqs[i];
      if (r.fetched || !r.found || !(r.locked || r.leased || r.chain_locked)) {
        continue;
      }
      raws[i].resize(ImageBytes(r));
      if (r.local) {
        // drtm-lint: allow(TX03 read of a held local record outside any HTM region, stands in for a one-sided RDMA READ)
        htm::StrongRead(raws[i].data(),
                        cluster_.hash_table(r.node, r.table)
                            ->EntryPtr(r.entry_off),
                        raws[i].size());
      } else {
        scatter.PostRead(r.node, i, r.entry_off, raws[i].data(),
                         raws[i].size());
      }
    }
    std::vector<rdma::Completion> comps;
    scatter.Gather(&comps);
    for (const rdma::Completion& comp : comps) {
      if (comp.status != rdma::OpStatus::kOk) {
        return Result::kNodeDown;
      }
    }
  }
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (raws[i].empty()) {
      continue;
    }
    LockRequest& r = *reqs[i];
    if (!TakeImage(r, raws[i])) {
      if (r.locked && !DropLock(r)) {
        return Result::kNodeDown;  // the lock stays held for recovery
      }
      r.leased = false;
      r.found = false;
      return Result::kConflict;
    }
  }
  return Result::kOk;
}

bool Acquirer::LeasesValid(const std::vector<LockRequest*>& reqs) const {
  const uint64_t now = cluster_.synctime().ReadStrong(node_);
  for (const LockRequest* r : reqs) {
    if (r->leased && !LeaseValid(r->lease_end, now, cfg_.delta_us)) {
      return false;
    }
  }
  return true;
}

bool Acquirer::Release(const std::vector<LockRequest*>& reqs) {
  bool landed = true;
  for (LockRequest* r : reqs) {
    r->leased = false;
    if (r->locked) {
      landed &= DropLock(*r);
    }
  }
  return landed;
}

bool Acquirer::DropLock(LockRequest& r) {
  bool landed = true;
  if (r.local && glob_) {
    // drtm-lint: allow(TX03 lock release on a state word we own, stands in for an RDMA WRITE)
    htm::StrongStore(StatePtr(r), kStateInit);
  } else {
    // Recovery also clears the locks of a dead holder from its
    // lock-ahead log.
    const uint64_t init = kStateInit;
    landed = WriteUntilRecovered(cluster_.fabric(), r.node,
                                 r.entry_off + store::kEntryStateOffset,
                                 &init, sizeof(init));
  }
  r.locked = false;
  return landed;
}

}  // namespace txn
}  // namespace drtm
