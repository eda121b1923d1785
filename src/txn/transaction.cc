#include "src/txn/transaction.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "src/chaos/injector.h"
#include "src/common/clock.h"
#include "src/rdma/phase_scatter.h"
#include "src/replay/recorder.h"
#include "src/stat/metrics.h"
#include "src/stat/scatter_stats.h"
#include "src/stat/timer.h"
#include "src/store/kv_layout.h"
#include "src/txn/lock_state.h"

namespace drtm {
namespace txn {

namespace {

constexpr int kFallbackAttempts = 512;
// Start-phase (remote lock) conflicts before the HTM path gives up and
// lets the fallback serialize the transaction.
constexpr int kStartRetryLimit = 64;
// Lock-observed XABORTs (the body saw a 2PL write lock) mean the holder
// is mid-commit: the retry budget stretches by up to this many extra
// attempts, each after a stronger bounded backoff, before the abort mix
// scales it (Worker::AdaptiveLockExtraRetries).
constexpr int kLockAbortExtraRetries = 8;

void SleepUs(uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// RAII bracket around one transaction attempt so the elastic tier's
// DrainTxnWindows() can wait out every attempt that sampled hook or
// routing state from before a toggle.
class WindowGuard {
 public:
  explicit WindowGuard(Cluster& cluster)
      : cluster_(cluster), token_(cluster.BeginTxnWindow()) {}
  ~WindowGuard() { cluster_.EndTxnWindow(token_); }

  WindowGuard(const WindowGuard&) = delete;
  WindowGuard& operator=(const WindowGuard&) = delete;

 private:
  Cluster& cluster_;
  uint64_t token_;
};

// Registry ids for the transaction-layer counters and phase timers,
// resolved once per process.
struct TxnMetricIds {
  uint32_t commit = 0;
  uint32_t user_abort = 0;
  uint32_t start_conflict = 0;
  uint32_t fallback = 0;
  uint32_t exhausted = 0;
  uint32_t node_failure = 0;
  uint32_t lease_abort = 0;
  uint32_t lock_abort = 0;
  uint32_t capacity_abort = 0;
  uint32_t conflict_abort = 0;
  uint32_t ro_commit = 0;
  uint32_t ro_retry = 0;
  uint32_t lock_backoff = 0;
  uint32_t adaptive_budget_gauge = 0;
  uint32_t htm_attempt_ns = 0;
  uint32_t fallback_ns = 0;
  uint32_t lock_acquire_ns = 0;
  uint32_t lease_wait_ns = 0;
  uint32_t commit_ns = 0;
};

const TxnMetricIds& Ids() {
  static const TxnMetricIds ids = [] {
    stat::Registry& reg = stat::Registry::Global();
    TxnMetricIds t;
    t.commit = reg.CounterId("txn.commit");
    t.user_abort = reg.CounterId("txn.user_abort");
    t.start_conflict = reg.CounterId("txn.start_conflict");
    t.fallback = reg.CounterId("txn.fallback");
    t.exhausted = reg.CounterId("txn.fallback_exhausted");
    t.node_failure = reg.CounterId("txn.node_failure");
    t.lease_abort = reg.CounterId("txn.lease_abort");
    t.lock_abort = reg.CounterId("txn.lock_abort");
    t.capacity_abort = reg.CounterId("txn.capacity_abort");
    t.conflict_abort = reg.CounterId("txn.conflict_abort");
    t.ro_commit = reg.CounterId("txn.readonly.commit");
    t.ro_retry = reg.CounterId("txn.readonly.retry");
    t.lock_backoff = reg.CounterId("txn.lock_backoff");
    t.adaptive_budget_gauge = reg.GaugeId("txn.adaptive.retry_budget");
    t.htm_attempt_ns = reg.TimerId("phase.htm_attempt_ns");
    t.fallback_ns = reg.TimerId("phase.fallback_ns");
    t.lock_acquire_ns = reg.TimerId("phase.lock_acquire_ns");
    t.lease_wait_ns = reg.TimerId("phase.lease_wait_ns");
    t.commit_ns = reg.TimerId("phase.commit_ns");
    return t;
  }();
  return ids;
}

// Appends and seals the lock-ahead record naming every lock `reqs` is
// about to take (chain-held ones excepted), so recovery can release them
// if this machine dies first (§4.6). Sealing makes it recovery-visible
// before the first lock CAS lands. False when the log cannot take it
// (full even after reclaiming, or the append faulted): without the
// record a crash would strand the locks, so none may be acquired.
// `*appended` is set when a record went out (there were locks to name).
bool LogLockAhead(Worker* worker, uint64_t id,
                  const std::vector<LockRequest*>& reqs,
                  bool* appended = nullptr) {
  std::vector<LogLock> locks;
  for (const LockRequest* r : reqs) {
    if (r->exclusive && r->found && !r->chain_locked) {
      locks.push_back(LogLock{r->node, r->table, r->key,
                              r->entry_off + store::kEntryStateOffset});
    }
  }
  if (locks.empty()) {
    return true;
  }
  NvramLog* log = worker->cluster().log(worker->node());
  const std::vector<uint8_t> payload = NvramLog::EncodeLocks(locks);
  if (log->AppendReclaiming(worker->worker_id(), LogType::kLockAhead, id,
                            payload.data(), payload.size()) !=
      AppendStatus::kOk) {
    return false;
  }
  log->Externalize(worker->worker_id());
  if (appended != nullptr) {
    *appended = true;
  }
  return true;
}

}  // namespace

Worker::Worker(Cluster* cluster, int node, int worker_id)
    : cluster_(cluster),
      node_(node),
      worker_id_(worker_id),
      htm_(cluster->config().htm),
      rng_(0x5bd1e995u * static_cast<uint64_t>(node * 131 + worker_id + 7)),
      backoff_rng_(0xb5297a4db432ca99ULL ^
                   (0x9e3779b9u * static_cast<uint64_t>(node * 131 +
                                                        worker_id + 7))) {}

void Worker::WaitDurable(uint64_t txn_id) {
  if (!cluster_->config().logging) {
    return;
  }
  cluster_->log(node_)->WaitDurable(worker_id_, txn_id);
}

void Worker::Backoff(int attempt) {
  const int shift = attempt < 8 ? attempt : 8;
  const uint64_t ceiling = uint64_t{1} << shift;
  SleepUs(1 + backoff_rng_.NextBounded(ceiling));
}

void Worker::LockBackoff(int consecutive_lock_aborts) {
  // Ceiling grows 8 -> 256 us: enough for the holder's two-WRITE
  // write-back (a few us modeled) plus queueing, bounded so a stuck
  // holder still sends us to the fallback reasonably fast.
  const int shift =
      consecutive_lock_aborts < 6 ? consecutive_lock_aborts : 6;
  const uint64_t ceiling = uint64_t{4} << shift;
  SleepUs(2 + backoff_rng_.NextBounded(ceiling));
}

int Worker::MixRegime() const {
  if (abort_mix_.total() < AbortMixWindow::kMinSamples) {
    return -1;
  }
  if (abort_mix_.capacity * 2 >= abort_mix_.total()) {
    return 0;  // capacity-dominant
  }
  if ((abort_mix_.conflict + abort_mix_.lock) * 4 >=
      abort_mix_.total() * 3) {
    return 1;  // contention-dominant
  }
  return -1;
}

int Worker::AdaptiveRetryLimit() {
  const int base = cluster_->config().htm_retry_limit;
  int chosen = base;
  if (base > 0) {
    switch (MixRegime()) {
      case 0:
        chosen = std::max(1, base / 2);
        break;
      case 1:
        chosen = base * 2;
        break;
      default:
        break;
    }
  }
  stat::Registry::Global().GaugeSet(Ids().adaptive_budget_gauge, chosen);
  return chosen;
}

int Worker::AdaptiveLockExtraRetries() const {
  switch (MixRegime()) {
    case 0:
      return kLockAbortExtraRetries / 2;
    case 1:
      return kLockAbortExtraRetries * 2;
    default:
      return kLockAbortExtraRetries;
  }
}

Transaction::Transaction(Worker* worker)
    : worker_(worker),
      cluster_(worker->cluster()),
      cfg_(worker->cluster().config()) {}

int Transaction::home_node() const { return worker_->node(); }

void Transaction::AddRead(int table, uint64_t key) {
  if (Ref* existing = FindRef(table, key)) {
    (void)existing;  // write subsumes read; duplicate reads are idempotent
    return;
  }
  Ref ref;
  ref.table = table;
  ref.key = key;
  ref.value_size = cluster_.table(table).value_size;
  refs_.push_back(std::move(ref));
}

void Transaction::AddWrite(int table, uint64_t key) {
  if (Ref* existing = FindRef(table, key)) {
    existing->write = true;  // upgrade
    return;
  }
  AddRead(table, key);
  refs_.back().write = true;
}

void Transaction::MarkChainLocked(int table, uint64_t key) {
  if (Ref* ref = FindRef(table, key)) {
    ref->chain_locked = true;
  }
}

Transaction::Ref* Transaction::FindRef(int table, uint64_t key) {
  for (Ref& ref : refs_) {
    if (ref.table == table && ref.key == key) {
      return &ref;
    }
  }
  return nullptr;
}

void Transaction::SortRefs() {
  std::sort(refs_.begin(), refs_.end(), [](const Ref& a, const Ref& b) {
    return a.table != b.table ? a.table < b.table : a.key < b.key;
  });
}

// --- HTM path ----------------------------------------------------------------

Transaction::StartResult Transaction::StartPhase() {
  now_start_ = cluster_.synctime().ReadStrong(worker_->node());
  lease_end_ = now_start_ + cfg_.lease_rw_us;
  Acquirer acq = acquirer();
  std::vector<LockRequest*> remote;
  for (Ref& ref : refs_) {
    acq.Route(ref);
    if (!ref.local) {
      remote.push_back(&ref);
    }
  }
  if (remote.empty()) {
    return StartResult::kOk;  // local records are guarded by HTM alone
  }
  if (!acq.Resolve(remote)) {
    return StartResult::kNodeDown;
  }
  // Chain-locked refs are excluded from the lock-ahead record: their
  // lock belongs to the chain (logged once under the chain id), and a
  // per-piece entry would let recovery release it after a piece crash.
  if (cfg_.logging &&
      !LogLockAhead(worker_, txn_id_, remote, &obligation_open_)) {
    return StartResult::kConflict;
  }

  // Chain-locked refs are only prefetched: the chain holds their lock.
  StartResult result;
  {
    stat::ScopedTimer phase(Ids().lock_acquire_ns);
    result = acq.TryAll(remote, stat::ScatterStartLockIds());
  }
  return result == StartResult::kOk ? acq.Prefetch(remote) : result;
}

void Transaction::ConfirmLeasesInHtm() {
  bool any_lease = false;
  for (const Ref& ref : refs_) {
    if (ref.leased) {
      any_lease = true;
      break;
    }
  }
  if (!any_lease) {
    return;
  }
  // Fresh softtime via a *transactional* read: this is the only place the
  // timer thread's word enters the HTM working set (Fig. 11(c)).
  const uint64_t now =
      worker_->htm().Load(cluster_.synctime().Word(worker_->node()));
  for (const Ref& ref : refs_) {
    if (ref.leased && !LeaseValid(ref.lease_end, now, cfg_.delta_us)) {
      worker_->htm().Abort(kCodeLease);
    }
  }
}

void Transaction::RecordWalUpdate(const Ref& ref, const void* value) {
  if (replay::Armed()) {
    // Wrapping sum of per-update digests. StageWal is its only caller and
    // walks the refs in one order on both paths; the sum stays
    // order-insensitive anyway, so the digest depends on the logical
    // updates alone. Deliberately excludes entry_off — entry allocation
    // is not replay-stable.
    replay_wal_sum_ +=
        replay::WalUpdateDigest(ref.node, ref.table, ref.key,
                                ref.version + 1, value, ref.value_size);
  }
  if (!cfg_.logging) {
    return;
  }
  LogUpdate update;
  update.node = ref.node;
  update.table = ref.table;
  update.key = ref.key;
  update.entry_off = ref.entry_off;
  update.version = ref.version + 1;
  update.value_len = ref.value_size;
  NvramLog::EncodeUpdate(&wal_buffer_, update, value);
}

std::vector<replay::WriteRec> Transaction::ReplayGatherWrites() const {
  std::vector<replay::WriteRec> writes;
  for (const Ref& ref : refs_) {
    if (ref.dirty) {
      writes.push_back(replay::WriteRec{ref.node, ref.table, ref.key,
                                        ref.version + 1});
    }
  }
  return writes;
}

// Split from the fallback variant on purpose: this one runs inside the
// HTM region, so it must only touch thread-local recorder state (no ring
// mutex on an abortable path).
void Transaction::ReplayStageCommitHtm() {
  std::vector<replay::WriteRec> writes = ReplayGatherWrites();
  if (writes.empty()) {
    // Zero-write commit (e.g. smallbank's insufficient-funds success):
    // nothing observable changed, so there is nothing to validate.
    return;
  }
  replay::Recorder::Global().StageCommit(txn_id_, std::move(writes),
                                         replay_wal_sum_);
}

void Transaction::ReplayRecordFallbackCommit() {
  std::vector<replay::WriteRec> writes = ReplayGatherWrites();
  if (writes.empty()) {
    return;
  }
  replay::Recorder::Global().RecordFallbackCommit(txn_id_, std::move(writes),
                                                  replay_wal_sum_);
}

bool Transaction::StageWal() {
  wal_buffer_.clear();
  replay_wal_sum_ = 0;
  if (!cfg_.logging && !replay::Armed()) {
    return false;
  }
  std::vector<uint8_t> image;
  for (const Ref& ref : refs_) {
    if (!ref.dirty) {
      continue;
    }
    const void* value = ref.buf.data();
    if (ref.applied) {
      // Written in place: the transactional read overlays the region's
      // buffered writes, so it sees every slice the body wrote. It adds
      // no write lines, so the region's write capacity is unchanged.
      image.resize(ref.value_size);
      worker_->htm().Read(
          image.data(),
          cluster_.hash_table(ref.node, ref.table)->ValuePtr(ref.entry_off),
          ref.value_size);
      value = image.data();
    }
    RecordWalUpdate(ref, value);
  }
  return cfg_.logging && !wal_buffer_.empty();
}

void Transaction::WriteWalInHtm() {
  // Inside the HTM region: the record becomes durable iff XEND commits
  // (all-or-nothing), which is what recovery keys off (§4.6). A full
  // segment cannot be reclaimed here (reclamation takes the flush
  // mutex), so abort; the retry path reclaims outside the region.
  if (StageWal() &&
      !cluster_.log(worker_->node())
           ->Append(worker_->worker_id(), LogType::kWriteAhead, txn_id_,
                    wal_buffer_.data(), wal_buffer_.size())) {
    worker_->htm().Abort(kCodeLogFull);
  }
}

std::vector<uint8_t> Transaction::WriteBackImage(const Ref& ref) const {
  const uint32_t version = ref.version + 1;
  const uint64_t locked =
      MakeWriteLocked(static_cast<uint8_t>(worker_->node()));
  std::vector<uint8_t> image(12 + ref.value_size);
  std::memcpy(image.data(), &version, 4);
  std::memcpy(image.data() + 4, &locked, 8);
  std::memcpy(image.data() + 12, ref.buf.data(), ref.value_size);
  return image;
}

bool Transaction::WriteBackAndUnlock() {
  // Local images land first, whatever the crash point below decides:
  // like the HTM path's XEND they are the commit's own effects, which
  // recovery finds in this node's persistent memory and never redoes.
  // The lock keeps local HTM transactions away, as from an RDMA WRITE.
  for (const Ref& ref : refs_) {
    if (ref.local && ref.WritesBack()) {
      const std::vector<uint8_t> image = WriteBackImage(ref);
      // drtm-lint: allow(TX03 commit write-back of a locked entry, the lock serializes it like an RDMA WRITE)
      htm::StrongWrite(cluster_.hash_table(ref.node, ref.table)
                               ->EntryPtr(ref.entry_off) +
                           store::kEntryVersionOffset,
                       image.data(), image.size());
    }
  }
  // Chaos crash point: a machine dying here posts no further write-backs
  // or unlocks and never writes its Complete record — recovery must redo
  // the WAL updates and release the remaining locks. Refs from `end` on
  // are abandoned.
  static const uint32_t kUnlockPoint =
      chaos::Injector::Global().Point("txn.fallback.unlock");
  size_t end = 0;
  for (; end < refs_.size(); ++end) {
    const Ref& ref = refs_[end];
    if ((ref.WritesBack() || ref.locked) &&
        chaos::Check(kUnlockPoint, ref.node).kind ==
            chaos::Decision::Kind::kAbandon) {
      break;
    }
  }
  Acquirer acq = acquirer();
  const bool glob =
      cluster_.fabric().atomic_level() == rdma::AtomicLevel::kGlob;
  const uint64_t init = kStateInit;
  std::vector<std::vector<uint8_t>> images(end);
  // Per ref: one WRITE for version + (still-held) state + value, then
  // one WRITE to unlock — the two-op commit of REMOTE_WRITE_BACK
  // (Fig. 5). All of a node's WRITEs ride one doorbell and every
  // target's doorbell is rung before any is polled (PhaseScatter), so k
  // commit targets overlap into ~1 round trip. Each target's queue
  // executes in post order, and every write-back is posted before any
  // unlock, so each unlock lands after its write-back. A WRITE's wr_id
  // is 2 * ref index, plus 1 for the unlock.
  rdma::PhaseScatter scatter(cluster_.fabric(), &stat::ScatterWritebackIds());
  for (size_t i = 0; i < end; ++i) {
    const Ref& ref = refs_[i];
    if (ref.local || !ref.WritesBack()) {
      continue;
    }
    // A chain-locked image's state-word field re-writes the chain's own
    // lock word, a no-op; its unlock belongs to the chain.
    images[i] = WriteBackImage(ref);
    scatter.PostWrite(ref.node, 2 * i,
                      ref.entry_off + store::kEntryVersionOffset,
                      images[i].data(), images[i].size());
  }
  for (size_t i = 0; i < end; ++i) {
    Ref& ref = refs_[i];
    if (!ref.locked) {
      continue;
    }
    if (ref.local && glob) {
      acq.DropLock(ref);  // a strong store on our own state word
      continue;
    }
    scatter.PostWrite(ref.node, 2 * i + 1,
                      ref.entry_off + store::kEntryStateOffset, &init,
                      sizeof(init));
  }
  std::vector<rdma::Completion> comps;
  scatter.Gather(&comps);
  bool landed = true;
  for (const rdma::Completion& comp : comps) {
    if (comp.status == rdma::OpStatus::kOk) {
      continue;
    }
    // Target down mid-commit: the transaction has committed, so retry
    // until the node recovers (§4.6(e)), preserving per-ref order
    // (completions come back in per-target post order, so a write-back
    // failure is retried before its unlock, which also failed and
    // follows later in `comps`).
    const size_t i = comp.wr_id / 2;
    Ref& ref = refs_[i];
    if (comp.wr_id % 2 == 0) {
      landed &= WriteUntilRecovered(
          cluster_.fabric(), ref.node,
          ref.entry_off + store::kEntryVersionOffset, images[i].data(),
          images[i].size());
    } else {
      landed &= acq.DropLock(ref);
    }
  }
  for (size_t i = 0; i < end; ++i) {
    refs_[i].locked = false;
  }
  return end == refs_.size() && landed;
}

TxnStatus Transaction::FinishCommit() {
  bool held_locks = false;
  for (const Ref& ref : refs_) {
    held_locks |= ref.locked;
  }
  const bool clean = WriteBackAndUnlock();
  if (held_locks) {
    replay::Recorder::Global().RecordLockRelease(txn_id_, !clean);
  }
  // An unfinished release reports nothing: a chaos-abandoned one is a
  // machine dead mid-commit, and recovery redoes either kind.
  if (clean) {
    if (cfg_.logging) {
      // Dropping a Complete is benign (redo is version-gated and lock
      // release idempotent), but a full segment is reclaimed once: the
      // record is what lets the epoch recycle. A kFaulted append is the
      // modeled drop itself.
      NvramLog* log = cluster_.log(worker_->node());
      log->AppendReclaiming(worker_->worker_id(), LogType::kComplete, txn_id_,
                            nullptr, 0);
      log->NoteCommit(worker_->worker_id(), txn_id_);
    }
    NotifyCommittedWrites();
  }
  stat::Registry::Global().Add(Ids().commit);
  return TxnStatus::kCommitted;
}

void Transaction::AbandonAttempt() {
  release_lost_ |= !acquirer().Release(RequestsOf(refs_));
  for (Ref& ref : refs_) {
    ref.found = false;
    ref.entry_off = ~uint64_t{0};
    ref.dirty = false;
    ref.applied = false;
    ref.version = 0;
    ref.lease_end = 0;
  }
}

TxnStatus Transaction::Run(const Body& body) {
  const TxnStatus status = RunAttempts(body);
  // The one closing point of a logged obligation that did not commit
  // (FinishCommit closes a commit's). A node failure, or an unlock that
  // missed a dead target, stays open for recovery to clear that lock. The
  // append is best-effort like the commit's: a dropped one leaves the
  // record open until recovery.
  if (obligation_open_ && !release_lost_ &&
      status != TxnStatus::kCommitted && status != TxnStatus::kNodeFailure) {
    cluster_.log(worker_->node())
        ->AppendReclaiming(worker_->worker_id(), LogType::kComplete, txn_id_,
                           nullptr, 0);
  }
  return status;
}

TxnStatus Transaction::RunAttempts(const Body& body) {
  assert(!ran_ && "a Transaction object runs once");
  ran_ = true;
  SortRefs();
  for (Ref& ref : refs_) {
    // Without read leases (the Fig. 17 ablation) reads lock too.
    ref.exclusive = ref.write || !cfg_.enable_read_lease;
  }
  txn_id_ = cluster_.NextTxnId(worker_->node(), worker_->worker_id());

  int start_conflicts = 0;
  int attempt = 0;
  int lock_aborts = 0;
  // The retry budget and its lock-abort extension come from the live
  // abort-cause mix (AdaptiveRetryLimit); with too few samples they are
  // htm_retry_limit and kLockAbortExtraRetries.
  const int base_budget = worker_->AdaptiveRetryLimit();
  const int lock_extra = worker_->AdaptiveLockExtraRetries();
  int retry_budget = base_budget;
  while (attempt < retry_budget) {
    WindowGuard window(cluster_);
    const StartResult sr = StartPhase();
    if (sr == StartResult::kNodeDown) {
      AbandonAttempt();
      stat::Registry::Global().Add(Ids().node_failure);
      return TxnStatus::kNodeFailure;
    }
    if (sr == StartResult::kConflict) {
      AbandonAttempt();
      stat::Registry::Global().Add(Ids().start_conflict);
      if (++start_conflicts > kStartRetryLimit) {
        break;  // heavy remote contention: let the fallback serialize us
      }
      worker_->Backoff(start_conflicts);
      continue;
    }

    user_abort_ = false;
    // HTM-mode structural ops append notification-only records here;
    // an aborted attempt's records must not survive into the retry
    // (plain heap state is not rolled back by the HTM emulator).
    pending_local_ops_.clear();
    htm::HtmThread& htm = worker_->htm();
    unsigned hstatus;
    {
      stat::ScopedTimer attempt_phase(Ids().htm_attempt_ns);
      hstatus = htm.Transact([&] {
        if (!body(*this)) {
          user_abort_ = true;
          htm.Abort(kCodeUser);
        }
        if (replay::Armed() &&
            !replay::Recorder::Global().CommitAllowed()) {
          // Replay mode: the recording says this op committed fewer
          // transactions than the body just tried to — suppress the
          // extra commit so the replayed schedule matches the log.
          user_abort_ = true;
          htm.Abort(kCodeUser);
        }
        ConfirmLeasesInHtm();
        WriteWalInHtm();
        if (replay::Armed()) {
          // Stage inside the region: the publish hook turns this into a
          // kTxnCommit stamped with the critical-section sequence iff
          // XEND actually commits; a rollback discards it.
          ReplayStageCommitHtm();
        }
      });
    }

    if (hstatus == htm::kCommitted) {
      stat::ScopedTimer commit_phase(Ids().commit_ns);
      if (cfg_.logging) {
        bool any_remote_effect = false;
        for (const Ref& ref : refs_) {
          any_remote_effect |= ref.locked || ref.WritesBack();
        }
        if (any_remote_effect) {
          // Externalization barrier: the WAL staged inside the HTM
          // region must be sealed (recovery-visible) before the first
          // remote write-back, or a crash mid-write-back could not be
          // redone. Local-only commits skip this — their effects live in
          // whole-system-persistent memory and need no redo — so their
          // epochs keep batching.
          cluster_.log(worker_->node())->Externalize(worker_->worker_id());
        }
      }
      return FinishCommit();
    }

    AbandonAttempt();
    if (user_abort_) {
      stat::Registry::Global().Add(Ids().user_abort);
      return TxnStatus::kUserAbort;
    }
    bool lock_observed = false;
    AbortMixWindow& mix = worker_->abort_mix();
    if (hstatus & htm::kAbortCapacity) {
      stat::Registry::Global().Add(Ids().capacity_abort);
      mix.Observe(&mix.capacity);
    } else if (hstatus & htm::kAbortExplicit) {
      const unsigned code = htm::AbortUserCode(hstatus);
      if (code == kCodeLogFull) {
        // The in-HTM WAL append found the segment full; reclaim durable
        // completed epochs out here and retry. Deterministic like a
        // capacity overflow, so it feeds that bucket.
        cluster_.log(worker_->node())->ReclaimSpace(worker_->worker_id());
        stat::Registry::Global().Add(Ids().capacity_abort);
        mix.Observe(&mix.capacity);
      } else if (code == kCodeLease) {
        stat::Registry::Global().Add(Ids().lease_abort);
        mix.Observe(&mix.conflict);
      } else {
        stat::Registry::Global().Add(Ids().lock_abort);
        lock_observed = true;
        mix.Observe(&mix.lock);
      }
    } else {
      stat::Registry::Global().Add(Ids().conflict_abort);
      mix.Observe(&mix.conflict);
    }
    ++attempt;
    if (lock_observed && lock_extra > 0) {
      // A lock-observed XABORT means the holder is mid-commit: grant up
      // to lock_extra extra attempts and wait it out with the stronger
      // bounded backoff, rather than burning straight through the budget
      // into the ~1000x-costlier 2PL fallback.
      ++lock_aborts;
      retry_budget = base_budget + std::min(lock_aborts, lock_extra);
      stat::Registry::Global().Add(Ids().lock_backoff);
      worker_->LockBackoff(lock_aborts);
    } else {
      worker_->Backoff(attempt);
    }
  }

  stat::Registry::Global().Add(Ids().fallback);
  return RunFallback(body);
}

// --- body accessors ----------------------------------------------------------

bool Transaction::LocalReadInHtm(Ref& ref, void* out) {
  store::ClusterHashTable* table = cluster_.hash_table(ref.node, ref.table);
  const uint64_t entry = table->FindEntry(ref.key);
  if (entry == store::kInvalidOffset) {
    return false;
  }
  htm::HtmThread& htm = worker_->htm();
  // LOCAL_READ (Fig. 6): a write lock by a distributed transaction means
  // we must abort; a read lease is fine for readers. The state word is
  // subscribed AFTER the value read (lazy lock subscription, rtmseq):
  // probing first would keep the word in the HTM read set across the
  // value copy, so a holder's unlock store aborts this reader
  // needlessly. Reordering is safe inside the region — if the word turns
  // out write-locked we abort and the speculative read is discarded
  // before the body can observe it.
  htm.Read(out, table->ValuePtr(entry), ref.value_size);
  const uint64_t state = htm.Load(table->StatePtr(entry));
  if (IsWriteLocked(state) && !ref.chain_locked) {
    // A chain-locked ref's write lock is necessarily our own chain's
    // (held continuously across the pieces), never a conflict.
    htm.Abort(kCodeLocked);
  }
  return true;
}

bool Transaction::LocalWriteRangeInHtm(Ref& ref, uint32_t offset,
                                       const void* data, uint32_t len) {
  store::ClusterHashTable* table = cluster_.hash_table(ref.node, ref.table);
  const uint64_t entry = table->FindEntry(ref.key);
  if (entry == store::kInvalidOffset) {
    return false;
  }
  htm::HtmThread& htm = worker_->htm();
  // Elastic freeze gate: local HTM writes take no lock at all, so a
  // frozen bucket must abort the attempt here or a post-catch-up local
  // commit would race the ownership flip.
  if (!GateAllows(cluster_, ref.table, ref.key)) {
    htm.Abort(kCodeLocked);
  }
  // LOCAL_WRITE (Fig. 6): write the version bump and the value slice
  // speculatively, then subscribe the state word as late as possible
  // (lazy lock subscription, rtmseq): probing before the data writes
  // would hold the word in the HTM read set across the value copy and
  // abort needlessly on the holder's unlock store. Safe to defer — if
  // the word turns out locked/leased we abort and the region's stores
  // are discarded wholesale. Only the slice's lines (plus the header)
  // enter the HTM write set — this is what lets a chopped piece update
  // one slice of a value whose full footprint overflows the budget.
  // The version is bumped once per commit, by the ref's first write.
  if (!ref.applied) {
    ref.version = htm.Load(table->VersionPtr(entry));
    htm.Store(table->VersionPtr(entry), ref.version + 1);
  }
  htm.Write(static_cast<uint8_t*>(table->ValuePtr(entry)) + offset, data,
            len);
  // Abort on a write lock or an unexpired lease; actively clear an
  // expired lease (side effect: the state word joins the HTM write set,
  // which is why LOCAL_READ does not do this). A chain-locked ref's
  // write lock is our own chain's — tolerated, and left in place.
  const uint64_t state = htm.Load(table->StatePtr(entry));
  if (IsWriteLocked(state) && !ref.chain_locked) {
    htm.Abort(kCodeLocked);
  }
  if (HasLease(state)) {
    // Fig. 11: the default reuses the Start-phase softtime; the (b)
    // strategy reads it transactionally here, making every local write
    // conflict-prone against the timer thread.
    const uint64_t now =
        cfg_.softtime_read_every_local_op
            ? htm.Load(cluster_.synctime().Word(worker_->node()))
            : now_start_;
    if (!LeaseExpired(LeaseEnd(state), now, cfg_.delta_us)) {
      htm.Abort(kCodeLocked);
    }
    htm.Store(table->StatePtr(entry), kStateInit);
  }
  ref.entry_off = entry;
  ref.dirty = true;
  ref.applied = true;
  return true;
}

void Transaction::NotifyCommittedWrites() {
  Cluster::ElasticHooks* hooks = cluster_.elastic_hooks();
  if (hooks == nullptr) {
    return;
  }
  for (Ref& ref : refs_) {
    if (!ref.dirty) {
      continue;
    }
    if (ref.applied) {
      // Local HTM writes landed directly in the table; read the
      // committed version/value back with strong accesses. A concurrent
      // later writer may bump them again in between — harmless, the
      // dual-write install keeps the max version.
      store::ClusterHashTable* table = cluster_.hash_table(ref.node, ref.table);
      const uint64_t entry = table->FindEntry(ref.key);
      if (entry == store::kInvalidOffset) {
        continue;  // removed since; the remove's own report covers it
      }
      const uint32_t version = htm::Load(table->VersionPtr(entry));
      std::vector<uint8_t> value(ref.value_size);
      htm::ReadBytes(value.data(), table->ValuePtr(entry), ref.value_size);
      hooks->OnCommittedWrite(ref.node, ref.table, ref.key, version,
                              value.data(), ref.value_size);
    } else {
      hooks->OnCommittedWrite(ref.node, ref.table, ref.key, ref.version + 1,
                              ref.buf.data(), ref.value_size);
    }
  }
  for (const StoreOp& op : pending_local_ops_) {
    cluster_.NotifyStructuralOp(worker_->node(), op);
  }
}

bool Transaction::Read(int table, uint64_t key, void* out) {
  Ref* ref = FindRef(table, key);
  assert(ref != nullptr && "record accessed without declaration");
  if (mode_ == Mode::kFallback || !ref->local) {
    if (!ref->found) {
      return false;
    }
    std::memcpy(out, ref->buf.data(), ref->value_size);
    return true;
  }
  return LocalReadInHtm(*ref, out);
}

bool Transaction::Write(int table, uint64_t key, const void* value) {
  return WriteRange(table, key, 0, value, cluster_.table(table).value_size);
}

bool Transaction::WriteRange(int table, uint64_t key, uint32_t offset,
                             const void* data, uint32_t len) {
  Ref* ref = FindRef(table, key);
  assert(ref != nullptr && ref->write && "write requires AddWrite");
  assert(offset + len <= ref->value_size && "range outside the value");
  if (mode_ == Mode::kFallback || !ref->local) {
    if (!ref->found) {
      return false;
    }
    // Overlay the slice on the prefetched image; write-back ships the
    // composed full value.
    std::memcpy(ref->buf.data() + offset, data, len);
    ref->dirty = true;
    return true;
  }
  return LocalWriteRangeInHtm(*ref, offset, data, len);
}

bool Transaction::ReadDynamic(int table, uint64_t key, void* out) {
  assert(cluster_.PartitionOf(table, key) == worker_->node() &&
         "ReadDynamic is for locally hosted records");
  Ref ref;
  ref.table = table;
  ref.key = key;
  ref.node = worker_->node();
  ref.local = true;
  ref.value_size = cluster_.table(table).value_size;
  if (mode_ == Mode::kHtm) {
    return LocalReadInHtm(ref, out);
  }
  // Fallback: lease-as-discovered, confirmed with every other lease after
  // the body and before any update is applied.
  Acquirer acq = acquirer();
  const std::vector<LockRequest*> one = {&ref};
  if (!acq.Resolve(one) || !ref.found) {
    return false;
  }
  if (acq.AcquireInOrder(one) != StartResult::kOk ||
      acq.Prefetch(one) != StartResult::kOk) {
    dynamic_conflict_ = true;
    return false;
  }
  std::memcpy(out, ref.buf.data(), ref.value_size);
  dynamic_refs_.push_back(std::move(ref));
  return true;
}

bool Transaction::LocalStoreOp(StoreOp op) {
  if (mode_ == Mode::kFallback) {
    pending_local_ops_.push_back(std::move(op));
    return true;
  }
  // In the HTM path's region ApplyStoreOp's own region flattens into it.
  const bool ok = cluster_.ApplyStoreOp(worker_->node(), op, worker_->htm());
  if (ok && cluster_.elastic_hooks() != nullptr) {
    // Notification-only record: the op already landed in the table;
    // NotifyCommittedWrites reports it to the elastic hooks after commit
    // (aborted attempts clear pending_local_ops_).
    pending_local_ops_.push_back(std::move(op));
  }
  return ok;
}

bool Transaction::Insert(int table, uint64_t key, const void* value) {
  assert(cluster_.PartitionOf(table, key) == worker_->node() &&
         "in-transaction INSERT must target the local partition; remote "
         "inserts are shipped outside transactions (paper footnote 5)");
  return LocalStoreOp(
      cluster_.MakeStoreOp(StoreOp::kHashInsert, table, key, value));
}

bool Transaction::Remove(int table, uint64_t key) {
  assert(cluster_.PartitionOf(table, key) == worker_->node());
  return LocalStoreOp(cluster_.MakeStoreOp(StoreOp::kHashRemove, table, key));
}

bool Transaction::OrderedInsert(int table, uint64_t key, const void* value) {
  return LocalStoreOp(
      cluster_.MakeStoreOp(StoreOp::kOrderedInsert, table, key, value));
}

bool Transaction::OrderedPut(int table, uint64_t key, const void* value) {
  return LocalStoreOp(
      cluster_.MakeStoreOp(StoreOp::kOrderedPut, table, key, value));
}

bool Transaction::OrderedRemove(int table, uint64_t key) {
  return LocalStoreOp(
      cluster_.MakeStoreOp(StoreOp::kOrderedRemove, table, key));
}

// In the HTM path's region the lookups flatten into it; in the fallback
// each is its own small region.
bool Transaction::OrderedGet(int table, uint64_t key, void* out) {
  store::BPlusTree* tree = cluster_.ordered_table(worker_->node(), table);
  bool found = false;
  worker_->htm().TransactUntilCommitted(
      [&] { found = tree->Get(key, out); });
  return found;
}

size_t Transaction::OrderedScan(
    int table, uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, const void*)>& fn) {
  store::BPlusTree* tree = cluster_.ordered_table(worker_->node(), table);
  if (mode_ == Mode::kHtm) {
    return tree->Scan(lo, hi, fn);
  }
  size_t count = 0;
  // Buffer results so a conflict-retry does not re-invoke fn.
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> rows;
  const uint32_t value_size = cluster_.table(table).value_size;
  worker_->htm().TransactUntilCommitted([&] {
    rows.clear();
    tree->Scan(lo, hi, [&](uint64_t key, const void* value) {
      rows.emplace_back(key,
                        std::vector<uint8_t>(
                            static_cast<const uint8_t*>(value),
                            static_cast<const uint8_t*>(value) + value_size));
      return true;
    });
  });
  for (const auto& [key, value] : rows) {
    ++count;
    if (!fn(key, value.data())) {
      break;
    }
  }
  return count;
}

bool Transaction::OrderedFindFloor(int table, uint64_t lo, uint64_t bound,
                                   uint64_t* key_out, void* value_out) {
  store::BPlusTree* tree = cluster_.ordered_table(worker_->node(), table);
  bool found = false;
  worker_->htm().TransactUntilCommitted(
      [&] { found = tree->FindFloor(lo, bound, key_out, value_out); });
  return found;
}

// --- fallback path -------------------------------------------------------------

Transaction::StartResult Transaction::FallbackAcquire() {
  Acquirer acq = acquirer();
  const std::vector<LockRequest*> all = RequestsOf(refs_);
  for (LockRequest* r : all) {
    acq.Route(*r);
  }
  if (!acq.Resolve(all)) {
    return StartResult::kNodeDown;
  }
  const StartResult result = acq.AcquireInOrder(all);
  return result == StartResult::kOk ? acq.Prefetch(all) : result;
}

bool Transaction::LeasesValid() {
  std::vector<LockRequest*> held = RequestsOf(refs_);
  for (Ref& ref : dynamic_refs_) {
    held.push_back(&ref);
  }
  return acquirer().LeasesValid(held);
}

TxnStatus Transaction::RunFallback(const Body& body) {
  mode_ = Mode::kFallback;
  stat::ScopedTimer fallback_phase(Ids().fallback_ns);

  for (int attempt = 0; attempt < kFallbackAttempts; ++attempt) {
    WindowGuard window(cluster_);
    now_start_ = cluster_.synctime().ReadStrong(worker_->node());
    lease_end_ = now_start_ + cfg_.lease_rw_us;
    pending_local_ops_.clear();
    dynamic_refs_.clear();

    StartResult fail = FallbackAcquire();
    if (fail == StartResult::kOk && !LeasesValid()) {
      // The body only ever sees a consistent image of the declared set.
      fail = StartResult::kConflict;
    }
    if (fail != StartResult::kOk) {
      AbandonAttempt();
      if (fail == StartResult::kNodeDown) {
        stat::Registry::Global().Add(Ids().node_failure);
        return TxnStatus::kNodeFailure;
      }
      worker_->Backoff(attempt);
      continue;
    }

    user_abort_ = false;
    dynamic_conflict_ = false;
    const bool body_ok = body(*this);
    // The serialization point (§6.2): every lease held, declared and
    // dynamic, is valid at one instant after the body and before any
    // irreversible update — or the body's outcome, abort included, may
    // rest on a torn read. A declared lease that was shared ends before
    // ours and may have expired mid-body.
    if (dynamic_conflict_ || !LeasesValid()) {
      AbandonAttempt();
      worker_->Backoff(attempt);
      continue;
    }
    // In replay mode, a recording that committed fewer transactions in
    // this op suppresses the extra commit (see the HTM-path gate).
    if (!body_ok ||
        (replay::Armed() && !replay::Recorder::Global().CommitAllowed())) {
      AbandonAttempt();
      stat::Registry::Global().Add(Ids().user_abort);
      return TxnStatus::kUserAbort;
    }
    if (StageWal()) {
      NvramLog* log = cluster_.log(worker_->node());
      if (log->AppendReclaiming(worker_->worker_id(), LogType::kWriteAhead,
                                txn_id_, wal_buffer_.data(),
                                wal_buffer_.size()) != AppendStatus::kOk) {
        // Log full even after reclaiming (or the append faulted): nothing
        // has been applied yet, so release the locks and retry the attempt
        // instead of committing writes that recovery could not redo.
        AbandonAttempt();
        worker_->Backoff(attempt);
        continue;
      }
      // The fallback always externalizes effects (strong write-backs and
      // remote lock releases below), so the WAL epoch must be sealed before
      // any of them become visible to other nodes.
      log->Externalize(worker_->worker_id());
    }

    // Commit with every lock still held, in the HTM path's order: the
    // buffered structural operations, each in a small HTM transaction,
    // then the replay commit, then the shared write-back and unlock.
    stat::ScopedTimer commit_phase(Ids().commit_ns);
    for (const StoreOp& op : pending_local_ops_) {
      cluster_.ApplyStoreOp(worker_->node(), op, worker_->htm());
    }
    if (replay::Armed()) {
      // Every 2PL lock is still held, so the sequence number this
      // records lands inside the critical section — totally ordering the
      // fallback commit against concurrent HTM publishes on its lines.
      ReplayRecordFallbackCommit();
    }
    return FinishCommit();
  }
  stat::Registry::Global().Add(Ids().exhausted);
  return TxnStatus::kAborted;
}

// --- chain locks (chopped transactions, section 4.6) -------------------------

TxnStatus AcquireChainLocks(Worker* worker, uint64_t chain_id,
                            std::vector<ChainLock>* locks) {
  Cluster& cluster = worker->cluster();
  Acquirer acq(worker);
  const std::vector<LockRequest*> reqs = RequestsOf(*locks);
  for (ChainLock& lock : *locks) {
    lock.exclusive = true;
    acq.Route(lock);
  }
  if (!acq.Resolve(reqs)) {
    return TxnStatus::kNodeFailure;
  }
  for (const ChainLock& lock : *locks) {
    if (!lock.found) {
      return TxnStatus::kAborted;
    }
  }
  // One lock-ahead record for the whole chain, under the chain id: if
  // this machine dies mid-chain, recovery releases the chain locks it
  // still owns (the resumed chain re-acquires them).
  if (cluster.config().logging && !LogLockAhead(worker, chain_id, reqs)) {
    return TxnStatus::kAborted;
  }
  // Waiting while holding earlier chain locks is deadlock-free in the
  // global order, exactly as in the 2PL fallback.
  const Acquirer::Result result = acq.AcquireInOrder(reqs);
  if (result != Acquirer::Result::kOk) {
    return result == Acquirer::Result::kNodeDown ? TxnStatus::kNodeFailure
                                                 : TxnStatus::kAborted;
  }
  return TxnStatus::kCommitted;
}

bool ReleaseChainLocks(Worker* worker, std::vector<ChainLock>* locks) {
  return Acquirer(worker).Release(RequestsOf(*locks));
}

// --- read-only transactions ----------------------------------------------------

ReadOnlyTransaction::ReadOnlyTransaction(Worker* worker)
    : worker_(worker), cluster_(worker->cluster()) {}

void ReadOnlyTransaction::AddRead(int table, uint64_t key) {
  RoRef ref;
  ref.table = table;
  ref.key = key;
  refs_.push_back(std::move(ref));
}

TxnStatus ReadOnlyTransaction::Execute() {
  const ClusterConfig& cfg = cluster_.config();
  const std::vector<LockRequest*> reqs = RequestsOf(refs_);
  for (int attempt = 0; attempt < kFallbackAttempts; ++attempt) {
    WindowGuard window(cluster_);
    // Every record is leased with one common end time (section 4.5).
    Acquirer acq(worker_,
                 cluster_.synctime().ReadStrong(worker_->node()) +
                     cfg.lease_ro_us,
                 cfg.lease_ro_us);
    for (RoRef& ref : refs_) {
      acq.Route(ref);
      ref.leased = false;
    }
    Acquirer::Result result = Acquirer::Result::kNodeDown;
    if (acq.Resolve(reqs)) {
      stat::ScopedTimer phase(Ids().lease_wait_ns);
      result = acq.TryAll(reqs, stat::ScatterRoLeaseIds());
      if (result == Acquirer::Result::kOk) {
        result = acq.Prefetch(reqs);
      }
    }
    if (result == Acquirer::Result::kNodeDown) {
      stat::Registry::Global().Add(Ids().node_failure);
      return TxnStatus::kNodeFailure;
    }
    // Confirmation: all leases still valid at one instant (Fig. 8).
    if (result == Acquirer::Result::kOk && acq.LeasesValid(reqs)) {
      stat::Registry::Global().Add(Ids().ro_commit);
      return TxnStatus::kCommitted;
    }
    stat::Registry::Global().Add(Ids().ro_retry);
    worker_->Backoff(attempt);
  }
  return TxnStatus::kAborted;
}

const ReadOnlyTransaction::RoRef* ReadOnlyTransaction::Find(
    int table, uint64_t key) const {
  for (const RoRef& ref : refs_) {
    if (ref.table == table && ref.key == key && ref.found) {
      return &ref;
    }
  }
  return nullptr;
}

bool ReadOnlyTransaction::Get(int table, uint64_t key, void* out) const {
  const RoRef* ref = Find(table, key);
  if (ref != nullptr) {
    std::memcpy(out, ref->buf.data(), ref->buf.size());
  }
  return ref != nullptr;
}

}  // namespace txn
}  // namespace drtm
