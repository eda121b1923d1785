#include "src/replay/recorder.h"

#include <algorithm>
#include <optional>

#include "src/stat/metrics.h"

namespace drtm {
namespace replay {
namespace {

struct CounterIds {
  uint32_t events;
  uint32_t dropped;
  uint32_t txn_commits;
  uint32_t gate_denied;
  uint32_t ops;
};

const CounterIds& Ids() {
  static const CounterIds ids = [] {
    stat::Registry& reg = stat::Registry::Global();
    CounterIds c;
    c.events = reg.CounterId("replay.events");
    c.dropped = reg.CounterId("replay.dropped");
    c.txn_commits = reg.CounterId("replay.txn_commits");
    c.gate_denied = reg.CounterId("replay.gate_denied");
    c.ops = reg.CounterId("replay.ops");
    return c;
  }();
  return ids;
}

// Thread-local recording state: the op context the worker loop set up,
// the commit the transaction layer staged inside the current HTM region,
// and the replay gate's remaining budget.
struct ThreadState {
  uint64_t ring_epoch = 0;
  void* ring = nullptr;  // Recorder::ThreadRing*, cast at use

  bool in_op = false;
  int node = -1;
  int worker = -1;
  uint64_t op = 0;

  struct Staged {
    uint64_t txn_id = 0;
    uint64_t wal_digest = 0;
    std::vector<WriteRec> writes;
  };
  std::optional<Staged> staged;

  uint64_t budget = 0;
};

ThreadState& Tls() {
  static thread_local ThreadState state;
  return state;
}

}  // namespace

struct Recorder::ThreadRing {
  size_t capacity = 0;
  size_t drain_cursor = 0;
  uint64_t dropped = 0;
  std::vector<ReplayEvent> events;
};

uint64_t WalUpdateDigest(int node, int table, uint64_t key, uint32_t version,
                         const void* value, size_t len) {
  uint64_t h = FnvMix(kFnvBasis, static_cast<uint64_t>(node));
  h = FnvMix(h, static_cast<uint64_t>(table));
  h = FnvMix(h, key);
  h = FnvMix(h, version);
  h = FnvMix(h, static_cast<uint64_t>(len));
  return Fnv1a(h, value, len);
}

Recorder& Recorder::Global() {
  static Recorder recorder;
  return recorder;
}

void Recorder::Arm(const Config& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  rings_.clear();
  seq_.store(0, std::memory_order_relaxed);
  arm_epoch_.fetch_add(1, std::memory_order_acq_rel);
  armed_.store(true, std::memory_order_release);
  htm::ReplayHooks hooks;
  hooks.on_publish = &Recorder::OnPublish;
  // The abort hook is always installed — even with record_aborts off it
  // must clear a staged commit whose region rolled back, or the stale
  // record would be mis-attributed to the next unstaged publish.
  hooks.on_abort = &Recorder::OnAbort;
  htm::SetReplayHooks(hooks);
}

void Recorder::Disarm() {
  htm::SetReplayHooks(htm::ReplayHooks{});
  armed_.store(false, std::memory_order_release);
}

Recorder::ThreadRing* Recorder::Ring() {
  ThreadState& tls = Tls();
  // Fast path, lock-free: the epoch only advances at Arm() while the
  // workload threads are quiesced, so a matching tag means the cached
  // ring pointer is current.
  if (tls.ring != nullptr &&
      tls.ring_epoch == arm_epoch_.load(std::memory_order_acquire)) {
    return static_cast<ThreadRing*>(tls.ring);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto ring = std::make_unique<ThreadRing>();
  ring->capacity = config_.ring_capacity;
  ring->events.reserve(std::min(ring->capacity, size_t{1} << 12));
  ThreadRing* raw = ring.get();
  rings_.push_back(std::move(ring));
  tls.ring = raw;
  tls.ring_epoch = arm_epoch_.load(std::memory_order_relaxed);
  // Fresh arm epoch: the previous run's thread-local op context and
  // staged commit are stale.
  tls.in_op = false;
  tls.staged.reset();
  tls.budget = 0;
  return raw;
}

void Recorder::PushEvent(ThreadRing* ring, ReplayEvent event) {
  if (ring->events.size() >= ring->capacity) {
    ++ring->dropped;
    stat::Registry::Global().Add(Ids().dropped);
    return;
  }
  ring->events.push_back(std::move(event));
  stat::Registry::Global().Add(Ids().events);
}

void Recorder::BeginOp(int node, int worker, uint64_t op) {
  if (!armed()) {
    return;
  }
  Ring();  // ensure the ring + fresh tls binding exist
  ThreadState& tls = Tls();
  tls.in_op = true;
  tls.node = node;
  tls.worker = worker;
  tls.op = op;
  tls.staged.reset();
  stat::Registry::Global().Add(Ids().ops);
}

void Recorder::EndOp(bool committed) {
  if (!armed()) {
    return;
  }
  ThreadRing* ring = Ring();
  ThreadState& tls = Tls();
  ReplayEvent e;
  e.seq = NextSeq();
  e.kind = EventKind::kOpEnd;
  e.node = tls.node;
  e.worker = tls.worker;
  e.op = tls.op;
  e.aux = committed ? 1 : 0;
  PushEvent(ring, std::move(e));
  tls.in_op = false;
  tls.staged.reset();
}

void Recorder::StageCommit(uint64_t txn_id, std::vector<WriteRec> writes,
                           uint64_t wal_digest) {
  if (!armed()) {
    return;
  }
  // Deliberately touches only thread-local state: this runs inside the
  // HTM region, where taking the ring mutex would be abort-unsafe. The
  // publish hook (commit phase, no abort possible) establishes the ring.
  ThreadState& tls = Tls();
  tls.staged.emplace();
  tls.staged->txn_id = txn_id;
  tls.staged->wal_digest = wal_digest;
  tls.staged->writes = std::move(writes);
}

void Recorder::RecordFallbackCommit(uint64_t txn_id,
                                    std::vector<WriteRec> writes,
                                    uint64_t wal_digest) {
  if (!armed()) {
    return;
  }
  ThreadRing* ring = Ring();
  ThreadState& tls = Tls();
  ReplayEvent e;
  e.seq = NextSeq();  // 2PL locks are still held: conflict-ordered
  e.kind = EventKind::kTxnCommit;
  e.node = tls.in_op ? tls.node : -1;
  e.worker = tls.in_op ? tls.worker : -1;
  e.op = tls.in_op ? tls.op : 0;
  e.txn_id = txn_id;
  e.wal_digest = wal_digest;
  e.writes = std::move(writes);
  PushEvent(ring, std::move(e));
  stat::Registry::Global().Add(Ids().txn_commits);
  if (config_.replay_gate && tls.budget > 0) {
    --tls.budget;
  }
}

void Recorder::RecordLockRelease(uint64_t txn_id, bool abandoned) {
  if (!armed()) {
    return;
  }
  ThreadRing* ring = Ring();
  ThreadState& tls = Tls();
  ReplayEvent e;
  e.seq = NextSeq();
  e.kind = EventKind::kLockRelease;
  e.node = tls.in_op ? tls.node : -1;
  e.worker = tls.in_op ? tls.worker : -1;
  e.op = tls.in_op ? tls.op : 0;
  e.txn_id = txn_id;
  e.aux = abandoned ? 1 : 0;
  PushEvent(ring, std::move(e));
}

void Recorder::RecordRpcApply(const char* op_name, int node, int table,
                              uint64_t key, bool applied) {
  if (!armed()) {
    return;
  }
  ThreadRing* ring = Ring();
  ReplayEvent e;
  e.seq = NextSeq();
  e.kind = EventKind::kRpcApply;
  e.node = node;  // the *serving* node, not a worker-op context
  e.aux = applied ? 1 : 0;
  e.point = op_name;
  e.writes.push_back(WriteRec{node, table, key, 0});
  PushEvent(ring, std::move(e));
}

void Recorder::RecordChaosFiring(const std::string& point, uint64_t arrival,
                                 int node) {
  if (!armed()) {
    return;
  }
  ThreadRing* ring = Ring();
  ThreadState& tls = Tls();
  ReplayEvent e;
  e.seq = NextSeq();
  e.kind = EventKind::kChaosFiring;
  e.node = tls.in_op ? tls.node : static_cast<int32_t>(node);
  e.worker = tls.in_op ? tls.worker : -1;
  e.op = tls.in_op ? tls.op : 0;
  e.aux = arrival;
  e.point = point;
  PushEvent(ring, std::move(e));
}

void Recorder::SetCommitBudget(uint64_t budget) {
  Ring();
  Tls().budget = budget;
}

bool Recorder::CommitAllowed() {
  if (!armed() || !config_.replay_gate) {
    return true;
  }
  ThreadState& tls = Tls();
  if (tls.ring == nullptr ||
      tls.ring_epoch != arm_epoch_.load(std::memory_order_acquire)) {
    return true;  // thread never joined this replay run
  }
  if (!tls.in_op) {
    // A server thread applying a shipped transaction: its commits are
    // timeline-only (node -1), never scheduled, so no budget covers
    // them. It joins the ring at its first publish with budget 0, and
    // gating it would deny every later shipped commit.
    return true;
  }
  if (tls.budget > 0) {
    return true;
  }
  stat::Registry::Global().Add(Ids().gate_denied);
  return false;
}

void Recorder::OnPublish(const htm::PublishedLine* lines, size_t count,
                         const VersionTable* table) {
  (void)table;
  Recorder& rec = Global();
  if (!rec.armed()) {
    return;
  }
  ThreadState& tls = Tls();
  // Take the staged commit *before* establishing the ring: the ring's
  // slow path resets stale thread-local state (including `staged`), and
  // StageCommit deliberately does not touch the ring (abort safety), so
  // this publish may be the thread's first ring access of the epoch.
  std::optional<ThreadState::Staged> staged = std::move(tls.staged);
  tls.staged.reset();
  ThreadRing* ring = rec.Ring();
  ReplayEvent e;
  e.seq = rec.NextSeq();  // inside the critical section: conflict-ordered
  e.lines.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    e.lines.push_back(LineRec{lines[i].slot, lines[i].version});
  }
  if (staged.has_value()) {
    e.kind = EventKind::kTxnCommit;
    e.node = tls.in_op ? tls.node : -1;
    e.worker = tls.in_op ? tls.worker : -1;
    e.op = tls.in_op ? tls.op : 0;
    e.txn_id = staged->txn_id;
    e.wal_digest = staged->wal_digest;
    e.writes = std::move(staged->writes);
    stat::Registry::Global().Add(Ids().txn_commits);
    if (rec.config_.replay_gate && tls.budget > 0) {
      --tls.budget;
    }
  } else {
    // Unstaged region: a server-thread RPC apply, a fallback pending-op
    // mini-region, recovery redo. Context for the timeline, never
    // validated.
    e.kind = EventKind::kHtmCommit;
    e.node = tls.in_op ? tls.node : -1;
    e.worker = tls.in_op ? tls.worker : -1;
    e.op = tls.in_op ? tls.op : 0;
  }
  rec.PushEvent(ring, std::move(e));
}

void Recorder::OnAbort(unsigned status) {
  Recorder& rec = Global();
  if (!rec.armed()) {
    return;
  }
  ThreadState& tls = Tls();
  tls.staged.reset();  // an aborted region's staged commit never publishes
  if (!rec.config_.record_aborts || !tls.in_op) {
    return;  // opt-in only, and server/helper thread aborts are skipped
  }
  ThreadRing* ring = rec.Ring();
  ReplayEvent e;
  e.seq = rec.NextSeq();
  e.kind = EventKind::kHtmAbort;
  e.node = tls.node;
  e.worker = tls.worker;
  e.op = tls.op;
  e.aux = status;
  rec.PushEvent(ring, std::move(e));
}

std::vector<ReplayEvent> Recorder::DrainThread() {
  ThreadRing* ring = Ring();
  std::vector<ReplayEvent> out(ring->events.begin() + ring->drain_cursor,
                               ring->events.end());
  ring->drain_cursor = ring->events.size();
  return out;
}

void Recorder::Merge(ReplayLog* log) {
  std::lock_guard<std::mutex> lock(mu_);
  log->events.clear();
  log->dropped = 0;
  for (const auto& ring : rings_) {
    log->dropped += ring->dropped;
    log->events.insert(log->events.end(), ring->events.begin(),
                       ring->events.end());
  }
  std::stable_sort(
      log->events.begin(), log->events.end(),
      [](const ReplayEvent& a, const ReplayEvent& b) { return a.seq < b.seq; });
  log->Reseal();
}

uint64_t Recorder::dropped() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    total += ring->dropped;
  }
  return total;
}

}  // namespace replay
}  // namespace drtm
