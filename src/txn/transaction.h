// The DrTM transaction layer (paper sections 4 and 6) — the core
// contribution: HTM for local concurrency control, glued to strict 2PL
// across machines with one-sided RDMA.
//
// A transaction runs in three phases (Fig. 2(a) / Fig. 3):
//   Start    — remote records in the declared read/write sets are leased
//              (shared) or CAS-locked (exclusive) and prefetched;
//   LocalTX  — the body runs inside an HTM region; local records are
//              read/written transactionally with the Fig. 6 state checks;
//   Commit   — leases are confirmed against a fresh softtime, the HTM
//              region commits (XEND), then remote updates are written
//              back and exclusive locks released.
//
// Contention management (section 6.2): after the HTM retry budget is
// exhausted, the fallback handler reruns the transaction under pure 2PL,
// locking *all* records (local ones via RDMA CAS when the NIC only has
// HCA-level atomicity, section 6.3) in a global <table, key> order.
//
// Read-only transactions (Fig. 8) skip HTM entirely: every record is
// leased with one common end time, read, and the leases confirmed.
#ifndef SRC_TXN_TRANSACTION_H_
#define SRC_TXN_TRANSACTION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rand.h"
#include "src/htm/htm.h"
#include "src/replay/replay_log.h"
#include "src/txn/acquire.h"
#include "src/txn/cluster.h"

namespace drtm {
namespace txn {

enum class TxnStatus {
  kCommitted,
  kAborted,      // retry budget exhausted (should be rare: fallback wins)
  kUserAbort,    // body returned false
  kNodeFailure,  // a required remote node is down
};

// XABORT user codes used by the protocol.
inline constexpr uint8_t kCodeUser = 1;
inline constexpr uint8_t kCodeLocked = 2;   // local access hit a 2PL lock
inline constexpr uint8_t kCodeLease = 3;    // lease confirmation failed
inline constexpr uint8_t kCodeMissing = 4;  // record vanished mid-run
inline constexpr uint8_t kCodeLogFull = 5;  // WAL append hit a full log
                                            // segment; reclaim + retry

class Worker {
 public:
  Worker(Cluster* cluster, int node, int worker_id);

  Cluster& cluster() { return *cluster_; }
  int node() const { return node_; }
  int worker_id() const { return worker_id_; }
  htm::HtmThread& htm() { return htm_; }
  Xoshiro256& rng() { return rng_; }
  // Retry/wait jitter stream, deliberately separate from rng(): workload
  // key draws come from rng(), and contention-dependent retry counts
  // must not desynchronize them between a threaded recording and its
  // single-threaded replay.
  Xoshiro256& backoff_rng() { return backoff_rng_; }

  // Blocks until txn_id — a transaction this worker committed — is
  // durably acknowledged: its epoch sealed and its flush completed
  // (NvramLog::WaitDurable). No-op when logging is off, when group
  // commit is off (commit already waited), or for unknown ids.
  void WaitDurable(uint64_t txn_id);

  // Randomized exponential backoff used between transaction retries.
  void Backoff(int attempt);

  // Stronger bounded-exponential backoff (with jitter) applied after a
  // lock-observed XABORT: the lock holder is mid-commit and needs real
  // time (an RDMA write-back) to finish, so waiting beats burning HTM
  // retries and falling through to the 2PL fallback.
  void LockBackoff(int consecutive_lock_aborts);

 private:
  Cluster* cluster_;
  int node_;
  int worker_id_;
  htm::HtmThread htm_;
  Xoshiro256 rng_;
  Xoshiro256 backoff_rng_;
};

// A record whose exclusive lock spans a whole chopped-transaction chain
// (paper §4.6): acquired before the first piece runs, held across every
// piece, released only after the last piece committed. Pieces mark the
// matching declared refs chain-locked so their own acquire/release
// machinery skips them and tolerates observing the (held-by-us) lock.
using ChainLock = LockRequest;

// Acquires every chain lock in global <table, key> order, waiting out
// holders and leases like the 2PL fallback. With logging on, a lock-ahead
// record goes out under chain_id first, so recovery can release the chain
// locks of a crashed node (§4.6). kAborted on conflict or a missing
// record, kNodeFailure when an owner node is down; on failure the locks
// acquired so far stay held and the caller releases them.
TxnStatus AcquireChainLocks(Worker* worker, uint64_t chain_id,
                            std::vector<ChainLock>* locks);
// Drops every held chain lock. Returns false when an unlock could not
// land on a dead target: that lock stays held until recovery clears it.
bool ReleaseChainLocks(Worker* worker, std::vector<ChainLock>* locks);

class Transaction {
 public:
  using Body = std::function<bool(Transaction&)>;

  explicit Transaction(Worker* worker);

  // --- declaration (before Run) --------------------------------------------
  void AddRead(int table, uint64_t key);
  void AddWrite(int table, uint64_t key);
  // Marks a declared record as covered by a ChainLock held by the
  // enclosing chopped transaction: this piece neither acquires nor
  // releases it, and a write lock observed on it is (necessarily) our
  // own chain lock, not a conflict.
  void MarkChainLocked(int table, uint64_t key);

  // Runs the body to commit (HTM path with retries, then fallback). The
  // body may execute several times and must be idempotent in its effects
  // outside this transaction; it returns false to user-abort.
  TxnStatus Run(const Body& body);

  // --- accessors usable inside the body -------------------------------------
  // Declared hash-table records:
  bool Read(int table, uint64_t key, void* out);
  bool Write(int table, uint64_t key, const void* value);
  // Partial write of [offset, offset+len) within a declared record's
  // value. The workhorse of chopped large-value updates: each piece
  // writes only its slice, so the piece's HTM write set holds the
  // slice's lines instead of the whole value's.
  bool WriteRange(int table, uint64_t key, uint32_t offset, const void* data,
                  uint32_t len);

  // Dynamic (undeclared) read of a *local* hash record, for read sets
  // discovered during execution (paper section 4.1 pairs this with a
  // reconnaissance query; stock-level uses it directly). In HTM mode this
  // is a plain LOCAL_READ; in fallback mode it takes a lease on the spot,
  // which is confirmed with the static leases before any update.
  bool ReadDynamic(int table, uint64_t key, void* out);

  // Local dynamic operations (the key's partition must be this node).
  // In fallback mode these and the ordered Insert/Put/Remove below are
  // buffered, report success, and apply at commit:
  bool Insert(int table, uint64_t key, const void* value);
  bool Remove(int table, uint64_t key);

  // Local ordered-store operations (HTM-protected; in fallback mode each
  // read runs as its own small HTM transaction while the 2PL locks on
  // the declared records serialize the logical transaction):
  bool OrderedInsert(int table, uint64_t key, const void* value);
  bool OrderedGet(int table, uint64_t key, void* out);
  bool OrderedPut(int table, uint64_t key, const void* value);
  size_t OrderedScan(int table, uint64_t lo, uint64_t hi,
                     const std::function<bool(uint64_t, const void*)>& fn);
  bool OrderedFindFloor(int table, uint64_t lo, uint64_t bound,
                        uint64_t* key_out, void* value_out);
  bool OrderedRemove(int table, uint64_t key);

  // Softtime captured at Start (reused for all local checks, Fig. 11(c)).
  uint64_t start_time_us() const { return now_start_; }

  bool in_fallback() const { return mode_ == Mode::kFallback; }
  int home_node() const;

 private:
  enum class Mode { kHtm, kFallback };
  using StartResult = Acquirer::Result;

  // A declared record: its lock/lease request (the prefetched image of a
  // remote record, or of any record in fallback mode, lives in buf).
  struct Ref : LockRequest {
    bool write = false;
    uint32_t value_size = 0;
    bool dirty = false;
    // Written in place inside the HTM region (a local record on the HTM
    // path): the first such write bumped the version, and StageWal reads
    // the image back from the table. Every other dirty ref waits in buf
    // for the write-back.
    bool applied = false;

    // The commit's write-back must still write this ref's image: it is
    // dirty, not applied in place, and held by us or by our chain.
    bool WritesBack() const {
      return dirty && !applied && (locked || chain_locked);
    }
  };

  Ref* FindRef(int table, uint64_t key);
  void SortRefs();
  // The one path of the five local structural ops: the fallback buffers
  // `op` until its serialization point; the HTM path applies it in place
  // and returns the store's result.
  bool LocalStoreOp(StoreOp op);
  // The engine for this attempt: leases end at lease_end_.
  Acquirer acquirer() {
    return Acquirer(worker_, lease_end_, cfg_.lease_rw_us);
  }

  // HTM path.
  // Start: resolve the remote refs, log the lock-ahead record, then lock
  // (CAS) or lease (probe READ) them all in one non-waiting overlapped
  // scatter round, each verb with its record's READ behind it — a k-node
  // transaction pays one overlapped round trip per acquisition step, not
  // 2k serial ones.
  StartResult StartPhase();
  void ConfirmLeasesInHtm();
  // Stages the WAL inside the HTM region (StageWal), then appends it, or
  // aborts with kCodeLogFull when the segment is full.
  void WriteWalInHtm();
  // The image a commit writes back in one WRITE (REMOTE_WRITE_BACK,
  // Fig. 5): the bumped version, the still-held lock word, the value.
  std::vector<uint8_t> WriteBackImage(const Ref& ref) const;
  // The one commit write-back of both paths (REMOTE_WRITE_BACK, Fig. 5):
  // writes every ref that WritesBack() — a local one by a strong write,
  // a remote one on a scatter round — then unlocks every locked ref, a
  // local one under GLOB by a strong store, any other by a WRITE queued
  // behind its write-back. Returns false when the chaos crash point
  // txn.fallback.unlock abandoned the release (simulated death
  // mid-commit), or when a write-back or unlock could not land on a
  // target that stayed down past the retry budget: locks may stay held
  // and the caller must not write the Complete record, so recovery of
  // this node's log redoes the updates and releases them.
  bool WriteBackAndUnlock();
  // The commit tail of both paths, called once the commit is decided and
  // with every lock still held: WriteBackAndUnlock, the replay
  // lock-release event, and on a clean release the Complete record and
  // the elastic notification. Counts the commit.
  TxnStatus FinishCommit();
  // Releases every lock and forgets the attempt's acquisitions and
  // writes, ready for a retry.
  void AbandonAttempt();

  // The HTM attempts, then the fallback; Run wraps it to close the log
  // obligation on every exit.
  TxnStatus RunAttempts(const Body& body);

  // Fallback path (section 6.2).
  TxnStatus RunFallback(const Body& body);
  // Logs the lock-ahead record, takes every lock and lease of a fallback
  // attempt by the waiting acquisition in global <table, key> order, then
  // prefetches every record: remote ones in one scatter round, local ones
  // by strong reads.
  StartResult FallbackAcquire();
  // Every held lease, declared and dynamic, still valid now.
  bool LeasesValid();

  // In-body helpers.
  bool LocalReadInHtm(Ref& ref, void* out);
  bool LocalWriteRangeInHtm(Ref& ref, uint32_t offset, const void* data,
                            uint32_t len);
  // The one commit staging point of both paths (§4.6): encodes one WAL
  // update per dirty ref into wal_buffer_ and folds it into the replay
  // digest. The image is ref.buf, or for an applied ref the table's,
  // read back transactionally (so on the HTM path it runs inside the
  // region). A no-op unless logging or replay recording is on. True when
  // there is a WAL record to append.
  bool StageWal();
  void RecordWalUpdate(const Ref& ref, const void* value);

  // Replay taps (src/replay): hand the recorder this commit's logical
  // write set and WAL digest. The HTM variant stages inside the region
  // (the seqlock publish hook emits the event with the critical-section
  // sequence) and touches only thread-local state; the fallback variant
  // emits directly while its 2PL locks are still held. Zero-write
  // commits stage nothing.
  std::vector<replay::WriteRec> ReplayGatherWrites() const;
  void ReplayStageCommitHtm();
  void ReplayRecordFallbackCommit();

  // After a commit became visible: reports every written record (and
  // buffered structural op) to the installed ElasticHooks, driving the
  // dual-write phase of a live migration. No-op without hooks.
  void NotifyCommittedWrites();

  Worker* worker_;
  Cluster& cluster_;
  const ClusterConfig& cfg_;
  Mode mode_ = Mode::kHtm;
  std::vector<Ref> refs_;
  uint64_t txn_id_ = 0;
  uint64_t now_start_ = 0;
  uint64_t lease_end_ = 0;
  bool user_abort_ = false;
  // A Start appended a lock-ahead record under txn_id_: some exit must
  // close it with a kComplete, or the record pins log truncation.
  bool obligation_open_ = false;
  // An AbandonAttempt unlock did not land on a dead target: the lock
  // stays held, so the obligation stays open for recovery to clear it.
  bool release_lost_ = false;
  std::vector<uint8_t> wal_buffer_;
  // Order-insensitive digest of this attempt's WAL updates (replay
  // recording); reset with wal_buffer_ by StageWal.
  uint64_t replay_wal_sum_ = 0;
  // The fallback's structural ops, buffered until after lease
  // confirmation (its serialization point) and then applied one by one
  // by Cluster::ApplyStoreOp. On the HTM path, with elastic hooks
  // installed, notification-only records of the ops it applied.
  std::vector<StoreOp> pending_local_ops_;
  // Leases taken by ReadDynamic in fallback mode (confirmed post-body).
  std::vector<Ref> dynamic_refs_;
  bool dynamic_conflict_ = false;
  bool ran_ = false;
};

// Read-only transactions (paper section 4.5, Fig. 8).
class ReadOnlyTransaction {
 public:
  explicit ReadOnlyTransaction(Worker* worker);

  void AddRead(int table, uint64_t key);

  // Leases every declared record with one common end time, prefetches,
  // and confirms. Retries internally on conflicts.
  TxnStatus Execute();

  // Valid after a kCommitted Execute(). Returns false if the key did not
  // exist at snapshot time.
  bool Get(int table, uint64_t key, void* out) const;

 private:
  using RoRef = LockRequest;

  // The request for a key that existed at snapshot time, or nullptr.
  const RoRef* Find(int table, uint64_t key) const;

  Worker* worker_;
  Cluster& cluster_;
  std::vector<RoRef> refs_;
};

}  // namespace txn
}  // namespace drtm

#endif  // SRC_TXN_TRANSACTION_H_
