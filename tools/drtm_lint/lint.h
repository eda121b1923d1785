// drtm-lint: enforces the HTM transaction-discipline, elastic-hook,
// lock/lease-subscription and chaos-coverage rules that the code's
// header comments state but the compiler cannot check.
//
// The software RTM emulator is sound only if every transactional access
// is routed through htm::Load/Store/ReadBytes/WriteBytes (or
// HtmThread::Read/Write), bodies are abort-safe under AbortException
// unwinding, and Strong* accesses stay confined to the RDMA substrate
// and the softtime timer. Since the elastic tier landed, live migration
// is additionally sound only if every acquire path consults
// Cluster::ElasticHooks::AllowAcquire and every commit path fires
// NotifyCommittedWrites. One silently-raw store inside a Transact body
// (or one gate-free acquire during a bucket freeze) breaks correctness
// with no test failure, so these rules are enforced at CI time:
//
//   TX01  no raw pointer dereference/assignment inside Transact(...)
//         lambda bodies or functions reachable from them — at any call
//         depth, via the call-graph fixpoint (use the htm:: primitives).
//   TX02  no irreversible side effects in transaction bodies:
//         new/delete, malloc/free, mutex lock/unlock, I/O — an
//         AbortException unwind would leak or deadlock them.
//   TX03  Strong*/StrongCas64/StrongFaa64 calls are only legal in an
//         allowlist (src/rdma/, src/txn/sync_time.cc, recovery and
//         bulk-load paths) — everywhere else they bypass conflict
//         detection.
//   TX04  no `catch (...)` or `catch (AbortException)` inside
//         transaction bodies — swallowing the unwind corrupts the
//         emulator's depth/read-set state.
//   EL01  a function that acquires a lock/lease or installs a table
//         entry (calls an acquire primitive: the acquisition engine's
//         single CAS entry point Acquirer::StateCas, InstallVersioned)
//         must consult the elastic freeze gate
//         (ElasticHooks::AllowAcquire / GateAllows) itself, or be
//         reachable only from callers that do — otherwise a live bucket
//         migration can lose the write across the ownership flip.
//   EL02  a function that performs transactional write-back
//         (calls WriteBackAndUnlock) must also reach
//         NotifyCommittedWrites on some path, or the elastic tier's
//         dual-write misses committed values.
//   LS01  inside a transactional region, a read of a lock/lease word
//         (htm Load of a StatePtr/lock-word expression) must not occur
//         before a later data access in the same function — early
//         subscription keeps the word in the HTM read set across the
//         rest of the region and aborts needlessly on the holder's
//         unlock store (the rtmseq lazy-subscription idiom).
//   LS02  lease validity arithmetic (LeaseExpired/LeaseValid/MakeLease/
//         lease_end) must not be fed from an unsynchronized clock
//         (MonotonicNanos, std::chrono, gettimeofday) — leases are only
//         meaningful against the PTP-style synced softtime.
//   CP01  a mutating RDMA/log/RPC entry point (configured catalog of
//         (file, function) specs) must have a chaos::Injector point on
//         some path through it, so the fault-injection sweeps keep
//         covering every mutation channel as the code grows.
//
// Intentional exceptions are documented in place with
//   // drtm-lint: allow(XXnn reason)        (this line or the next)
//   // drtm-lint: allow-file(XXnn reason)   (whole file)
// or carried in a checked-in baseline file whose every entry names a
// finding fingerprint and a one-line rationale (see Baseline below).
//
// This core is a token-level analyzer: a real C++ lexer (comments,
// strings, raw strings, preprocessor lines) over the translation units
// named by compile_commands.json, plus lightweight region recognition
// for Transact lambda bodies and function definitions. Obligations
// propagate over a whole-program call graph by name: one parse pass
// builds per-function summaries (calls, acquire/gate/notify/chaos
// references, lock-word probes), then a worklist iterates to a fixpoint
// so a TX01 obligation reaches a helper at any call depth. It
// deliberately has no compiler dependency so it builds and runs
// everywhere the repo does.
#ifndef TOOLS_DRTM_LINT_LINT_H_
#define TOOLS_DRTM_LINT_LINT_H_

#include <string>
#include <vector>

#include "src/stat/json.h"

namespace drtm {
namespace lint {

struct Finding {
  std::string rule;     // "TX01".."TX04", "EL01", "EL02", "LS01", "LS02", "CP01"
  std::string file;     // as given to AddFile (relative paths preferred)
  int line = 0;
  std::string message;
  std::string context;   // which Transact body / summarized function
  std::string function;  // enclosing function name ("" at file scope)
  // Stable identity: hash of (rule, file, function, message, ordinal of
  // the site within the function). Line numbers are deliberately
  // excluded so unrelated edits above a finding do not churn baselines,
  // and the same header-inlined violation reached from N translation
  // units / N Transact bodies keys to ONE entry.
  std::string fingerprint;
  bool suppressed = false;
  std::string suppress_reason;  // from the allow(...) directive or baseline
};

// One allowlisted finding in the checked-in baseline file. Line format:
//   <fingerprint> <rule> <file> :: <rationale>
// '#' starts a comment; the rationale is mandatory.
struct BaselineEntry {
  std::string fingerprint;
  std::string rule;
  std::string file;
  std::string rationale;
};

// A CP01 entry point: `function` defined in a file whose path contains
// `file_fragment` must reach a chaos-injector reference.
struct EntryPointSpec {
  std::string file_fragment;
  std::string function;
};

struct Options {
  // Path fragments where Strong* accesses are legal (substring match on
  // the forward-slashed file name). src/htm is the emulator itself.
  std::vector<std::string> strong_allowlist = {
      "src/htm/",          // the Strong* implementation
      "src/rdma/",         // one-sided verb emulation is the point
      // Explicit entries for the doorbell-batched submission/poll paths
      // so the exemption survives if the directory-wide "src/rdma/"
      // fragment is ever narrowed: batched WQEs execute through the same
      // per-op strong accessors as the scalar verbs.
      "src/rdma/fabric.",
      "src/rdma/verbs_batch.",
      // Scatter-gather phase engine: rings per-target doorbells and
      // drains completions through the batched verb path above.
      "src/rdma/phase_scatter.",
      "src/txn/sync_time.cc",  // softtime timer beat + reads
      "src/txn/sync_time.h",
      "src/txn/recovery.",     // recovery replays outside transactions
      "src/txn/nvram_log.",    // log scan is a recovery/bootstrap path
  };
  // Files skipped entirely: the emulator implements the discipline with
  // raw memory operations by design.
  std::vector<std::string> exclude = {"src/htm/"};

  // Call-graph fixpoint: obligations propagate from Transact bodies up
  // to this many call edges deep (a backstop against pathological name
  // collisions; real chains converge far earlier).
  size_t max_call_depth = 32;

  // EL01 vocabulary: calling an acquire primitive obliges the caller
  // chain to consult one of the gates. Every lock/lease CAS in src/txn
  // goes through Acquirer::StateCas (src/txn/acquire.cc).
  std::vector<std::string> acquire_primitives = {"StateCas",
                                                 "InstallVersioned"};
  std::vector<std::string> acquire_gates = {"AllowAcquire", "GateAllows"};

  // EL02 vocabulary: a write-back call obliges the function to reach a
  // notify call transitively.
  std::vector<std::string> writeback_names = {"WriteBackAndUnlock"};
  std::vector<std::string> notify_names = {"NotifyCommittedWrites"};

  // LS01 vocabulary: an htm load whose argument expression mentions one
  // of these markers is a lock/lease-word probe; htm accesses without a
  // marker are data accesses.
  std::vector<std::string> lock_word_markers = {
      "StatePtr", "state_word", "lock_word", "lease_word",
      "LockWord", "LeaseWord",
  };
  // htm accesses mentioning these are neither probe nor data for LS01:
  // the synced softtime word is a clock read with its own subscription
  // story (Fig. 11), so reading it next to a late probe is fine.
  std::vector<std::string> subscription_neutral_markers = {
      "synctime", "softtime", "SyncTime",
  };

  // LS02 vocabulary: lease arithmetic fed from an unsynced clock.
  std::vector<std::string> lease_markers = {
      "LeaseExpired", "LeaseValid", "MakeLease", "LeaseEnd", "lease_end",
  };
  std::vector<std::string> unsynced_time_names = {
      "MonotonicNanos", "MonotonicMicros", "steady_clock", "system_clock",
      "high_resolution_clock", "gettimeofday", "rdtsc", "clock_gettime",
  };

  // CP01: mutating entry points that must carry a chaos point on some
  // path, and the tokens that count as an injector reference.
  std::vector<EntryPointSpec> chaos_entry_points = {
      {"src/rdma/fabric.", "ExecuteRead"},
      {"src/rdma/fabric.", "ExecuteWrite"},
      {"src/rdma/fabric.", "ExecuteCas"},
      {"src/rdma/fabric.", "ExecuteFaa"},
      {"src/rdma/fabric.", "Send"},
      {"src/rdma/fabric.", "Rpc"},
      {"src/txn/nvram_log.", "Append"},
      {"src/txn/nvram_log.", "ForEach"},
      {"src/txn/nvram_log.", "SealAndSubmit"},
      {"src/txn/nvram_log.", "SubmitFlush"},
      {"src/txn/cluster.", "ServerLoop"},
      {"src/txn/cluster.", "HandleKvInsert"},
      {"src/txn/cluster.", "HandleKvRemove"},
      {"src/txn/cluster.", "HandleKvUpsert"},
      {"src/txn/cluster.", "HandleKvErase"},
      {"src/txn/cluster.", "HandleOrderedGet"},
      {"src/txn/cluster.", "HandleOrderedScan"},
      {"src/txn/cluster.", "HandleCacheInval"},
      {"src/txn/transaction.", "WriteBackAndUnlock"},
  };
  std::vector<std::string> chaos_markers = {"Check", "ChaosDropsRpc",
                                            "OnPoint", "Point"};
};

// Token-level analyzer. Usage: AddFile() every source in the corpus
// (the call summaries are cross-file), then Run(), then read findings().
class Analyzer {
 public:
  explicit Analyzer(Options options = Options());
  ~Analyzer();  // out-of-line: File is incomplete here
  Analyzer(Analyzer&&) noexcept;
  Analyzer& operator=(Analyzer&&) noexcept;

  // Registers file content under `path`. Returns false (and records
  // nothing) if the file was already added.
  bool AddFile(const std::string& path, std::string content);
  // Reads `path` from disk; `display` (if non-empty) is the name used in
  // findings. Returns false if unreadable.
  bool AddFileFromDisk(const std::string& path,
                       const std::string& display = "");

  void Run();

  // After Run(): marks every finding whose fingerprint appears in
  // `baseline` as suppressed (reason "baseline: <rationale>"). Entries
  // that match no finding are appended to `stale` (if non-null) — a
  // stale entry means the violation was fixed and the allowlist line
  // must be deleted, so drift is visible.
  void ApplyBaseline(const std::vector<BaselineEntry>& baseline,
                     std::vector<BaselineEntry>* stale);

  const std::vector<Finding>& findings() const { return findings_; }
  std::vector<Finding> Unsuppressed() const;
  size_t file_count() const;

  // Chaos injector point names registered in the corpus
  // (Point("name") call sites), sorted — the catalog CP01 is checked
  // against, surfaced in the JSON report.
  const std::vector<std::string>& chaos_point_catalog() const {
    return chaos_catalog_;
  }

  // Machine-readable report following the BENCH_*.json conventions
  // (schema_version, config block, counters map; see
  // src/stat/bench_report.h).
  stat::Json ReportJson() const;

 private:
  struct File;
  Options options_;
  std::vector<File> files_;
  std::vector<Finding> findings_;
  std::vector<std::string> chaos_catalog_;
};

// Serializes the unsuppressed findings as baseline lines (one per
// finding, rationale left as "TODO: rationale" for the author to fill).
std::string FormatBaseline(const std::vector<Finding>& findings);

// Parses baseline text. Returns false and sets `error` on a malformed
// line or a missing rationale.
bool ParseBaseline(const std::string& text, std::vector<BaselineEntry>* out,
                   std::string* error);

// Convenience: ParseBaseline over a file's contents.
bool LoadBaselineFile(const std::string& path,
                      std::vector<BaselineEntry>* out, std::string* error);

// Reads the "file" entries of a CMake compile_commands.json. Returns
// absolute paths as recorded; false on parse failure.
bool ReadCompileCommands(const std::string& path,
                         std::vector<std::string>* files);

}  // namespace lint
}  // namespace drtm

#endif  // TOOLS_DRTM_LINT_LINT_H_
