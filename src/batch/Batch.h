//===- batch/Batch.h - Parallel batch-verification engine -------*- C++-*-===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel batch-verification engine: many programs compiled,
/// translation-validated, automatically bounded, and Theorem-1-checked
/// concurrently on a thread pool with one FIFO queue (batch/ThreadPool.h)
/// whose workers take jobs from one shared counter, with
///
///   * per-program results (bounds, diagnostics, Theorem 1 outcome),
///   * pass-level metrics (wall time per stage, refinement-replay event
///     counts, proof-checker node counts), serializable as JSON,
///   * a content-hash result cache so an unchanged (source, options)
///     pair skips recompilation entirely.
///
/// Every job runs on its own DiagnosticEngine (see the thread-safety
/// contract in support/Diagnostics.h); results land in pre-sized slots
/// indexed by job position, so the output is deterministic: a batch run
/// with N workers is byte-identical (modulo timing fields) to the serial
/// run. tests/BatchTest.cpp enforces this.
///
//===----------------------------------------------------------------------===//

#ifndef QCC_BATCH_BATCH_H
#define QCC_BATCH_BATCH_H

#include "driver/Compiler.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace qcc {
namespace batch {

class Watchdog;

/// One unit of batch work: a named source plus its compiler options.
struct BatchJob {
  std::string Id; ///< Display name (corpus id or file path).
  std::string Source;
  driver::CompilerOptions Options;
};

/// Final classification of one job in a (possibly supervised) batch.
enum class JobStatus : uint8_t {
  Ok,                 ///< Verified clean.
  Failed,             ///< Definitive compile/validation/Theorem-1 failure.
  Quarantined,        ///< Exhausted its budget on every allowed attempt;
                      ///< no verdict was reached.
  SkippedFromJournal, ///< A previous run already completed it (resume).
  Cancelled           ///< Stopped by the batch-wide interrupt token.
};

/// Display name of \p S ("ok", "failed", "quarantined", ...).
const char *jobStatusName(JobStatus S);

/// One verified function in a program's report.
struct FunctionReport {
  std::string Function;
  std::string SymbolicBound;
  /// Instantiated call bound in bytes; nullopt when parametric (needs
  /// argument values) or infinite.
  std::optional<uint64_t> ConcreteBytes;
};

/// Pass-level metrics for one program (driver::PassStats plus totals).
struct ProgramMetrics {
  std::vector<std::pair<std::string, uint64_t>> PassMicros;
  std::vector<std::pair<std::string, uint64_t>> ReplayedEvents;
  uint64_t ProofNodes = 0;
  /// Time inside the proof checker validating fresh bounds. A timing
  /// (warm runs check fewer functions), so Full-detail only — unlike
  /// proof_nodes, which counts the artifact and stays deterministic.
  uint64_t ProofCheckMicros = 0;
  /// Proof-checker node visits per rule (fresh bounds only, nonzero
  /// rules), Full-detail only for the same reason.
  std::vector<std::pair<std::string, uint64_t>> ProofRuleNodes;
  uint64_t TotalMicros = 0;
  /// Incremental-engine counters, all zero when the job ran through the
  /// whole-file path. Like the timing fields, these describe how the
  /// verdict was produced, not what it is: metricsJson emits them only at
  /// Full detail, so a warm incremental run stays byte-identical to a
  /// cold run under JsonDetail::Deterministic.
  uint64_t FuncsReused = 0;       ///< Served from the function cache/store.
  uint64_t FuncsReVerified = 0;   ///< Derived and checked fresh this run.
  uint64_t FuncsInvalidated = 0;  ///< Previously-keyed functions whose key
                                  ///< changed (edited or caller-affected).
  uint64_t InternedBounds = 0;    ///< logic::internStats() table size.
  uint64_t ArenaHighWater = 0;    ///< Process-wide arena high water, bytes.
  /// The exact set of functions re-verified this run, sorted by name
  /// (what the mutation regression tests assert on).
  std::vector<std::string> ReVerifiedFunctions;
};

/// Everything the engine reports for one job.
struct ProgramResult {
  std::string Id;
  bool Ok = false;       ///< Compiled, validated, and (when checked)
                         ///< survived Theorem 1.
  bool CacheHit = false; ///< Served from the in-memory result cache.
  bool StoreHit = false; ///< Served from the persistent on-disk store.
  std::string Diagnostics;
  std::vector<FunctionReport> Bounds; ///< Sorted by function name.
  std::vector<std::string> SkippedRecursive;
  /// Theorem 1: ran the program on a stack of exactly bound(main) - 4
  /// bytes. Unchecked when main has no finite concrete bound.
  bool Theorem1Checked = false;
  bool Theorem1Ok = false;
  uint32_t Theorem1StackBytes = 0;
  /// Final classification. Ok/Failed are definitive verdicts; Quarantined
  /// and Cancelled mean the budget ran out before any verdict — the
  /// distinction Ok alone cannot express (DESIGN.md section 5d).
  JobStatus Status = JobStatus::Failed;
  /// Why the last attempt stopped short, when it did (fuel, deadline,
  /// memory budget, interrupt); None for definitive results.
  StopCause Stop = StopCause::None;
  /// Attempts beyond the first (bounded by BatchOptions::Retries).
  uint32_t Retries = 0;
  ProgramMetrics Metrics;
  /// The proof artifacts behind this verdict in stable external form
  /// (store/Serialize.h: the function context plus every automatically
  /// derived, checker-validated derivation, statements as preorder
  /// indices). Filled only when the caller asked verifyOne to keep
  /// proofs — the persistent store serializes it verbatim, and
  /// `--store-verify` re-checks it on load. Empty otherwise.
  std::string ProofBlob;
};

/// Cache counters for one batch run (or one cache lifetime).
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  /// Lookups whose primary (bucket) hash matched but whose independent
  /// verification hash did not: a genuine 64-bit collision, served as a
  /// miss instead of the wrong program's verdict.
  uint64_t Collisions = 0;
};

/// The content key of one job: two independent 64-bit digests over the
/// same material. Primary is the bucket key (FNV-1a, the PR 1 key,
/// unchanged so journals stay comparable); Verify is an unrelated second
/// hash checked on every cache or store hit, so a collision in one
/// function alone can no longer serve the cached verdict for the wrong
/// source (it surfaces as a miss and a CacheStats::Collisions tick).
struct JobKey {
  uint64_t Primary = 0;
  uint64_t Verify = 0;

  bool operator==(const JobKey &O) const {
    return Primary == O.Primary && Verify == O.Verify;
  }
  bool operator!=(const JobKey &O) const { return !(*this == O); }
};

/// A thread-safe content-addressed result cache. Keyed by JobKey —
/// bucketed on the primary hash, guarded by the verification hash — over
/// (source, options, check-mode); see jobKey. A source edit, a -D change,
/// or an option change all miss.
class ResultCache {
public:
  std::shared_ptr<const ProgramResult> lookup(const JobKey &Key);
  void insert(const JobKey &Key, std::shared_ptr<const ProgramResult> Result);
  CacheStats stats() const;
  size_t size() const;
  void clear();

private:
  struct Entry {
    uint64_t Verify;
    std::shared_ptr<const ProgramResult> Result;
  };
  mutable std::mutex M;
  std::unordered_map<uint64_t, Entry> Map;
  CacheStats Counters;
};

/// The resume journal: "<status> <32-digit-hex jobKey>" lines (primary
/// then verification hash, concatenated), appended and flushed as each
/// job reaches a definitive verdict, so a killed run loses at most the
/// jobs that were still in flight. Budget-stopped jobs are never
/// journaled — the rerun must attempt them again. Legacy 16-hex lines
/// (pre-collision-guard journals) are still read; they match on the
/// primary hash alone. runBatch and the qccd daemon share this writer,
/// so a `qcc --batch --journal` run resumes from a daemon's journal.
/// Thread-safe.
class Journal {
public:
  /// Loads the verdicts already in \p Path, then opens it for appending.
  explicit Journal(const std::string &Path);

  /// The recorded verdict for \p Key, if any (true = ok). An entry whose
  /// verification hash disagrees is a primary-hash collision: ignored, so
  /// the differing job re-verifies instead of replaying a foreign verdict.
  std::optional<bool> lookup(const JobKey &Key) const;

  /// Appends and flushes one definitive verdict; returns whether a line
  /// was written. Idempotent: a key already present (loaded at open, or
  /// recorded earlier) is not re-appended.
  bool record(const JobKey &Key, bool Ok);

private:
  struct Entry {
    uint64_t Verify = 0;
    bool HasVerify = false;
    bool Ok = false;
  };
  mutable std::mutex M;
  std::ofstream Out;
  std::unordered_map<uint64_t, Entry> Done;
};

/// The persistent result store the batch engine consults after the
/// in-memory cache: an abstract interface so the engine stays ignorant of
/// the on-disk format (store/Store.h implements it with a crash-safe,
/// content-addressed directory). Both calls must be thread-safe; \p Sup,
/// when non-null, is charged for the I/O bytes against its memory budget
/// (a budget-tripped fetch degrades to a miss; a put always completes —
/// the SIGINT drain relies on in-flight writes flushing).
class ResultStore {
public:
  virtual ~ResultStore() = default;
  /// Returns the stored result for (\p Key, \p Job), or null on miss,
  /// corruption (quarantined internally), or failed proof re-check.
  virtual std::shared_ptr<const ProgramResult>
  fetch(const JobKey &Key, const BatchJob &Job, Supervisor *Sup) = 0;
  /// Persists a definitive result. Never throws; failures are counted,
  /// not fatal (the store is an accelerator, not a dependency).
  virtual void put(const JobKey &Key, const ProgramResult &Result,
                   Supervisor *Sup) = 0;
};

/// The cache key of \p J: a content hash covering the full source text,
/// every -D define, every compilation flag, the validation fuel, the
/// seeded specifications, and whether Theorem 1 is checked.
JobKey jobKey(const BatchJob &J, bool CheckTheorem1);

/// A function-granular verification engine the batch loop can dispatch
/// to in place of \c verifyOne. Implemented by incremental::Engine: the
/// whole-file JobKey caches above still run first (they are cheaper than
/// any per-function work), and this engine handles the misses — a warm
/// edit re-verifies only the edited function and its transitive callers.
/// The contract is bit-identity: for any job, verify() must produce the
/// same verdict, bounds, diagnostics, proof blob, and deterministic
/// metrics as verifyOne(Job, CheckTheorem1, Sup, KeepProofArtifacts);
/// only timing fields and the incremental counters may differ.
class IncrementalEngine {
public:
  virtual ~IncrementalEngine() = default;
  virtual ProgramResult verify(const BatchJob &Job, bool CheckTheorem1,
                               Supervisor *Sup, bool KeepProofArtifacts) = 0;
};

/// Engine configuration.
struct BatchOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned Jobs = 0;
  /// Run each program at stack size bound(main) - 4 (Theorem 1).
  bool CheckTheorem1 = true;
  /// Optional shared result cache (caller-owned, may outlive batches).
  /// Budget-stopped results are never cached: a later attempt with more
  /// budget must get a fresh run.
  ResultCache *Cache = nullptr;
  /// Optional persistent store (caller-owned), consulted after the
  /// in-memory cache and fed on every definitive fresh verdict. A store
  /// hit also populates the in-memory cache, so same-run duplicates stay
  /// memory-fast. When set, verifyOne keeps proof artifacts so they can
  /// be persisted alongside the verdict.
  ResultStore *Store = nullptr;
  /// Per-job wall-clock deadline in milliseconds (0 = none). Enforced by
  /// a Watchdog thread; a job past its deadline stops at its next poll.
  uint64_t DeadlineMillis = 0;
  /// Per-job soft memory budget in bytes (0 = unlimited), charged by the
  /// streaming sinks and the proof checker.
  uint64_t MemoryBudgetBytes = 0;
  /// Budget-stopped jobs are retried this many times at a quarter of
  /// their validation fuel; a job that exhausts its budget on every
  /// attempt is quarantined.
  unsigned Retries = 1;
  /// Resume journal path (empty = none). Completed jobs append
  /// "<status> <jobKey>" lines; a rerun with the same journal skips jobs
  /// it already finds there. Only definitive verdicts are journaled.
  std::string JournalPath;
  /// Optional function-granular engine (caller-owned; thread-safe). When
  /// set, fresh verification attempts run through it instead of
  /// verifyOne, reusing per-function work across jobs and runs.
  IncrementalEngine *Incremental = nullptr;
  /// Batch-wide cancel token (the CLI's SIGINT handler cancels it).
  /// Every per-job supervisor is parented to it, so one cancel drains
  /// in-flight jobs at their next poll point.
  Supervisor *Interrupt = nullptr;
  /// Testing hook: invoked the moment a job's final result is known,
  /// *before* the engine flushes it to the journal. The SIGINT-drain
  /// regression tests cancel the interrupt token here to pin the
  /// completion-vs-flush race: a verdict that exists when the interrupt
  /// fires must still reach the journal (the post-quiesce re-scan
  /// guarantees it). Leave unset outside tests.
  std::function<void(const ProgramResult &)> CompletionBarrier;
};

/// The whole batch's outcome, jobs in input order.
struct BatchResult {
  std::vector<ProgramResult> Programs;
  CacheStats Cache; ///< Hits/misses attributable to this run.
  uint64_t WallMicros = 0;
  unsigned Jobs = 1; ///< Worker threads actually used.
  /// Proof-checker nodes validated by *fresh* verification work in this
  /// run — cache hits, store hits, and journal skips contribute nothing.
  /// The warm/cold acceptance criterion: a fully warm store rerun
  /// reports identical per-program metrics but zero fresh proof nodes.
  uint64_t FreshProofNodes = 0;

  bool allOk() const;

  /// Jobs served from the persistent store.
  unsigned storeHits() const;

  /// Jobs whose final status is \p S.
  unsigned countStatus(JobStatus S) const;

  /// The CLI exit-code taxonomy: 3 when any job was quarantined or
  /// cancelled (the batch could not reach a verdict everywhere — an
  /// infrastructure/budget problem, not a refutation), else 1 when any
  /// job failed verification, else 0.
  int exitCode() const;
};

/// Verifies a single job, fully instrumented: compile (+ per-pass
/// translation validation + automatic bounds) and, when \p CheckTheorem1,
/// execute at the verified bound. The engine's unit of work; exposed for
/// tests and single-file callers.
ProgramResult verifyOne(const BatchJob &Job, bool CheckTheorem1 = true);

/// Supervised variant: the compilation, validation runs, analysis and
/// Theorem-1 execution all poll \p Sup (which may be null). A stopped job
/// comes back with Status Quarantined/Cancelled and the StopCause — never
/// with a verdict. With \p KeepProofArtifacts, a successful job carries
/// its checked derivations in external form (ProgramResult::ProofBlob)
/// for the persistent store to write.
ProgramResult verifyOne(const BatchJob &Job, bool CheckTheorem1,
                        Supervisor *Sup, bool KeepProofArtifacts = false);

/// One fully governed verification, decoupled from the batch loop: the
/// in-memory cache consult, the persistent-store fetch, budgeted attempts
/// with bounded retries under a per-job Supervisor parented to
/// \p Options.Interrupt, and persistence of a definitive fresh verdict
/// back into cache and store. This is the unit the batch engine fans out
/// over a directory scan and the qccd daemon runs per protocol request —
/// both produce bit-identical results for the same (job, options).
/// \p Options.Jobs and \p Options.JournalPath are ignored (journaling is
/// the batch loop's concern); \p Dog, when non-null, enforces
/// \p Options.DeadlineMillis. \p ChargedBytes, when non-null, receives
/// the supervisor bytes charged across all attempts — what the daemon
/// bills against a client's fair-share budget.
ProgramResult runSupervisedJob(const BatchJob &Job,
                               const BatchOptions &Options, Watchdog *Dog,
                               uint64_t *ChargedBytes = nullptr);

/// Runs every job, fanning out across \p Options.Jobs workers.
BatchResult runBatch(const std::vector<BatchJob> &Jobs,
                     const BatchOptions &Options = {});

/// How much of the report metricsJson emits.
enum class JsonDetail {
  /// Everything, including wall times and cache statistics.
  Full,
  /// Omits timing fields and cache occupancy: two runs of the same jobs
  /// — serial or parallel — produce byte-identical output. What the
  /// determinism tests compare.
  Deterministic
};

/// Serializes \p R as a JSON document (schema "qcc-batch-metrics-v1"):
/// per-program pass timings, refinement event counts, proof-checker node
/// counts, bounds, and batch-level cache statistics.
std::string metricsJson(const BatchResult &R,
                        JsonDetail Detail = JsonDetail::Full);

/// The full evaluation corpus (Table 1 files, the Section 2 program, and
/// the Table 2 recursive file, the latter two seeded with their
/// interactive specs) as ready-to-run batch jobs.
std::vector<BatchJob> corpusJobs(bool ValidateTranslation = true);

} // namespace batch
} // namespace qcc

#endif // QCC_BATCH_BATCH_H
