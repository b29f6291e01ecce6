//===- batch/Batch.cpp - Parallel batch-verification engine ---------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "batch/Batch.h"

#include "batch/ThreadPool.h"
#include "batch/Watchdog.h"
#include "programs/Corpus.h"
#include "store/Serialize.h"
#include "support/Hash.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <thread>

using namespace qcc;
using namespace qcc::batch;

//===----------------------------------------------------------------------===//
// Result cache
//===----------------------------------------------------------------------===//

std::shared_ptr<const ProgramResult> ResultCache::lookup(const JobKey &Key) {
  std::lock_guard<std::mutex> G(M);
  auto It = Map.find(Key.Primary);
  if (It == Map.end()) {
    ++Counters.Misses;
    return nullptr;
  }
  if (It->second.Verify != Key.Verify) {
    // The primary hash collided but the independent hash disagrees: two
    // distinct inputs share a bucket. Serving the stored verdict here
    // would attribute one program's result to another — the exact bug the
    // verification hash exists to exclude. A miss re-verifies honestly.
    ++Counters.Collisions;
    ++Counters.Misses;
    return nullptr;
  }
  ++Counters.Hits;
  return It->second.Result;
}

void ResultCache::insert(const JobKey &Key,
                         std::shared_ptr<const ProgramResult> Result) {
  std::lock_guard<std::mutex> G(M);
  Map[Key.Primary] = Entry{Key.Verify, std::move(Result)};
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> G(M);
  return Counters;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> G(M);
  return Map.size();
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> G(M);
  Map.clear();
  Counters = {};
}

const char *qcc::batch::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Ok: return "ok";
  case JobStatus::Failed: return "failed";
  case JobStatus::Quarantined: return "quarantined";
  case JobStatus::SkippedFromJournal: return "skipped";
  case JobStatus::Cancelled: return "cancelled";
  }
  return "?";
}

JobKey qcc::batch::jobKey(const BatchJob &J, bool CheckTheorem1) {
  Hash128 H;
  H.str(J.Source);
  const driver::CompilerOptions &O = J.Options;
  H.u64(O.Defines.size());
  for (const auto &[Name, Value] : O.Defines)
    H.str(Name).u64(Value);
  H.boolean(O.Optimize)
      .boolean(O.Inline)
      .boolean(O.TailCalls)
      .boolean(O.ValidateTranslation)
      .boolean(O.AnalyzeBounds)
      .boolean(CheckTheorem1)
      .u64(O.ValidationFuel);
  // Seeded specs hash by their canonical rendering (bound expressions are
  // immutable trees with a stable printer).
  H.u64(O.SeededSpecs.size());
  for (const auto &[F, Spec] : O.SeededSpecs) {
    H.str(F).str(Spec.Pre->str()).str(Spec.Post->str());
    H.u64(Spec.ResultFacts.size());
    for (const logic::Cmp &Fact : Spec.ResultFacts)
      H.str(Fact.str());
  }
  return JobKey{H.primary(), H.verify()};
}

//===----------------------------------------------------------------------===//
// Single-job verification
//===----------------------------------------------------------------------===//

ProgramResult qcc::batch::verifyOne(const BatchJob &Job,
                                    bool CheckTheorem1) {
  return verifyOne(Job, CheckTheorem1, nullptr, false);
}

ProgramResult qcc::batch::verifyOne(const BatchJob &Job, bool CheckTheorem1,
                                    Supervisor *Sup,
                                    bool KeepProofArtifacts) {
  auto Start = std::chrono::steady_clock::now();
  ProgramResult R;
  R.Id = Job.Id;

  DiagnosticEngine Diags;
  driver::PassStats Stats;
  driver::CompilerOptions Opts = Job.Options;
  Opts.Supervision = Sup;
  auto C = driver::compile(Job.Source, Diags, Opts, &Stats);
  R.Metrics.PassMicros = std::move(Stats.PassMicros);
  R.Metrics.ReplayedEvents = std::move(Stats.ReplayedEvents);
  R.Metrics.ProofNodes = Stats.ProofNodes;
  R.Metrics.ProofCheckMicros = Stats.ProofCheckMicros;
  R.Metrics.ProofRuleNodes = std::move(Stats.ProofRuleNodes);

  if (C) {
    R.Ok = true;
    for (const auto &[F, Spec] : C->Bounds.Gamma) {
      FunctionReport FR;
      FR.Function = F;
      if (logic::BoundExpr B = C->Bounds.callBound(F))
        FR.SymbolicBound = B->str();
      FR.ConcreteBytes = driver::concreteCallBound(*C, F);
      R.Bounds.push_back(std::move(FR));
    }
    R.SkippedRecursive = C->Bounds.SkippedRecursive;
    if (KeepProofArtifacts)
      // Serialize while the Clight program (whose statements the
      // derivations reference) is still alive; the blob outlives it.
      // Straight from the flat form the checker walked — same bytes the
      // tree encoder would emit, no pointer chase.
      R.ProofBlob = store::encodeProofsForest(C->Bounds.Gamma,
                                              C->Bounds.Forest, C->Clight);

    if (CheckTheorem1) {
      auto MainBound = driver::concreteCallBound(*C, "main");
      if (MainBound && *MainBound >= 4) {
        R.Theorem1Checked = true;
        R.Theorem1StackBytes = static_cast<uint32_t>(*MainBound - 4);
        // Theorem 1 gets ten times the per-level validation fuel (the
        // x86 default at default options), so its budget scales with the
        // job's rather than being a separate hardcoded knob.
        measure::Measurement M = driver::runWithStackSize(
            *C, R.Theorem1StackBytes, Opts.ValidationFuel * 10, Sup);
        R.Theorem1Ok = M.Ok;
        if (!M.Ok) {
          R.Ok = false;
          if (M.Stop != StopCause::None) {
            // The run stopped short of a verdict: fuel, deadline, memory
            // or cancellation. Explicitly NOT "Theorem 1 violated" — a
            // budget stop refutes nothing (DESIGN.md section 5d).
            R.Stop = M.Stop;
            Diags.error(SourceLoc(),
                        std::string("Theorem 1 check stopped: ") +
                            stopCauseName(M.Stop));
          } else {
            Diags.error(SourceLoc(),
                        "Theorem 1 violated at stack size " +
                            std::to_string(R.Theorem1StackBytes) + ": " +
                            M.Error);
          }
        }
      }
    }
  } else if (Sup && Sup->stopRequested()) {
    R.Stop = Sup->cause();
  }

  R.Status = R.Stop == StopCause::None
                 ? (R.Ok ? JobStatus::Ok : JobStatus::Failed)
                 : (R.Stop == StopCause::Cancelled ? JobStatus::Cancelled
                                                   : JobStatus::Quarantined);
  R.Diagnostics = Diags.str();
  auto End = std::chrono::steady_clock::now();
  R.Metrics.TotalMicros =
      std::chrono::duration_cast<std::chrono::microseconds>(End - Start)
          .count();
  return R;
}

//===----------------------------------------------------------------------===//
// The engine
//===----------------------------------------------------------------------===//

bool BatchResult::allOk() const {
  return std::all_of(Programs.begin(), Programs.end(),
                     [](const ProgramResult &R) { return R.Ok; });
}

unsigned BatchResult::storeHits() const {
  return static_cast<unsigned>(
      std::count_if(Programs.begin(), Programs.end(),
                    [](const ProgramResult &R) { return R.StoreHit; }));
}

unsigned BatchResult::countStatus(JobStatus S) const {
  return static_cast<unsigned>(
      std::count_if(Programs.begin(), Programs.end(),
                    [S](const ProgramResult &R) { return R.Status == S; }));
}

int BatchResult::exitCode() const {
  bool NoVerdict = false, Refuted = false;
  for (const ProgramResult &P : Programs) {
    if (P.Status == JobStatus::Quarantined ||
        P.Status == JobStatus::Cancelled)
      NoVerdict = true;
    else if (!P.Ok) // Failed, or a journaled failure replayed as skipped.
      Refuted = true;
  }
  return NoVerdict ? 3 : Refuted ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// Resume journal
//===----------------------------------------------------------------------===//

Journal::Journal(const std::string &Path) {
  std::ifstream In(Path);
  std::string Status, Hex;
  while (In >> Status >> Hex) {
    bool Ok;
    if (Status == "ok")
      Ok = true;
    else if (Status == "failed")
      Ok = false;
    else
      continue; // Unknown words: tolerated for forward compatibility.
    if (Hex.size() != 16 && Hex.size() != 32)
      continue;
    uint64_t Primary = std::strtoull(Hex.substr(0, 16).c_str(), nullptr, 16);
    Entry E;
    E.Ok = Ok;
    if (Hex.size() == 32) {
      E.Verify = std::strtoull(Hex.substr(16).c_str(), nullptr, 16);
      E.HasVerify = true;
    }
    Done[Primary] = E;
  }
  In.close();
  Out.open(Path, std::ios::app);
}

std::optional<bool> Journal::lookup(const JobKey &Key) const {
  std::lock_guard<std::mutex> G(M);
  auto It = Done.find(Key.Primary);
  if (It == Done.end())
    return std::nullopt;
  if (It->second.HasVerify && It->second.Verify != Key.Verify)
    return std::nullopt;
  return It->second.Ok;
}

bool Journal::record(const JobKey &Key, bool Ok) {
  std::lock_guard<std::mutex> G(M);
  auto It = Done.find(Key.Primary);
  if (It != Done.end() &&
      (!It->second.HasVerify || It->second.Verify == Key.Verify))
    return false;
  Done[Key.Primary] = Entry{Key.Verify, /*HasVerify=*/true, Ok};
  char Line[48];
  std::snprintf(Line, sizeof Line, " %016llx%016llx\n",
                static_cast<unsigned long long>(Key.Primary),
                static_cast<unsigned long long>(Key.Verify));
  Out << (Ok ? "ok" : "failed") << Line;
  Out.flush();
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// One governed job, decoupled from the batch loop
//===----------------------------------------------------------------------===//

ProgramResult qcc::batch::runSupervisedJob(const BatchJob &J,
                                           const BatchOptions &Options,
                                           Watchdog *Dog,
                                           uint64_t *ChargedBytes) {
  JobKey Key = jobKey(J, Options.CheckTheorem1);
  if (ChargedBytes)
    *ChargedBytes = 0;

  if (Options.Interrupt && Options.Interrupt->stopRequested()) {
    ProgramResult R;
    R.Id = J.Id;
    R.Status = JobStatus::Cancelled;
    R.Stop = Options.Interrupt->cause();
    R.Diagnostics = "cancelled before start";
    return R;
  }
  if (Options.Cache) {
    if (auto Hit = Options.Cache->lookup(Key)) {
      ProgramResult R = *Hit;
      R.Id = J.Id; // Identical content may carry another id.
      R.CacheHit = true;
      return R;
    }
  }

  // Per-job supervisor, parented to the caller's interrupt token (the
  // batch-wide SIGINT token, or a qccd connection's supervisor) so one
  // cancel upstream drains this job at its next poll point.
  Supervisor Sup(Options.Interrupt);
  uint64_t Charged = 0;

  ProgramResult Final;
  bool Served = false;
  if (Options.Store) {
    // Store I/O is charged against the same per-job memory budget the
    // sinks and the proof checker charge; an entry too large for the
    // budget degrades to a miss (Attempt resets the supervisor below).
    if (Options.MemoryBudgetBytes)
      Sup.setMemoryBudget(Options.MemoryBudgetBytes);
    if (auto Hit = Options.Store->fetch(Key, J, &Sup)) {
      Final = *Hit;
      Final.Id = J.Id;
      Final.StoreHit = true;
      Served = true;
      Charged += Sup.chargedBytes();
      if (Options.Cache)
        Options.Cache->insert(Key, std::move(Hit));
    }
  }

  if (!Served) {
    // Sup.reset() clears the charge counter between attempts, so billing
    // accumulates per attempt, plus whatever the final store put charges
    // on top of the last attempt's snapshot.
    uint64_t LastAttemptCharge = 0;
    auto Attempt = [&](uint64_t Fuel) {
      Sup.reset();
      if (Options.MemoryBudgetBytes)
        Sup.setMemoryBudget(Options.MemoryBudgetBytes);
      if (Dog) {
        Sup.armDeadline(Options.DeadlineMillis);
        Dog->watch(&Sup);
      }
      BatchJob A = J;
      A.Options.ValidationFuel = Fuel;
      bool KeepProofs = Options.Store != nullptr;
      ProgramResult R =
          Options.Incremental
              ? Options.Incremental->verify(A, Options.CheckTheorem1, &Sup,
                                            KeepProofs)
              : verifyOne(A, Options.CheckTheorem1, &Sup, KeepProofs);
      if (Dog)
        Dog->unwatch(&Sup);
      LastAttemptCharge = Sup.chargedBytes();
      Charged += LastAttemptCharge;
      return R;
    };

    ProgramResult R = Attempt(J.Options.ValidationFuel);
    uint64_t SpentMicros = R.Metrics.TotalMicros;
    unsigned Tries = 0;
    while (R.Status == JobStatus::Quarantined && Tries < Options.Retries) {
      // One bounded retry at a quarter of the fuel: a transient stop
      // (contended deadline on an oversubscribed pool) gets a second,
      // cheaper chance; a genuinely divergent job exhausts again and is
      // quarantined for good.
      ++Tries;
      R = Attempt(std::max<uint64_t>(Supervisor::PollMask + 1,
                                     J.Options.ValidationFuel / 4));
      R.Retries = Tries;
      SpentMicros += R.Metrics.TotalMicros;
    }
    R.Metrics.TotalMicros = SpentMicros; // Wall clock across all attempts.

    bool Definitive =
        R.Status == JobStatus::Ok || R.Status == JobStatus::Failed;
    if (Definitive && (Options.Cache || Options.Store)) {
      auto Shared = std::make_shared<ProgramResult>(R);
      if (Options.Cache)
        Options.Cache->insert(Key, Shared);
      if (Options.Store)
        // Runs to completion even when the interrupt has fired: this
        // job's verdict is already paid for, and the SIGINT drain
        // contract is that every definitive in-flight result reaches the
        // journal AND the store before the process exits.
        Options.Store->put(Key, *Shared, &Sup);
      Charged += Sup.chargedBytes() - LastAttemptCharge;
    }
    Final = std::move(R);
  }

  if (ChargedBytes)
    *ChargedBytes = Charged;
  return Final;
}

BatchResult qcc::batch::runBatch(const std::vector<BatchJob> &Jobs,
                                 const BatchOptions &Options) {
  BatchResult Out;
  Out.Programs.resize(Jobs.size());
  unsigned Workers = Options.Jobs
                         ? Options.Jobs
                         : std::max(1u, std::thread::hardware_concurrency());
  Out.Jobs = Workers;
  CacheStats Before = Options.Cache ? Options.Cache->stats() : CacheStats{};
  auto Start = std::chrono::steady_clock::now();

  std::optional<Journal> Resume;
  if (!Options.JournalPath.empty())
    Resume.emplace(Options.JournalPath);
  std::optional<Watchdog> Dog;
  if (Options.DeadlineMillis)
    // Tick at ~1/8 of the deadline (clamped to [2ms, 250ms]): tight
    // deadlines get millisecond enforcement, generous ones don't pay for
    // a thread waking 500 times a second on a saturated pool.
    Dog.emplace(std::clamp<uint64_t>(Options.DeadlineMillis / 8, 2, 250));

  auto RunOne = [&](size_t I) {
    const BatchJob &J = Jobs[I];
    ProgramResult &Slot = Out.Programs[I];
    JobKey Key = jobKey(J, Options.CheckTheorem1);

    if (Resume) {
      if (auto Recorded = Resume->lookup(Key)) {
        Slot.Id = J.Id;
        Slot.Ok = *Recorded;
        Slot.Status = JobStatus::SkippedFromJournal;
        Slot.Diagnostics =
            "skipped: finished in a previous run (resume journal)";
        return;
      }
    }

    Slot = runSupervisedJob(J, Options, Dog ? &*Dog : nullptr);

    // The completion-vs-flush window the drain re-scan below closes: the
    // verdict exists here, but is not yet in the journal. The regression
    // tests cancel the interrupt token at this barrier.
    if (Options.CompletionBarrier)
      Options.CompletionBarrier(Slot);

    if (Resume &&
        (Slot.Status == JobStatus::Ok || Slot.Status == JobStatus::Failed))
      Resume->record(Key, Slot.Ok);
  };

  if (Workers <= 1 || Jobs.size() <= 1) {
    for (size_t I = 0; I != Jobs.size(); ++I)
      RunOne(I);
  } else {
    ThreadPool Pool(Workers);
    Pool.parallelFor(Jobs.size(), RunOne);
  }

  // SIGINT-drain completeness: after the pool quiesces, re-scan every
  // completed slot and journal any definitive verdict the inline path
  // did not record (Journal::record is idempotent, so double recording
  // is impossible). This closes two holes: a verdict served warm from
  // the cache or store used to bypass the journal entirely — an
  // interrupted run would re-fetch (or, after eviction, re-verify) work
  // it had already finished — and any future completion path that
  // returns before the inline record cannot silently drop its verdict.
  if (Resume)
    for (size_t I = 0; I != Jobs.size(); ++I) {
      const ProgramResult &P = Out.Programs[I];
      if (P.Status == JobStatus::Ok || P.Status == JobStatus::Failed)
        Resume->record(jobKey(Jobs[I], Options.CheckTheorem1), P.Ok);
    }

  auto End = std::chrono::steady_clock::now();
  Out.WallMicros =
      std::chrono::duration_cast<std::chrono::microseconds>(End - Start)
          .count();
  for (const ProgramResult &P : Out.Programs)
    if (!P.CacheHit && !P.StoreHit &&
        P.Status != JobStatus::SkippedFromJournal)
      Out.FreshProofNodes += P.Metrics.ProofNodes;
  if (Options.Cache) {
    CacheStats After = Options.Cache->stats();
    Out.Cache.Hits = After.Hits - Before.Hits;
    Out.Cache.Misses = After.Misses - Before.Misses;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON serialization
//===----------------------------------------------------------------------===//

namespace {

void jsonEscape(const std::string &S, std::string &Out) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        snprintf(Buf, sizeof Buf, "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void jsonStr(const std::string &S, std::string &Out) {
  Out += '"';
  jsonEscape(S, Out);
  Out += '"';
}

void jsonKey(const char *K, std::string &Out) {
  Out += '"';
  Out += K;
  Out += "\":";
}

/// {"name": <pass>, "<field>": <count>} pairs list.
void jsonPairs(const char *Field,
               const std::vector<std::pair<std::string, uint64_t>> &Pairs,
               std::string &Out) {
  Out += '[';
  bool First = true;
  for (const auto &[Name, Count] : Pairs) {
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"name\":";
    jsonStr(Name, Out);
    Out += ",";
    jsonKey(Field, Out);
    Out += std::to_string(Count);
    Out += '}';
  }
  Out += ']';
}

} // namespace

std::string qcc::batch::metricsJson(const BatchResult &R,
                                    JsonDetail Detail) {
  bool Timings = Detail == JsonDetail::Full;
  std::string Out;
  Out += "{\"schema\":\"qcc-batch-metrics-v1\",";
  jsonKey("exit_code", Out);
  Out += std::to_string(R.exitCode()) + ",";
  jsonKey("quarantined", Out);
  Out += std::to_string(R.countStatus(JobStatus::Quarantined)) + ",";
  jsonKey("cancelled", Out);
  Out += std::to_string(R.countStatus(JobStatus::Cancelled)) + ",";
  jsonKey("skipped", Out);
  Out += std::to_string(R.countStatus(JobStatus::SkippedFromJournal)) + ",";
  if (Timings) {
    jsonKey("jobs", Out);
    Out += std::to_string(R.Jobs) + ",";
    jsonKey("wall_us", Out);
    Out += std::to_string(R.WallMicros) + ",";
    jsonKey("cache", Out);
    Out += "{\"hits\":" + std::to_string(R.Cache.Hits) +
           ",\"misses\":" + std::to_string(R.Cache.Misses) +
           ",\"collisions\":" + std::to_string(R.Cache.Collisions) + "},";
    jsonKey("store_hits", Out);
    Out += std::to_string(R.storeHits()) + ",";
    jsonKey("fresh_proof_nodes", Out);
    Out += std::to_string(R.FreshProofNodes) + ",";
  }
  jsonKey("programs", Out);
  Out += '[';
  for (size_t I = 0; I != R.Programs.size(); ++I) {
    const ProgramResult &P = R.Programs[I];
    if (I)
      Out += ',';
    Out += "{\"id\":";
    jsonStr(P.Id, Out);
    Out += ",\"ok\":";
    Out += P.Ok ? "true" : "false";
    Out += ",\"status\":";
    jsonStr(jobStatusName(P.Status), Out);
    Out += ",\"stop\":";
    jsonStr(stopCauseName(P.Stop), Out);
    Out += ",\"retries\":";
    Out += std::to_string(P.Retries);
    if (Timings) {
      Out += ",\"cache_hit\":";
      Out += P.CacheHit ? "true" : "false";
      Out += ",\"store_hit\":";
      Out += P.StoreHit ? "true" : "false";
    }
    Out += ",\"diagnostics\":";
    jsonStr(P.Diagnostics, Out);
    Out += ",\"bounds\":[";
    for (size_t B = 0; B != P.Bounds.size(); ++B) {
      const FunctionReport &F = P.Bounds[B];
      if (B)
        Out += ',';
      Out += "{\"function\":";
      jsonStr(F.Function, Out);
      Out += ",\"symbolic\":";
      jsonStr(F.SymbolicBound, Out);
      Out += ",\"bytes\":";
      Out += F.ConcreteBytes ? std::to_string(*F.ConcreteBytes) : "null";
      Out += '}';
    }
    Out += "],\"skipped_recursive\":[";
    for (size_t S = 0; S != P.SkippedRecursive.size(); ++S) {
      if (S)
        Out += ',';
      jsonStr(P.SkippedRecursive[S], Out);
    }
    Out += "],\"theorem1\":{\"checked\":";
    Out += P.Theorem1Checked ? "true" : "false";
    Out += ",\"ok\":";
    Out += P.Theorem1Ok ? "true" : "false";
    Out += ",\"stack_bytes\":";
    Out += std::to_string(P.Theorem1StackBytes);
    Out += "},\"metrics\":{";
    if (Timings) {
      jsonKey("total_us", Out);
      Out += std::to_string(P.Metrics.TotalMicros) + ",";
      jsonKey("passes", Out);
      jsonPairs("us", P.Metrics.PassMicros, Out);
      Out += ',';
      // The proof-check phase, split out of "analyze": how long the
      // checker itself ran and what it walked, per rule.
      jsonKey("proof_check_ms", Out);
      {
        char Ms[32];
        std::snprintf(Ms, sizeof Ms, "%.3f",
                      static_cast<double>(P.Metrics.ProofCheckMicros) /
                          1000.0);
        Out += Ms;
      }
      Out += ',';
      jsonKey("proof_rule_nodes", Out);
      jsonPairs("nodes", P.Metrics.ProofRuleNodes, Out);
      Out += ',';
      // How the verdict was produced, not what it is: Full-detail only,
      // so warm and cold runs stay byte-identical at Deterministic.
      jsonKey("incremental", Out);
      Out += "{\"funcs_reused\":" + std::to_string(P.Metrics.FuncsReused) +
             ",\"funcs_reverified\":" +
             std::to_string(P.Metrics.FuncsReVerified) +
             ",\"funcs_invalidated\":" +
             std::to_string(P.Metrics.FuncsInvalidated) +
             ",\"interned_bounds\":" +
             std::to_string(P.Metrics.InternedBounds) +
             ",\"arena_high_water\":" +
             std::to_string(P.Metrics.ArenaHighWater) +
             ",\"reverified_functions\":[";
      for (size_t F = 0; F != P.Metrics.ReVerifiedFunctions.size(); ++F) {
        if (F)
          Out += ',';
        jsonStr(P.Metrics.ReVerifiedFunctions[F], Out);
      }
      Out += "]},";
    }
    jsonKey("refinement_events", Out);
    jsonPairs("events", P.Metrics.ReplayedEvents, Out);
    Out += ',';
    jsonKey("proof_nodes", Out);
    Out += std::to_string(P.Metrics.ProofNodes);
    Out += "}}";
  }
  Out += "]}";
  return Out;
}

//===----------------------------------------------------------------------===//
// The built-in corpus as batch jobs
//===----------------------------------------------------------------------===//

std::vector<BatchJob> qcc::batch::corpusJobs(bool ValidateTranslation) {
  std::vector<BatchJob> Jobs;
  for (programs::VerificationUnit &U : programs::verificationCorpus()) {
    BatchJob J;
    J.Id = std::move(U.Id);
    J.Source = std::move(U.Source);
    J.Options.ValidateTranslation = ValidateTranslation;
    J.Options.SeededSpecs = std::move(U.SeededSpecs);
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}
