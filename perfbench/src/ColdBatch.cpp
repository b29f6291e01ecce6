//===- perfbench/src/ColdBatch.cpp - The cold-batch workload --------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// batch::runBatch at nproc workers with no cache, store or incremental
// engine over rounds of distinct seeded jobs: every job verifies from
// scratch, so the compiler, translation validation, the analyzer and the
// pool do all the work. Shared work between jobs: none.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

using namespace qcc;

namespace perfbench {

namespace {

batch::BatchResult runRound(const std::vector<BatchJob> &Jobs,
                            unsigned Workers) {
  batch::BatchOptions BO;
  BO.Jobs = Workers;
  BO.CheckTheorem1 = true;
  return batch::runBatch(Jobs, BO);
}

/// Set-up, repeated: draw and generate one round of inputs and run it
/// once at nproc workers so lazily built process state (corpus tables,
/// interned bounds) is in place before timing. The round is the same on
/// every seed, so set-up times of different seeds measure the same work.
std::vector<double> setUp(const RunOptions &O, unsigned Times) {
  std::vector<double> Seconds;
  for (unsigned K = 0; K != Times; ++K) {
    double Cpu0 = setupCpuSeconds();
    ColdBatchDraw Warm(subSeed(0, 0xC01D, 0));
    runRound(Warm.nextRound(), O.Threads);
    Seconds.push_back(setupCpuSeconds() - Cpu0);
  }
  return Seconds;
}

void checkVerdicts(RunReport &Out, const std::vector<BatchJob> &Jobs,
                   const std::vector<ProgramResult> &Results,
                   unsigned Threads) {
  std::vector<std::pair<const BatchJob *, const ProgramResult *>> Items;
  for (size_t I = 0; I != Jobs.size(); ++I)
    Items.push_back({&Jobs[I], &Results[I]});
  for (const std::string &Why : checkAll(Items, Threads))
    Out.reject(Why);
}

RunReport timed(const RunOptions &O) {
  RunReport Out;
  std::vector<double> Setup = setUp(O, 5);

  ColdBatchDraw Draw(O.Seed);
  std::vector<BatchJob> Jobs;
  std::vector<ProgramResult> Results;
  std::vector<Window> Windows;
  double Wall = 0, PeakRss = 0;
  while (Wall < O.Seconds || PeakRss == 0) {
    std::vector<BatchJob> Round = Draw.nextRound();
    WindowClock Win;
    batch::BatchResult B = runRound(Round, O.Threads);
    Window W = Win.close(Round.size());
    for (size_t I = 0; I != Round.size(); ++I) {
      W.Latency.push_back(
          static_cast<double>(B.Programs[I].Metrics.TotalMicros) / 1e3);
      Jobs.push_back(std::move(Round[I]));
      Results.push_back(std::move(B.Programs[I]));
    }
    if (Wall < O.Seconds) {
      Wall += W.Seconds;
      Windows.push_back(std::move(W));
    }
    if (PeakRss == 0 && Jobs.size() >= PeakRssAfterJobs)
      PeakRss = peakRssMiB();
  }
  Out.Attempted = Jobs.size();
  reportEndToEnd(Out, Windows, Setup, PeakRss);
  unsigned Diagnosed = 0;
  for (const ProgramResult &R : Results)
    Diagnosed += !R.Ok;
  Out.Notes.push_back(std::to_string(Jobs.size()) + " distinct jobs in " +
                      std::to_string(Jobs.size() / ColdBatchDraw::RoundSize) +
                      " rounds at " + std::to_string(O.Threads) +
                      " workers; " + std::to_string(Diagnosed) +
                      " diagnosed (checked against the uncached reference)");
  checkVerdicts(Out, Jobs, Results, O.Threads);
  return Out;
}

/// Traced run: rounds of the same draw replayed serially through every
/// module's entry points under spans, then through runBatch at 1 and at
/// nproc workers for the pool metrics; the serial runBatch is the
/// untraced twin of the replay, so their difference is the tracing
/// overhead. Layers this workload never reaches (store, incremental
/// engine, daemon) read 0.
RunReport traced(const RunOptions &O) {
  RunReport Out;
  setUp(O, 1);
  SpanRecorder Rec(true);
  LayerTotals Totals;
  ColdBatchDraw Draw(O.Seed);
  std::vector<BatchJob> Jobs;
  std::vector<ProgramResult> Results;
  double Replay = 0, Wall1 = 0, WallN = 0, Job1 = 0, JobN = 0;
  uint64_t Request = 0;
  auto Start = Clock::now();
  do {
    std::vector<BatchJob> Round = Draw.nextRound();
    std::vector<ProgramResult> Replayed;
    auto T0 = Clock::now();
    for (const BatchJob &J : Round)
      Replayed.push_back(tracePipeline(J, Rec, ++Request, Totals));
    Replay += secondsSince(T0);
    batch::BatchResult B1 = runRound(Round, 1);
    batch::BatchResult BN = runRound(Round, O.Threads);
    Wall1 += static_cast<double>(B1.WallMicros) / 1e6;
    WallN += static_cast<double>(BN.WallMicros) / 1e6;
    for (size_t I = 0; I != Round.size(); ++I) {
      Job1 += static_cast<double>(B1.Programs[I].Metrics.TotalMicros);
      JobN += static_cast<double>(BN.Programs[I].Metrics.TotalMicros);
      const ProgramResult &A = Replayed[I], &B = BN.Programs[I];
      bool Same = A.Ok == B.Ok &&
                  (!A.Ok || Oracle::sameVerdict(A, B).empty());
      if (!Same)
        Out.reject(Round[I].Id + ": traced replay verdict differs from runBatch");
      Jobs.push_back(std::move(Round[I]));
      Results.push_back(std::move(BN.Programs[I]));
    }
  } while (secondsSince(Start) < O.Seconds);

  addLayerSelfTimes(Rec.spans(), Totals);
  double N = static_cast<double>(Jobs.size());
  for (auto &[Name, V] : Totals)
    V /= N; // Per-job means.
  double ValidateSeconds = Totals["validate.ms"] / 1e3;
  Totals["validate.events_per_s"] =
      ValidateSeconds > 0 ? Totals["validate.events"] / ValidateSeconds
                          : 0;
  Totals["batch.speedup"] = WallN > 0 ? Wall1 / WallN : 0;
  Totals["batch.job_time_inflation"] = Job1 > 0 ? JobN / Job1 : 0;
  Totals["batch.worker_busy_ratio"] =
      WallN > 0 ? JobN / 1e6 / (WallN * O.Threads) : 0;
  Totals["trace.overhead_pct"] =
      Wall1 > 0 ? (Replay - Wall1) / Wall1 * 100 : 0;
  for (const auto &[Name, Unit] : perLayerMetrics())
    Out.metric(Name, Totals[Name], Unit.c_str());
  Out.Attempted = Jobs.size();
  char Line[160];
  std::snprintf(Line, sizeof Line,
                "batch: speedup %.2fx at %u workers (1-worker wall %.3f s, "
                "%u-worker wall %.3f s over %zu jobs)",
                Totals["batch.speedup"], O.Threads, Wall1, O.Threads,
                WallN, Jobs.size());
  Out.Notes.push_back(Line);
  if (!O.TraceOut.empty() && !Rec.writeJsonLines(O.TraceOut))
    Out.Notes.push_back("could not write spans to " + O.TraceOut);
  checkVerdicts(Out, Jobs, Results, O.Threads);
  return Out;
}

} // namespace

RunReport runColdBatch(const RunOptions &O) {
  return O.Trace ? traced(O) : timed(O);
}

} // namespace perfbench
