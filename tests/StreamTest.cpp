//===- tests/StreamTest.cpp - Streaming-vs-recording differentials --------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming trace pipeline must be *observationally identical* to
/// the materialized one: same weights under every metric, same summaries,
/// and bit-identical refinement / falsification verdicts. These tests
/// check that on random synthetic traces (bracketed and ill-bracketed),
/// on every corpus program at every pipeline level, and on the fuzz
/// regression seeds. A final test hammers the shared SymbolTable and the
/// sinks from many threads (the batch engine compiles concurrently, so
/// this file rides in the TSan `batch` slice).
///
//===----------------------------------------------------------------------===//

#include "cminor/CminorInterp.h"
#include "driver/Compiler.h"
#include "events/Refinement.h"
#include "events/SymbolTable.h"
#include "events/TraceSink.h"
#include "events/Weight.h"
#include "interp/Interp.h"
#include "mach/Mach.h"
#include "programs/Corpus.h"
#include "rtl/Rtl.h"
#include "x86/Machine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace qcc;

namespace {

class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }

private:
  uint64_t State;
};

const char *Funcs[] = {"f", "g", "h"};

Trace randomBracketedTrace(Rng &R, unsigned MaxEvents) {
  Trace T;
  std::vector<std::string> Open;
  for (unsigned I = 0; I != MaxEvents; ++I) {
    switch (R.below(4)) {
    case 0:
      T.push_back(Event::call(Funcs[R.below(3)]));
      Open.push_back(T.back().function());
      break;
    case 1:
      if (!Open.empty()) {
        T.push_back(Event::ret(Open.back()));
        Open.pop_back();
      }
      break;
    default:
      T.push_back(
          Event::external("io", {static_cast<int32_t>(R.below(9))}, 0));
      break;
    }
  }
  if (R.below(2)) // Half the time leave the calls open.
    while (!Open.empty()) {
      T.push_back(Event::ret(Open.back()));
      Open.pop_back();
    }
  return T;
}

/// Arbitrary event soup: returns without matching calls, interleaved
/// closings — everything the accumulators claim to handle.
Trace randomIllBracketedTrace(Rng &R, unsigned MaxEvents) {
  Trace T;
  for (unsigned I = 0; I != MaxEvents; ++I) {
    switch (R.below(3)) {
    case 0:
      T.push_back(Event::call(Funcs[R.below(3)]));
      break;
    case 1:
      T.push_back(Event::ret(Funcs[R.below(3)]));
      break;
    default:
      T.push_back(
          Event::external("io", {static_cast<int32_t>(R.below(9))}, 0));
      break;
    }
  }
  return T;
}

StackMetric randomMetric(Rng &R) {
  StackMetric M;
  for (const char *F : Funcs)
    M.setCost(F, R.below(256));
  M.setCost("io", R.below(256));
  return M;
}

void expectSummaryEq(const RefinementSummary &A, const RefinementSummary &B,
                     const std::string &What) {
  EXPECT_EQ(A.Kind, B.Kind) << What;
  EXPECT_EQ(A.ReturnCode, B.ReturnCode) << What;
  EXPECT_EQ(A.FailureReason, B.FailureReason) << What;
  EXPECT_EQ(A.EventCount, B.EventCount) << What;
  EXPECT_EQ(A.IOHashA, B.IOHashA) << What;
  EXPECT_EQ(A.IOHashB, B.IOHashB) << What;
  EXPECT_EQ(A.IOCount, B.IOCount) << What;
  EXPECT_EQ(A.MemHashA, B.MemHashA) << What;
  EXPECT_EQ(A.MemHashB, B.MemHashB) << What;
  EXPECT_EQ(A.MemCount, B.MemCount) << What;
  EXPECT_EQ(A.Alphabet, B.Alphabet) << What;
  EXPECT_EQ(A.Peaks, B.Peaks) << What;
}

//===----------------------------------------------------------------------===//
// Synthetic traces
//===----------------------------------------------------------------------===//

class StreamDifferential : public testing::TestWithParam<uint64_t> {};

TEST_P(StreamDifferential, OnlineWeightMatchesMaterialized) {
  Rng R(GetParam());
  for (unsigned Round = 0; Round != 200; ++Round) {
    Trace T = Round % 2 ? randomBracketedTrace(R, 32)
                        : randomIllBracketedTrace(R, 32);
    StackMetric M = randomMetric(R);
    WeightAccumulator W(M);
    for (const Event &E : T)
      W.onEvent(E);
    EXPECT_EQ(W.weight(), weight(M, T));
    EXPECT_EQ(W.valuation(), valuation(M, T));
  }
}

TEST_P(StreamDifferential, PeakWeightMatchesMaterializedUnderAnyMetric) {
  Rng R(GetParam());
  for (unsigned Round = 0; Round != 200; ++Round) {
    Trace T = Round % 2 ? randomBracketedTrace(R, 32)
                        : randomIllBracketedTrace(R, 32);
    RefinementSummary S = summarize(Behavior::converges(T, 0));
    for (unsigned K = 0; K != 8; ++K) {
      StackMetric M = randomMetric(R);
      EXPECT_EQ(weight(M, S), weight(M, T)) << "round " << Round;
    }
  }
}

TEST_P(StreamDifferential, StreamedSummaryEqualsReplayedSummary) {
  Rng R(GetParam());
  for (unsigned Round = 0; Round != 100; ++Round) {
    Trace T = Round % 2 ? randomBracketedTrace(R, 32)
                        : randomIllBracketedTrace(R, 32);
    Behavior B = Behavior::converges(T, static_cast<int32_t>(R.below(5)));
    // Stream the events directly...
    RefinementAccumulator A;
    for (const Event &E : T)
      A.onEvent(E);
    Outcome O = Outcome::converges(B.ReturnCode);
    // ...and compare against the replay bridge.
    expectSummaryEq(A.finish(O), summarize(B), "round " +
                                                   std::to_string(Round));
  }
}

TEST_P(StreamDifferential, RefinementVerdictsMatchOnRandomPairs) {
  Rng R(GetParam());
  for (unsigned Round = 0; Round != 150; ++Round) {
    Trace TT = Round % 2 ? randomBracketedTrace(R, 24)
                         : randomIllBracketedTrace(R, 24);
    Trace TS = Round % 3 ? randomBracketedTrace(R, 24)
                         : randomIllBracketedTrace(R, 24);
    // A third of the rounds compare a trace against itself or its pruned
    // form so the OK paths (certificates 1 and 2) are exercised too.
    if (Round % 3 == 0)
      TS = TT;
    if (Round % 7 == 0)
      TT = pruneMemoryEvents(TS);
    Behavior BT = Behavior::converges(TT, 0);
    Behavior BS = Behavior::converges(TS, 0);
    RefinementSummary ST = summarize(BT);
    RefinementSummary SS = summarize(BS);

    EXPECT_EQ(checkClassicRefinement(BT, BS).Ok,
              checkClassicRefinement(ST, SS).Ok)
        << "round " << Round;
    EXPECT_EQ(checkQuantitativeRefinement(BT, BS).Ok,
              checkQuantitativeRefinement(ST, SS).Ok)
        << "round " << Round;

    RefinementResult FT = falsifyWeightDominance(BT, BS);
    RefinementResult FS = falsifyWeightDominance(ST, SS);
    EXPECT_EQ(FT.Ok, FS.Ok) << "round " << Round;
    // Same deterministic metric stream: the *first* falsifying metric —
    // and hence the whole message — must agree, not just the verdict.
    EXPECT_EQ(FT.Reason, FS.Reason) << "round " << Round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamDifferential,
                         testing::Range<uint64_t>(1, 6));

TEST(StreamDifferential, FalsifierFindsTheSameCounterexample) {
  // Target strictly deeper than source: domination fails and both
  // falsifiers must report the identical first falsifying metric.
  Trace Deep = {Event::call("f"), Event::call("f"), Event::ret("f"),
                Event::ret("f")};
  Trace Shallow = {Event::call("f"), Event::ret("f")};
  Behavior BT = Behavior::converges(Deep, 0);
  Behavior BS = Behavior::converges(Shallow, 0);
  RefinementResult FT = falsifyWeightDominance(BT, BS);
  RefinementResult FS = falsifyWeightDominance(summarize(BT), summarize(BS));
  EXPECT_FALSE(FT.Ok);
  EXPECT_FALSE(FS.Ok);
  EXPECT_EQ(FT.Reason, FS.Reason);
}

//===----------------------------------------------------------------------===//
// The pipeline levels on the evaluation corpus
//===----------------------------------------------------------------------===//

/// Runs one compiled program's five levels twice — once recording, once
/// streaming — and checks that summaries and per-pass verdicts agree.
void checkCompilationDifferential(const driver::Compilation &C,
                                  const std::string &Id) {
  constexpr uint64_t Fuel = 50'000'000;

  struct Level {
    const char *Name;
    Behavior Recorded;
    RefinementSummary Streamed;
  };
  std::vector<Level> Levels;

  {
    RefinementAccumulator A;
    Outcome O = interp::runProgram(C.Clight, A, Fuel);
    Levels.push_back({"clight", interp::runProgram(C.Clight, Fuel),
                      A.finish(O)});
  }
  {
    RefinementAccumulator A;
    Outcome O = cminor::runProgram(C.Cminor, A, Fuel);
    Levels.push_back({"cminor", cminor::runProgram(C.Cminor, Fuel),
                      A.finish(O)});
  }
  {
    RefinementAccumulator A;
    Outcome O = rtl::runProgram(C.Rtl, A, Fuel);
    Levels.push_back({"rtl", rtl::runProgram(C.Rtl, Fuel), A.finish(O)});
  }
  {
    RefinementAccumulator A;
    Outcome O = mach::runProgram(C.Mach, A, Fuel * 4);
    Levels.push_back({"mach", mach::runProgram(C.Mach, Fuel * 4),
                      A.finish(O)});
  }
  {
    x86::Machine M(C.Asm, measure::MeasureStackSize);
    RefinementAccumulator A;
    Outcome O = M.run(A, Fuel * 4);
    Levels.push_back({"asm", M.run(Fuel * 4), A.finish(O)});
  }

  for (const Level &L : Levels)
    expectSummaryEq(L.Streamed, summarize(L.Recorded),
                    Id + " @ " + L.Name);

  for (size_t I = 1; I != Levels.size(); ++I) {
    const Level &Target = Levels[I];
    const Level &Source = Levels[I - 1];
    RefinementResult RecV =
        checkQuantitativeRefinement(Target.Recorded, Source.Recorded);
    RefinementResult StrV =
        checkQuantitativeRefinement(Target.Streamed, Source.Streamed);
    EXPECT_EQ(RecV.Ok, StrV.Ok)
        << Id << ": " << Source.Name << " -> " << Target.Name << "\n"
        << "recorded: " << RecV.Reason << "\nstreamed: " << StrV.Reason;
    EXPECT_TRUE(StrV.Ok) << Id << ": " << Source.Name << " -> "
                         << Target.Name << ": " << StrV.Reason;

    RefinementResult RecF =
        falsifyWeightDominance(Target.Recorded, Source.Recorded);
    RefinementResult StrF =
        falsifyWeightDominance(Target.Streamed, Source.Streamed);
    EXPECT_EQ(RecF.Ok, StrF.Ok)
        << Id << ": " << Source.Name << " -> " << Target.Name;
    EXPECT_EQ(RecF.Reason, StrF.Reason)
        << Id << ": " << Source.Name << " -> " << Target.Name;
  }
}

TEST(StreamCorpus, EveryLevelOfEveryProgramMatches) {
  for (const programs::VerificationUnit &U : programs::verificationCorpus()) {
    DiagnosticEngine Diags;
    driver::CompilerOptions Options;
    Options.AnalyzeBounds = false;       // Focus on the event pipeline.
    Options.ValidateTranslation = false; // We replay the levels ourselves.
    auto C = driver::compile(U.Source, Diags, Options);
    ASSERT_TRUE(C) << U.Id << ": " << Diags.str();
    checkCompilationDifferential(*C, U.Id);
  }
}

TEST(StreamCorpus, FuzzSeedsMatch) {
  namespace fs = std::filesystem;
  const char *Dir = QCC_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(fs::is_directory(Dir)) << Dir;
  unsigned Compiled = 0;
  for (const auto &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".c")
      continue;
    std::ifstream In(Entry.path());
    ASSERT_TRUE(In.good()) << Entry.path();
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    DiagnosticEngine Diags;
    driver::CompilerOptions Options;
    Options.AnalyzeBounds = false;
    Options.ValidateTranslation = false;
    auto C = driver::compile(Buffer.str(), Diags, Options);
    if (!C)
      continue; // Diagnosed seeds have no behaviors to compare.
    ++Compiled;
    checkCompilationDifferential(*C, Entry.path().filename().string());
  }
  EXPECT_GE(Compiled, 3u) << "fuzz corpus lost its compilable seeds";
}

//===----------------------------------------------------------------------===//
// Thread-safety of the shared symbol table and the sinks
//===----------------------------------------------------------------------===//

// The batch engine compiles on a thread pool, so every sink and
// the global SymbolTable run under concurrency. This test recreates that
// contention pattern directly; it is labeled `batch` so the TSan
// configuration (cmake -DQCC_SANITIZE=thread; ctest -L batch) covers it.
TEST(StreamConcurrency, SymbolTableAndSinksAreRaceFree) {
  const std::string Source = "u32 dup(u32 n) {\n"
                             "  if (n == 0) { return 0; }\n"
                             "  return dup(n - 1) + 1;\n"
                             "}\n"
                             "int main() { return (int)dup(24); }\n";
  DiagnosticEngine Diags;
  driver::CompilerOptions Options;
  Options.AnalyzeBounds = false;
  Options.ValidateTranslation = false;
  auto C = driver::compile(Source, Diags, Options);
  ASSERT_TRUE(C) << Diags.str();

  RefinementSummary Reference = summarize(interp::runProgram(C->Clight));

  constexpr unsigned Threads = 8;
  constexpr unsigned Rounds = 16;
  std::vector<std::thread> Pool;
  std::vector<unsigned> Failures(Threads, 0);
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned I = 0; I != Rounds; ++I) {
        // Contend on interning: fresh names plus everybody's shared ones.
        SymbolTable::global().intern("shared_" + std::to_string(I));
        SymbolTable::global().intern("t" + std::to_string(T) + "_" +
                                     std::to_string(I));
        RefinementAccumulator A;
        Outcome O = interp::runProgram(C->Clight, A);
        RefinementSummary S = A.finish(O);
        if (S.MemHashA != Reference.MemHashA ||
            S.MemCount != Reference.MemCount ||
            S.Peaks != Reference.Peaks)
          ++Failures[T];
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned T = 0; T != Threads; ++T)
    EXPECT_EQ(Failures[T], 0u) << "thread " << T;
}

} // namespace
