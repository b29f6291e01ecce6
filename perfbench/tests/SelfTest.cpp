//===- perfbench/tests/SelfTest.cpp - The benchmark's own tests -----------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// Checks the benchmark's machinery rather than the system: the generator
// is deterministic, the tail percentile honours the ten-samples-beyond
// rule, span self time is correct on nested and overlapping spans, and the
// oracle rejects a corrupted verdict. Exit code 0 when every check holds.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "programs/Corpus.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

unsigned Failures = 0;

void expect(bool Cond, const char *What) {
  if (!Cond) {
    ++Failures;
    std::printf("FAIL %s\n", What);
  }
}

bool sameJobs(const std::vector<BatchJob> &A, const std::vector<BatchJob> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Id != B[I].Id || A[I].Source != B[I].Source ||
        A[I].Options.Defines != B[I].Options.Defines)
      return false;
  return true;
}

void generatorIsDeterministic() {
  ColdBatchDraw A(7), B(7), C(8);
  std::vector<BatchJob> A1 = A.nextRound(), A2 = A.nextRound();
  std::vector<BatchJob> B1 = B.nextRound(), B2 = B.nextRound();
  expect(sameJobs(A1, B1) && sameJobs(A2, B2),
         "cold-batch: same seed, same jobs");
  expect(!sameJobs(A1, C.nextRound()), "cold-batch: another seed differs");
  expect(A1.size() == ColdBatchDraw::RoundSize, "cold-batch: round size");
  std::set<std::pair<uint64_t, uint64_t>> Keys;
  for (const std::vector<BatchJob> *R : {&A1, &A2})
    for (const BatchJob &J : *R) {
      qcc::batch::JobKey K = qcc::batch::jobKey(J, true);
      Keys.insert({K.Primary, K.Verify});
    }
  expect(Keys.size() == A1.size() + A2.size(), "cold-batch: jobs distinct");

  LibraryTu T1(7, 2), T2(7, 2), T3(8, 2);
  bool Same = T1.source() == T2.source();
  std::set<std::string> Sources = {T1.source()};
  unsigned Kinds[3] = {0, 0, 0};
  for (unsigned I = 0; I != 200; ++I) {
    EditKind K1 = T1.edit(), K2 = T2.edit();
    Same &= K1 == K2 && T1.source() == T2.source();
    Sources.insert(T1.source());
    ++Kinds[static_cast<unsigned>(K1)];
  }
  expect(Same, "edit-stream: same seed, same edit script");
  expect(Sources.size() == 201, "edit-stream: every edit is a new source");
  expect(Kinds[0] && Kinds[1] && Kinds[2], "edit-stream: all three kinds");
  expect(T3.source() != LibraryTu(7, 2).source(),
         "edit-stream: another seed differs");

  expect(sameJobs(warmPopulation(7, 24), warmPopulation(7, 24)),
         "warm-serve: same seed, same population");
}

void tailHonoursTenBeyond() {
  expect(tailPercentile(1000) == 99, "tail: 1000 samples -> p99");
  expect(tailPercentile(999) == 98, "tail: 999 samples -> p98");
  expect(tailPercentile(10000) == 99.9, "tail: 10000 samples -> p99.9");
  expect(tailPercentile(5) == 50, "tail: too few samples -> p50");
  static const double Ladder[] = {99.9, 99.5, 99, 98, 95, 90, 75, 50};
  bool Rule = true;
  for (size_t N = 21; N != 5000; ++N) {
    double P = tailPercentile(N);
    auto Beyond = [N](double Q) {
      return N - static_cast<size_t>(std::ceil(Q / 100 * N - 1e-9));
    };
    Rule &= Beyond(P) >= 10;
    for (double Q : Ladder)
      if (Q > P)
        Rule &= Beyond(Q) < 10;
  }
  expect(Rule, "tail: highest rung with at least 10 samples beyond");
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  LatencySummary L = summarizeLatency(V);
  expect(L.TailPercentile == 99 && L.Tail == 990 && L.P50 == 500 &&
             L.Windows == 1,
         "tail: nearest-rank values");
  // Three runs of 100 samples, the middle one stalled: the reported tail
  // is the median run's p90 (10 samples beyond), not the stall.
  std::vector<double> Runs;
  for (int R = 0; R != 3; ++R)
    for (int I = 1; I <= 100; ++I)
      Runs.push_back(R == 1 ? 1000 + I : I);
  LatencySummary W = summarizeLatency(Runs, 100);
  expect(W.Windows == 3 && W.TailPercentile == 90 && W.Tail == 90,
         "tail: median over runs");
}

void selfTimeOfNestedSpans() {
  auto S = [](const char *Name, uint64_t B, uint64_t E, int64_t Parent) {
    Span Sp;
    Sp.Name = Name;
    Sp.Start = B;
    Sp.End = E;
    Sp.Parent = Parent;
    return Sp;
  };
  // Root [0,100] with overlapping children [10,30] and [20,50], a child
  // overrunning the root [90,120], and a grandchild [15,20].
  std::vector<Span> Spans = {S("root", 0, 100, -1), S("a", 10, 30, 0),
                             S("b", 20, 50, 0), S("c", 90, 120, 0),
                             S("g", 15, 20, 1)};
  std::vector<uint64_t> Self = selfTimes(Spans);
  expect(Self[0] == 50, "self time: root minus the union of its children");
  expect(Self[1] == 15, "self time: child minus its grandchild");
  expect(Self[2] == 30 && Self[3] == 30 && Self[4] == 5,
         "self time: leaves keep their duration");
  std::map<std::string, double> ByName = selfMillisByName(Spans);
  expect(std::fabs(ByName["root"] - 50e-6) < 1e-12, "self time: by name");

  SpanRecorder Rec(true);
  {
    ScopedSpan Outer(Rec, "outer", 1);
    ScopedSpan Inner(Rec, "inner", 1);
  }
  std::vector<Span> Got = Rec.spans();
  expect(Got.size() == 2 && Got[1].Parent == 0 && Got[0].Parent == -1 &&
             Got[0].Start <= Got[1].Start && Got[1].End <= Got[0].End,
         "recorder: nesting links child to parent");
  SpanRecorder Off(false);
  {
    ScopedSpan Quiet(Off, "quiet");
  }
  expect(Off.spans().empty(), "recorder: disabled records nothing");
}

void oracleRejectsCorruptedVerdict() {
  BatchJob J;
  for (const qcc::programs::VerificationUnit &U :
       qcc::programs::verificationCorpus())
    if (U.Id == "compcert/mandelbrot.c") {
      J.Id = U.Id;
      J.Source = U.Source;
    }
  ProgramResult R = qcc::batch::verifyOne(J, true);
  expect(R.Ok, "oracle: corpus job verifies");
  expect(Oracle::check(J, R, true).empty(), "oracle: accepts a true verdict");
  // A Table 1 bound is exactly 4 bytes above the measured stack, so a
  // bound one byte below the measurement is bound - 5.
  uint64_t Bound = Oracle::mainBound(R);
  ProgramResult Bad = R;
  for (qcc::batch::FunctionReport &F : Bad.Bounds)
    if (F.Function == "main")
      F.ConcreteBytes = Bound - 5;
  Bad.Theorem1StackBytes = static_cast<uint32_t>(Bound - 9);
  std::string Why = Oracle::check(J, Bad, true);
  expect(Why.find("below measured stack") != std::string::npos,
         "oracle: rejects a bound one byte below the measured stack");
  ProgramResult Changed = R;
  Changed.Diagnostics += "warning: spurious\n";
  expect(!Oracle::sameVerdict(Changed, R).empty(),
         "oracle: rejects a verdict whose diagnostics differ");
}

} // namespace

int main() {
  generatorIsDeterministic();
  tailHonoursTenBeyond();
  selfTimeOfNestedSpans();
  oracleRejectsCorruptedVerdict();
  std::printf("perfbench self-test: %s (%u failures)\n",
              Failures ? "FAILED" : "ok", Failures);
  return Failures ? 1 : 0;
}
