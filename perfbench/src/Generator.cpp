//===- perfbench/src/Generator.cpp - Seeded workload inputs ---------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// Every input of every workload comes from here and from nothing but the
// seed: corpus units with seeded -D overrides and ProgramGenerator programs
// (cold-batch), library TUs with seeded one-function edit streams
// (edit-stream), and a population mixing all three (warm-serve).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fuzz/Generator.h"
#include "programs/Corpus.h"

#include <algorithm>

using namespace qcc;

namespace perfbench {

uint64_t subSeed(uint64_t Seed, uint64_t Tag, uint64_t Index) {
  fuzz::Rng R(Seed ^ (Tag * 0x9e3779b97f4a7c15ull) ^
              (Index * 0xc2b2ae3d27d4eb4full));
  R.next();
  return R.next();
}

namespace {

enum Tag : uint64_t { TagCorpus = 1, TagGenerated, TagLibrary, TagWarm };

/// One overridable #define of a corpus unit and the values it may take:
/// Lo, Lo + Step, ... up to Hi, or the powers of two in [Lo, Hi] when
/// Step is 0. The ranges keep every program inside its arrays and loop
/// bounds, sentinels above every real value, and the FFT size a power of
/// two (its worst case, and so the 4-byte gap, depends on it).
struct DefineRange {
  const char *Name;
  uint32_t Lo, Hi, Step;
};

const std::vector<DefineRange> None;

const std::vector<DefineRange> &overridesFor(const std::string &Id) {
  static const std::map<std::string, std::vector<DefineRange>> Table = {
      {"mibench/net/dijkstra.c", {{"NUM_NODES", 8, 16, 1},
                                  {"NONE", 5000, 60000, 1}}},
      {"mibench/auto/bitcount.c", {{"ITERATIONS", 96, 416, 1}}},
      {"mibench/sec/blowfish.c", {{"NBLOCKS", 8, 64, 1}}},
      {"mibench/sec/pgp/md5.c", {{"MSG_WORDS", 16, 96, 16}}},
      {"mibench/tele/fft.c", {{"NPOINTS", 16, 128, 0}}},
      {"certikos/vmm.c", {{"NPAGES", 128, 512, 1}}},
      {"certikos/proc.c", {{"NTHREAD", 8, 32, 1}}},
      {"compcert/mandelbrot.c", {{"WIDTH", 12, 32, 1},
                                 {"HEIGHT", 12, 32, 1},
                                 {"MAXITER", 16, 48, 1}}},
      {"compcert/nbody.c", {{"STEPS", 4, 24, 1}}},
      {"section2/search.c", {{"ALEN", 32, 128, 1}, {"SEED", 1, 1000000, 1}}},
      {"table2/recursive.c", {}},
  };
  auto It = Table.find(Id);
  return It == Table.end() ? None : It->second;
}

const std::vector<programs::VerificationUnit> &corpus() {
  static const std::vector<programs::VerificationUnit> Units =
      programs::verificationCorpus();
  return Units;
}

/// \p U with seeded overrides, or as the paper evaluates it when
/// \p Overrides is false.
BatchJob corpusJob(const programs::VerificationUnit &U, fuzz::Rng &R,
                   bool Overrides) {
  BatchJob J;
  J.Id = U.Id;
  J.Source = U.Source;
  J.Options.SeededSpecs = U.SeededSpecs;
  for (const DefineRange &D : Overrides ? overridesFor(U.Id) : None) {
    if (D.Step == 0) {
      uint32_t Pow = 0;
      while ((D.Lo << (Pow + 1)) <= D.Hi)
        ++Pow;
      J.Options.Defines[D.Name] = D.Lo << R.below(Pow + 1);
      continue;
    }
    uint32_t Steps = (D.Hi - D.Lo) / D.Step + 1;
    J.Options.Defines[D.Name] = D.Lo + R.below(Steps) * D.Step;
  }
  for (const auto &[Name, Value] : J.Options.Defines)
    J.Id += " -D" + Name + "=" + std::to_string(Value);
  return J;
}

BatchJob generatedJob(uint64_t Seed) {
  BatchJob J;
  J.Id = "gen-" + std::to_string(Seed);
  J.Source = fuzz::ProgramGenerator(Seed).generate();
  return J;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cold-batch draw
//===----------------------------------------------------------------------===//

ColdBatchDraw::ColdBatchDraw(uint64_t Seed) : Seed(Seed) {}

bool ColdBatchDraw::isTable1(const std::string &Id) {
  for (const programs::CorpusProgram &P : programs::table1Corpus())
    if (Id == P.Id)
      return true;
  return false;
}

std::vector<BatchJob> ColdBatchDraw::nextRound() {
  std::vector<BatchJob> Jobs;
  bool FirstRound = Round == 0;
  uint64_t Slot = uint64_t(Round++) * RoundSize;
  auto Fresh = [this](const BatchJob &J) {
    qcc::batch::JobKey K = qcc::batch::jobKey(J, true);
    return Seen.insert({K.Primary, K.Verify}).second;
  };
  for (unsigned I = 0; I != RoundSize; ++I, ++Slot) {
    if (I < corpus().size()) {
      // The first round holds every unit as the paper evaluates it (where
      // Table 1's exactly-4-bytes gap is checked); later rounds override
      // its #defines. A unit whose override space is used up yields its
      // slot to a generated program.
      fuzz::Rng R(subSeed(Seed, TagCorpus, Slot));
      bool Placed = false;
      for (unsigned Try = 0; Try != 32 && !Placed; ++Try) {
        BatchJob J = corpusJob(corpus()[I], R, !FirstRound);
        if (Fresh(J)) {
          Jobs.push_back(std::move(J));
          Placed = true;
        }
      }
      if (Placed)
        continue;
    }
    for (uint64_t Try = 0;; ++Try) {
      BatchJob J = generatedJob(subSeed(Seed, TagGenerated, Slot * 64 + Try));
      if (Fresh(J)) {
        Jobs.push_back(std::move(J));
        break;
      }
    }
  }
  return Jobs;
}

//===----------------------------------------------------------------------===//
// Library TUs and their edit streams
//===----------------------------------------------------------------------===//

const char *editKindName(EditKind K) {
  switch (K) {
  case EditKind::UnreachableBody: return "unreachable-body";
  case EditKind::SpecChange: return "spec-change";
  case EditKind::ReachableBody: return "reachable-body";
  }
  return "?";
}

LibraryTu::LibraryTu(uint64_t Seed, unsigned Client)
    : Id("lib-" + std::to_string(Client) + ".c"),
      R(subSeed(Seed, TagLibrary, Client)) {
  // Constants are drawn from a per-client counter (never reused within a
  // stream) offset by a seeded base, so streams of different seeds differ.
  NextConstant = 1000 + R.below(1u << 20);
  for (unsigned I = 0; I != NumLeaves; ++I)
    LeafC.push_back(freshConstant());
  for (unsigned I = 0; I != NumCold; ++I)
    ColdC.push_back(freshConstant());
  HubC = freshConstant();
  HubSet = {R.below(NumLeaves / 2), NumLeaves / 2 + R.below(NumLeaves / 2)};
  UsedHubSets.insert(HubSet);
  WorkC = freshConstant();
}

uint32_t LibraryTu::freshConstant() {
  NextConstant += 1 + R.below(7);
  return NextConstant;
}

EditKind LibraryTu::edit() {
  // The traffic mix is an assumption with no measured source behind it:
  // the three kinds are equally likely.
  uint32_t Roll = R.below(3);
  if (Roll == 0) {
    ColdC[R.below(NumCold)] = freshConstant();
    return EditKind::UnreachableBody;
  }
  if (Roll == 1) {
    // A hub call set never used before gives the hub a spec never seen
    // before, so its whole caller chain misses the function keys.
    std::vector<unsigned> Set;
    for (unsigned Try = 0; Try != 64; ++Try) {
      Set.clear();
      unsigned Size = 2 + R.below(3);
      while (Set.size() != Size) {
        unsigned L = R.below(NumLeaves);
        if (std::find(Set.begin(), Set.end(), L) == Set.end())
          Set.push_back(L);
      }
      std::sort(Set.begin(), Set.end());
      if (UsedHubSets.insert(Set).second)
        break;
    }
    HubSet = Set;
    HubC = freshConstant();
    return EditKind::SpecChange;
  }
  WorkC = freshConstant();
  return EditKind::ReachableBody;
}

std::string LibraryTu::source() const {
  auto U = [](uint32_t V) { return std::to_string(V) + "u"; };
  std::string S = "typedef unsigned int u32;\n\nu32 g_sink;\nu32 g_tab[16];\n";
  for (unsigned I = 0; I != NumLeaves; ++I) {
    std::string N = std::to_string(I);
    S += "\nu32 leaf_" + N + "(u32 x) {\n  u32 a = x ^ " + U(LeafC[I]) +
         ";\n  g_tab[" + std::to_string(I % 16) + "] = a;\n  return a + " + N +
         "u;\n}\n";
  }
  // Unreachable helpers (kind 1 targets) under an unreachable caller.
  for (unsigned I = 0; I != NumCold; ++I)
    S += "\nu32 cold_" + std::to_string(I) +
         "(u32 x) {\n  u32 i, s = 0u;\n  for (i = 0u; i < 8u; i++)\n"
         "    s = s + ((x + i) ^ " +
         U(ColdC[I]) + ");\n  return s;\n}\n";
  S += "\nu32 cold_top(u32 x) {\n  u32 s = 0u;\n";
  for (unsigned I = 0; I != NumCold; ++I)
    S += "  s = s + cold_" + std::to_string(I) + "(x);\n";
  S += "  return s;\n}\n";
  // The spec-change target (kind 2) and its unreachable caller chain.
  S += "\nu32 hub(u32 x) {\n  u32 s = " + U(HubC) + ";\n";
  for (unsigned L : HubSet)
    S += "  s = s + leaf_" + std::to_string(L) + "(x + s);\n";
  S += "  return s;\n}\n";
  for (unsigned K = 0; K != ChainDepth; ++K)
    S += "\nu32 up_" + std::to_string(K) + "(u32 x) {\n  u32 r;\n  r = " +
         (K ? "up_" + std::to_string(K - 1) : std::string("hub")) +
         "(x);\n  return r + " + std::to_string(K + 1) + "u;\n}\n";
  // Main's path (kind 3 target: work).
  S += "\nu32 work(u32 x) {\n  u32 i, s = x;\n  for (i = 0u; i < 12u; i++)\n"
       "    s = s * 5u + (" +
       U(WorkC) +
       " ^ i);\n  s = s + leaf_0(s);\n  return s;\n}\n"
       "\nu32 step(u32 x) {\n  u32 r;\n  r = work(x);\n  r = r + leaf_1(x);\n"
       "  return r;\n}\n"
       "\nint main() {\n  u32 i, s = 0u;\n  for (i = 0u; i < " +
       U(MainTrips) +
       "; i++)\n    s = s + step(i);\n  g_sink = s;\n"
       "  return (int)(s & 0x7fu);\n}\n";
  return S;
}

BatchJob libraryJob(const LibraryTu &Tu) {
  BatchJob J;
  J.Id = Tu.id();
  J.Source = Tu.source();
  return J;
}

//===----------------------------------------------------------------------===//
// Warm-serve population
//===----------------------------------------------------------------------===//

std::vector<BatchJob> warmPopulation(uint64_t Seed, unsigned N) {
  // Whole-file sharing is the point of this workload, so the population
  // mixes every input family: corpus variants and generated programs from
  // an independent cold-batch draw, and every fourth slot a library TU a
  // few seeded edits into its stream.
  ColdBatchDraw Draw(subSeed(Seed, TagWarm, 0));
  std::vector<BatchJob> Pool;
  std::vector<BatchJob> Out;
  for (unsigned I = 0; Out.size() != N; ++I) {
    if (I % 4 == 3) {
      LibraryTu Tu(subSeed(Seed, TagWarm, 1), I);
      for (unsigned E = 0, Edits = I % 5; E != Edits; ++E)
        Tu.edit();
      Out.push_back(libraryJob(Tu));
      continue;
    }
    if (Pool.empty()) {
      Pool = Draw.nextRound();
      std::reverse(Pool.begin(), Pool.end());
    }
    Out.push_back(std::move(Pool.back()));
    Pool.pop_back();
  }
  return Out;
}

} // namespace perfbench
