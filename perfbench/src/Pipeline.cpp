//===- perfbench/src/Pipeline.cpp - Traced replay through module APIs -----===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// The traced run's view inside one verification: the same sequence of
// public module calls driver::compile and batch::verifyOne make, each
// wrapped in a span, so per-layer self times come from the benchmark's
// own code without any instrumentation inside src/.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Analyzer.h"
#include "cminor/CminorInterp.h"
#include "cminor/Lower.h"
#include "cminor/Verify.h"
#include "driver/Compiler.h"
#include "events/Refinement.h"
#include "frontend/Frontend.h"
#include "interp/Interp.h"
#include "mach/Verify.h"
#include "measure/StackMeter.h"
#include "rtl/Inline.h"
#include "rtl/Opt.h"
#include "rtl/Verify.h"
#include "x86/Machine.h"
#include "x86/Verify.h"

using namespace qcc;

namespace perfbench {

ProgramResult tracePipeline(const BatchJob &Job, SpanRecorder &Rec,
                            uint64_t Request, LayerTotals &Totals,
                            const PipelinePhases &Phases) {
  const driver::CompilerOptions &O = Job.Options;
  ProgramResult R;
  R.Id = Job.Id;
  DiagnosticEngine Diags;
  ScopedSpan Whole(Rec, "job", Request);
  auto Done = [&](bool Ok) {
    R.Ok = Ok;
    R.Status = Ok ? batch::JobStatus::Ok : batch::JobStatus::Failed;
    R.Diagnostics = Diags.str();
    return R;
  };

  std::optional<clight::Program> CL;
  {
    ScopedSpan S(Rec, "frontend.parse", Request);
    CL = frontend::parseProgram(Job.Source, Diags, O.Defines);
  }
  if (!CL)
    return Done(false);
  driver::Compilation C;
  C.Clight = std::move(*CL);
  {
    ScopedSpan S(Rec, "lower.cminor", Request);
    C.Cminor = cminor::lowerFromClight(C.Clight);
  }
  {
    ScopedSpan S(Rec, "lower.verify", Request);
    if (!cminor::verifyProgram(C.Cminor, Diags))
      return Done(false);
  }
  {
    ScopedSpan S(Rec, "lower.rtl", Request);
    C.Rtl = rtl::lowerFromCminor(C.Cminor);
    if (O.Inline)
      rtl::inlineFunctions(C.Rtl);
  }
  if (O.Optimize) {
    ScopedSpan S(Rec, "rtl.opt", Request);
    rtl::optimizeProgram(C.Rtl);
  }
  uint64_t Instrs = 0;
  for (const rtl::Function &F : C.Rtl.Functions)
    Instrs += F.Nodes.size();
  Totals["rtl.instrs_after_opt"] += static_cast<double>(Instrs);
  {
    ScopedSpan S(Rec, "lower.verify", Request);
    if (!rtl::verifyProgram(C.Rtl, Diags))
      return Done(false);
  }
  {
    ScopedSpan S(Rec, "lower.mach", Request);
    mach::LowerOptions MO;
    MO.TailCalls = O.TailCalls;
    C.Mach = mach::lowerFromRtl(C.Rtl, MO);
  }
  {
    ScopedSpan S(Rec, "lower.verify", Request);
    if (!mach::verifyProgram(C.Mach, Diags))
      return Done(false);
  }
  {
    ScopedSpan S(Rec, "lower.asm", Request);
    C.Asm = x86::emitFromMach(C.Mach);
  }
  {
    ScopedSpan S(Rec, "lower.verify", Request);
    if (!x86::verifyProgram(C.Asm, Diags))
      return Done(false);
  }
  C.Metric = C.Mach.costMetric();

  if (Phases.Validate && O.ValidateTranslation) {
    ScopedSpan V(Rec, "validate", Request);
    RefinementAccumulator AClight, ACminor, ARtl, AMach, AAsm;
    RefinementSummary SClight, SCminor, SRtl, SMach, SAsm;
    {
      ScopedSpan S(Rec, "validate.clight", Request);
      SClight = AClight.finish(
          interp::runProgram(C.Clight, AClight, O.ValidationFuel));
    }
    {
      ScopedSpan S(Rec, "validate.cminor", Request);
      SCminor = ACminor.finish(
          cminor::runProgram(C.Cminor, ACminor, O.ValidationFuel));
    }
    {
      ScopedSpan S(Rec, "validate.rtl", Request);
      SRtl = ARtl.finish(rtl::runProgram(C.Rtl, ARtl, O.ValidationFuel));
    }
    {
      ScopedSpan S(Rec, "validate.mach", Request);
      SMach =
          AMach.finish(mach::runProgram(C.Mach, AMach, O.ValidationFuel * 4));
    }
    {
      ScopedSpan S(Rec, "validate.asm", Request);
      x86::Machine M(C.Asm, measure::MeasureStackSize);
      SAsm = AAsm.finish(M.run(AAsm, O.ValidationFuel * 4));
    }
    bool Ok;
    {
      ScopedSpan S(Rec, "validate.check", Request);
      Ok = checkQuantitativeRefinement(SCminor, SClight).Ok &&
           checkQuantitativeRefinement(SRtl, SCminor).Ok &&
           checkQuantitativeRefinement(SMach, SRtl).Ok &&
           checkQuantitativeRefinement(SAsm, SMach).Ok;
    }
    // Counted like driver::PassStats::ReplayedEvents: target plus source
    // events of each of the four validated pairs.
    Totals["validate.events"] += static_cast<double>(
        SClight.EventCount + 2 * SCminor.EventCount + 2 * SRtl.EventCount +
        2 * SMach.EventCount + SAsm.EventCount);
    if (!Ok) {
      Diags.error(SourceLoc(), "translation validation failed");
      return Done(false);
    }
  }

  if (Phases.Analyze && O.AnalyzeBounds) {
    {
      ScopedSpan S(Rec, "analysis.analyze", Request);
      C.Bounds = analysis::analyzeProgram(C.Clight, Diags, O.SeededSpecs);
    }
    Totals["logic.proof_check_ms"] +=
        static_cast<double>(C.Bounds.ProofCheckMicros) / 1e3;
    Totals["logic.proof_nodes"] +=
        static_cast<double>(C.Bounds.proofNodeCount());
    for (const auto &[F, Spec] : C.Bounds.Gamma) {
      batch::FunctionReport FR;
      FR.Function = F;
      if (logic::BoundExpr B = C.Bounds.callBound(F))
        FR.SymbolicBound = B->str();
      FR.ConcreteBytes = driver::concreteCallBound(C, F);
      R.Bounds.push_back(std::move(FR));
    }
    R.SkippedRecursive = C.Bounds.SkippedRecursive;
  }

  if (Phases.Theorem1) {
    std::optional<uint64_t> MainBound = driver::concreteCallBound(C, "main");
    if (MainBound && *MainBound >= 4) {
      ScopedSpan S(Rec, "measure.theorem1", Request);
      R.Theorem1Checked = true;
      R.Theorem1StackBytes = static_cast<uint32_t>(*MainBound - 4);
      measure::Measurement M = measure::measureProgram(
          C.Asm, R.Theorem1StackBytes, O.ValidationFuel * 10);
      R.Theorem1Ok = M.Ok;
      if (!M.Ok) {
        Diags.error(SourceLoc(), "Theorem 1 violated");
        return Done(false);
      }
    }
  }
  return Done(true);
}

void addLayerSelfTimes(const std::vector<Span> &Spans,
                          LayerTotals &Totals) {
  static const std::map<std::string, std::vector<std::string>> Metric = {
      {"frontend.parse", {"frontend.parse_ms"}},
      {"rtl.opt", {"rtl.opt_ms"}},
      {"lower.cminor", {"lower.other_ms"}},
      {"lower.rtl", {"lower.other_ms"}},
      {"lower.mach", {"lower.other_ms"}},
      {"lower.asm", {"lower.other_ms"}},
      {"lower.verify", {"lower.other_ms"}},
      {"validate", {"validate.ms"}},
      {"validate.check", {"validate.ms"}},
      {"validate.clight", {"validate.ms", "validate.clight_ms"}},
      {"validate.cminor", {"validate.ms", "validate.cminor_ms"}},
      {"validate.rtl", {"validate.ms", "validate.rtl_ms"}},
      {"validate.mach", {"validate.ms", "validate.mach_ms"}},
      {"validate.asm", {"validate.ms", "validate.asm_ms"}},
      {"analysis.analyze", {"analysis.analyze_ms"}},
      {"measure.theorem1", {"measure.theorem1_ms"}},
      {"incremental.verify", {"incremental.verify_ms"}},
      {"store.put", {"store.put_ms"}},
      {"store.fetch", {"store.fetch_ms"}},
      {"cache.lookup", {"batch.cache_lookup_ms"}},
      {"verdict.encode", {"daemon.encode_ms"}},
      {"verdict.decode", {"daemon.decode_ms"}},
  };
  for (const auto &[Name, Ms] : selfMillisByName(Spans)) {
    auto It = Metric.find(Name);
    if (It != Metric.end())
      for (const std::string &M : It->second)
        Totals[M] += Ms;
  }
}

} // namespace perfbench
