//===- perfbench/src/Oracle.cpp - Independent verdict checks --------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Compiler.h"
#include "measure/StackMeter.h"

#include <atomic>
#include <thread>

using namespace qcc;

namespace perfbench {

uint64_t Oracle::mainBound(const ProgramResult &R) {
  for (const batch::FunctionReport &F : R.Bounds)
    if (F.Function == "main" && F.ConcreteBytes)
      return *F.ConcreteBytes;
  return 0;
}

std::string Oracle::sameVerdict(const ProgramResult &R,
                                const ProgramResult &Ref) {
  if (R.Ok != Ref.Ok || R.Status != Ref.Status || R.Stop != Ref.Stop)
    return "status differs from the uncached reference";
  if (R.Diagnostics != Ref.Diagnostics)
    return "diagnostics differ from the uncached reference";
  if (R.Bounds.size() != Ref.Bounds.size())
    return "bound count differs from the uncached reference";
  for (size_t I = 0; I != R.Bounds.size(); ++I) {
    const batch::FunctionReport &A = R.Bounds[I], &B = Ref.Bounds[I];
    if (A.Function != B.Function || A.SymbolicBound != B.SymbolicBound ||
        A.ConcreteBytes != B.ConcreteBytes)
      return "bound of " + A.Function + " differs from the uncached reference";
  }
  if (R.SkippedRecursive != Ref.SkippedRecursive)
    return "skipped-recursive set differs from the uncached reference";
  if (R.Theorem1Checked != Ref.Theorem1Checked ||
      R.Theorem1Ok != Ref.Theorem1Ok ||
      R.Theorem1StackBytes != Ref.Theorem1StackBytes)
    return "Theorem 1 outcome differs from the uncached reference";
  return "";
}

std::string Oracle::check(const BatchJob &Job, const ProgramResult &R,
                          bool Table1) {
  const std::string Who = Job.Id + ": ";
  if (R.Status != batch::JobStatus::Ok && R.Status != batch::JobStatus::Failed)
    return Who + "no verdict (" + batch::jobStatusName(R.Status) + ")";
  if (!R.Ok) {
    // A diagnosed program passes when the uncached pipeline diagnoses it
    // the same way.
    std::string Why = sameVerdict(R, batch::verifyOne(Job, true));
    return Why.empty() ? "" : Who + Why;
  }
  uint64_t Bound = mainBound(R);
  if (Bound < 4)
    return Who + "ok verdict without a finite bound for main";
  if (!R.Theorem1Checked || !R.Theorem1Ok || R.Theorem1StackBytes != Bound - 4)
    return Who + "verdict does not record Theorem 1 at bound - 4";

  DiagnosticEngine Diags;
  std::optional<driver::Compilation> C =
      driver::lowerPipeline(Job.Source, Diags, Job.Options);
  if (!C)
    return Who + "ok verdict for a program that does not compile";
  uint64_t Fuel = Job.Options.ValidationFuel * 10;
  measure::Measurement M =
      measure::measureProgram(C->Asm, measure::MeasureStackSize, Fuel);
  if (!M.Ok)
    return Who + "StackMeter run did not converge: " + M.Error;
  if (Bound < M.StackBytes)
    return Who + "bound " + std::to_string(Bound) + " below measured stack " +
           std::to_string(M.StackBytes);
  if (Table1 && Bound - M.StackBytes != 4)
    return Who + "Table 1 gap is " + std::to_string(Bound - M.StackBytes) +
           " bytes, not 4";
  measure::Measurement T =
      measure::measureProgram(C->Asm, static_cast<uint32_t>(Bound - 4), Fuel);
  if (!T.Ok)
    return Who + "Theorem 1 fails at stack size " +
           std::to_string(Bound - 4) + ": " + T.Error;
  return "";
}

std::vector<std::string>
checkAll(const std::vector<std::pair<const BatchJob *, const ProgramResult *>>
             &Items,
         unsigned Threads) {
  std::vector<std::string> Why(Items.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Items.size();)
      Why[I] = Oracle::check(*Items[I].first, *Items[I].second,
                             ColdBatchDraw::isTable1(Items[I].first->Id));
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();
  std::vector<std::string> Out;
  for (std::string &W : Why)
    if (!W.empty())
      Out.push_back(std::move(W));
  return Out;
}

} // namespace perfbench
