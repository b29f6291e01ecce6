//===- perfbench/src/Serve.cpp - Daemon harness and closed-loop client ----===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "daemon/Protocol.h"

#include <atomic>

using namespace qcc;

namespace perfbench {

DaemonHarness::DaemonHarness(const std::string &SocketPath,
                             const std::string &StoreDir, unsigned Jobs)
    : Sock(SocketPath) {
  daemon::DaemonOptions O;
  O.SocketPath = SocketPath;
  O.StoreDir = StoreDir;
  O.Jobs = Jobs;
  // qccd's service default (tools/qccd/Main.cpp); the library default is
  // unlimited admission.
  O.MaxActiveJobs = 256;
  D = std::make_unique<daemon::Daemon>(O);
  if (D->valid())
    Server = std::thread([this] { D->serve(); });
}

DaemonHarness::~DaemonHarness() {
  if (Server.joinable()) {
    D->requestShutdown();
    Server.join();
  }
}

bool DaemonHarness::ok() const { return D->valid(); }
std::string DaemonHarness::error() const { return D->error(); }
daemon::DaemonStats DaemonHarness::stats() const { return D->stats(); }

ClientRequest submitJob(daemon::DaemonClient &C, const std::string &Sock,
                        const BatchJob &J, SpanRecorder &Rec,
                        uint64_t Request) {
  daemon::JobRequest Req;
  Req.Job = J;
  Req.CheckTheorem1 = true;
  ClientRequest Out;
  daemon::ClientOutcome O;
  {
    ScopedSpan S(Rec, "client.verify", Request);
    auto T0 = Clock::now();
    O = C.verifyWithRetry(Req, Sock, daemon::RetryPolicy());
    Out.Millis =
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
  }
  Out.HaveVerdict = O.HaveVerdict;
  Out.Error = O.Error;
  if (!O.HaveVerdict && Out.Error.empty())
    Out.Error = O.Busy ? "shed (Busy) after every retry" : "no verdict";
  if (O.HaveVerdict && !O.Result.CacheHit && !O.Result.StoreHit)
    for (const daemon::PassStatus &P : O.Passes)
      Out.ServerMillis += static_cast<double>(P.Micros) / 1e3;
  if (O.HaveVerdict && Rec.enabled())
    Out.FrameBytes =
        daemon::FrameHeaderSize + daemon::encodeVerdict(O.Result).size();
  Out.Result = std::move(O.Result);
  return Out;
}

double pingMillis(daemon::DaemonClient &C, unsigned N, SpanRecorder &Rec) {
  std::vector<double> Ms;
  for (unsigned I = 0; I != N; ++I) {
    ScopedSpan S(Rec, "client.ping");
    auto T0 = Clock::now();
    if (!C.ping())
      continue;
    Ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count());
  }
  return median(Ms);
}

std::vector<ProgramResult> referenceVerdicts(const std::vector<BatchJob> &Jobs,
                                             unsigned Threads) {
  std::vector<ProgramResult> Out(Jobs.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Jobs.size();)
      Out[I] = batch::verifyOne(Jobs[I], true);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();
  return Out;
}

} // namespace perfbench
