//===- tools/qccd/Main.cpp - The qccd verification daemon -----------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Verification as a service: qccd listens on a Unix-domain socket,
/// verifies jobs submitted by `qcc --connect` clients on a shared
/// thread pool (one FIFO queue, one task per job), and keeps the result
/// cache and the persistent store warm across connections.
///
///   qccd --socket /tmp/qccd.sock --store ~/.qcc-store --jobs 8
///   qcc --batch corpus --connect /tmp/qccd.sock    # in another terminal
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "support/FailPoint.h"
#include "support/Numeric.h"

#include <csignal>
#include <cstdio>
#include <optional>
#include <string>

using namespace qcc;

namespace {

/// The running daemon, for the signal handlers. requestShutdown and
/// requestDrain are atomics plus one pipe write: async-signal-safe.
daemon::Daemon *GDaemon = nullptr;

/// SIGINT: hard shutdown — cancel in-flight jobs and drain fast.
extern "C" void onInterrupt(int) {
  if (GDaemon)
    GDaemon->requestShutdown();
}

/// SIGTERM: graceful drain — stop accepting, finish and journal every
/// in-flight job, close each client with a clean Bye frame.
extern "C" void onTerminate(int) {
  if (GDaemon)
    GDaemon->requestDrain();
}

void usage() {
  printf(
      "usage: qccd --socket <path> [options]\n"
      "\n"
      "  --socket <path>      Unix-domain socket to listen on (required)\n"
      "  --jobs N             verification worker threads (default: all\n"
      "                       hardware threads)\n"
      "  --store <dir>        persistent verification store shared with\n"
      "                       qcc --batch --store\n"
      "  --store-budget-mb N  LRU byte budget for the store\n"
      "  --store-verify       re-check proofs on every store load\n"
      "  --deadline-ms N      per-job wall-clock deadline cap\n"
      "  --memory-budget-mb N per-job soft memory budget cap\n"
      "  --client-budget-mb N per-connection fair-share byte budget: a\n"
      "                       client whose jobs charge more than this is\n"
      "                       cancelled; other connections are untouched\n"
      "  --retry N            budget-stop retries before quarantine\n"
      "                       (default 1)\n"
      "  --recv-timeout-ms N  per-frame receive timeout (default 0: none)\n"
      "  --idle-timeout-ms N  close connections idle between frames for\n"
      "                       N ms with a clean Bye frame (default 0:\n"
      "                       never)\n"
      "  --max-active-jobs N  bounded admission: shed submits over N\n"
      "                       in-flight jobs with a Busy reply (default\n"
      "                       256; 0 = unlimited)\n"
      "  --max-connections N  shed accepted connections over N with a\n"
      "                       Busy reply (default 0: unlimited)\n"
      "  --journal F          append every definitive verdict to F\n"
      "                       (batch-journal format); a graceful drain\n"
      "                       journals its in-flight jobs there\n"
      "  --max-frame-mb N     per-frame payload ceiling (default 64)\n"
      "  --no-incremental     disable the function-granular incremental\n"
      "                       engine (warm edits re-verify whole files)\n"
      "\n"
      "Client-requested budgets are clamped to the caps above. SIGINT (or\n"
      "a client Shutdown frame) cancels and drains in-flight jobs;\n"
      "SIGTERM drains gracefully: in-flight jobs finish, are journaled,\n"
      "and every client gets its verdict plus a clean Bye frame.\n"
      "QCC_FAILPOINTS (see README, \"Fault injection & resilience\")\n"
      "arms deterministic fault-injection sites for chaos testing.\n");
}

/// The same strict parser qcc uses (support/Numeric.h): no sign, no
/// whitespace, no trailing garbage, no overflow.
std::optional<uint64_t> parseCount(const char *Flag, const char *Val,
                                   uint64_t Max) {
  std::optional<uint64_t> V = parseUnsigned(Val, Max);
  if (!V)
    fprintf(stderr,
            "qccd: %s expects a non-negative number no larger than %llu, "
            "got '%s'\n",
            Flag, static_cast<unsigned long long>(Max), Val);
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  // Force the failpoint registry up front so a malformed QCC_FAILPOINTS
  // is a startup error (exit 2), not discovered at the first armed site.
  failpoint::Registry::instance();
  daemon::DaemonOptions Opts;
  // The service default is bounded admission (the library default stays
  // unlimited for embedders): a daemon fronting a fleet must shed load
  // explicitly, not queue blind.
  Opts.MaxActiveJobs = 256;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Operand = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        fprintf(stderr, "qccd: %s is missing its operand\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    if (Arg == "--socket") {
      const char *V = Operand("--socket");
      if (!V)
        return 2;
      Opts.SocketPath = V;
    } else if (Arg == "--jobs") {
      const char *V = Operand("--jobs");
      if (!V)
        return 2;
      auto N = parseCount("--jobs", V, 4096);
      if (!N)
        return 2;
      Opts.Jobs = static_cast<unsigned>(*N);
    } else if (Arg == "--store") {
      const char *V = Operand("--store");
      if (!V)
        return 2;
      Opts.StoreDir = V;
    } else if (Arg == "--store-budget-mb") {
      const char *V = Operand("--store-budget-mb");
      if (!V)
        return 2;
      auto N = parseCount("--store-budget-mb", V, 1 << 20);
      if (!N)
        return 2;
      Opts.StoreBudgetBytes = *N * (1ull << 20);
    } else if (Arg == "--store-verify") {
      Opts.StoreVerify = true;
    } else if (Arg == "--deadline-ms") {
      const char *V = Operand("--deadline-ms");
      if (!V)
        return 2;
      auto N = parseCount("--deadline-ms", V, 86'400'000);
      if (!N)
        return 2;
      Opts.DeadlineMillis = *N;
    } else if (Arg == "--memory-budget-mb") {
      const char *V = Operand("--memory-budget-mb");
      if (!V)
        return 2;
      auto N = parseCount("--memory-budget-mb", V, 1 << 20);
      if (!N)
        return 2;
      Opts.MemoryBudgetBytes = *N * (1ull << 20);
    } else if (Arg == "--client-budget-mb") {
      const char *V = Operand("--client-budget-mb");
      if (!V)
        return 2;
      auto N = parseCount("--client-budget-mb", V, 1 << 20);
      if (!N)
        return 2;
      Opts.ClientBudgetBytes = *N * (1ull << 20);
    } else if (Arg == "--retry") {
      const char *V = Operand("--retry");
      if (!V)
        return 2;
      auto N = parseCount("--retry", V, 16);
      if (!N)
        return 2;
      Opts.Retries = static_cast<unsigned>(*N);
    } else if (Arg == "--recv-timeout-ms") {
      const char *V = Operand("--recv-timeout-ms");
      if (!V)
        return 2;
      auto N = parseCount("--recv-timeout-ms", V, 86'400'000);
      if (!N)
        return 2;
      Opts.RecvTimeoutMillis = *N;
    } else if (Arg == "--idle-timeout-ms") {
      const char *V = Operand("--idle-timeout-ms");
      if (!V)
        return 2;
      auto N = parseCount("--idle-timeout-ms", V, 86'400'000);
      if (!N)
        return 2;
      Opts.IdleTimeoutMillis = *N;
    } else if (Arg == "--max-active-jobs") {
      const char *V = Operand("--max-active-jobs");
      if (!V)
        return 2;
      auto N = parseCount("--max-active-jobs", V, 1 << 20);
      if (!N)
        return 2;
      Opts.MaxActiveJobs = *N;
    } else if (Arg == "--max-connections") {
      const char *V = Operand("--max-connections");
      if (!V)
        return 2;
      auto N = parseCount("--max-connections", V, 1 << 20);
      if (!N)
        return 2;
      Opts.MaxConnections = *N;
    } else if (Arg == "--journal") {
      const char *V = Operand("--journal");
      if (!V)
        return 2;
      Opts.JournalPath = V;
    } else if (Arg == "--max-frame-mb") {
      const char *V = Operand("--max-frame-mb");
      if (!V)
        return 2;
      auto N = parseCount("--max-frame-mb", V, 4096);
      if (!N)
        return 2;
      Opts.MaxFrameBytes = *N * (1ull << 20);
    } else if (Arg == "--no-incremental") {
      Opts.Incremental = false;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      fprintf(stderr, "qccd: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }
  if (Opts.SocketPath.empty()) {
    fprintf(stderr, "qccd: --socket is required\n");
    usage();
    return 2;
  }

  daemon::Daemon D(Opts);
  if (!D.valid()) {
    fprintf(stderr, "qccd: %s\n", D.error().c_str());
    return 2;
  }
  GDaemon = &D;
  std::signal(SIGINT, onInterrupt);
  std::signal(SIGTERM, onTerminate);
  // Dead clients surface as send errors, not process death.
  std::signal(SIGPIPE, SIG_IGN);

  std::string Workers =
      Opts.Jobs ? std::to_string(Opts.Jobs) : std::string("auto");
  printf("qccd: listening on %s (%s workers%s%s)\n",
         Opts.SocketPath.c_str(), Workers.c_str(),
         Opts.StoreDir.empty() ? "" : ", store ",
         Opts.StoreDir.c_str());
  fflush(stdout);
  D.serve();

  daemon::DaemonStats S = D.stats();
  printf("qccd: drained: %llu connections, %llu jobs served, %llu "
         "protocol errors, %llu budget cancellations\n",
         static_cast<unsigned long long>(S.Connections),
         static_cast<unsigned long long>(S.JobsServed),
         static_cast<unsigned long long>(S.ProtocolErrors),
         static_cast<unsigned long long>(S.BudgetCancels));
  printf("qccd: incremental: %llu functions reused, %llu re-verified, "
         "%llu invalidated\n",
         static_cast<unsigned long long>(S.FuncsReused),
         static_cast<unsigned long long>(S.FuncsReVerified),
         static_cast<unsigned long long>(S.FuncsInvalidated));
  printf("qccd: proofs: %llu derivation nodes, %llu.%03llu ms checking\n",
         static_cast<unsigned long long>(S.ProofNodes),
         static_cast<unsigned long long>(S.ProofCheckMicros / 1000),
         static_cast<unsigned long long>(S.ProofCheckMicros % 1000));
  printf("qccd: resilience: %llu jobs shed, %llu connections shed, %llu "
         "accept retries, %llu idle disconnects, %llu verdicts journaled\n",
         static_cast<unsigned long long>(S.JobsShed),
         static_cast<unsigned long long>(S.ConnectionsShed),
         static_cast<unsigned long long>(S.AcceptRetries),
         static_cast<unsigned long long>(S.IdleDisconnects),
         static_cast<unsigned long long>(S.JobsJournaled));
  GDaemon = nullptr;
  return 0;
}
