//===- perfbench/src/Main.cpp - Benchmark command line --------------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload <cold-batch|edit-stream|warm-serve> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--trace-out <file>]
//   perfbench populate <store-dir> <seed> <count> <threads>
//
// Prints notes, then one JSON line: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. perfbench/run.py builds this
// binary and forwards its own command-line arguments to it. Workers,
// clients and connections number nproc (std::thread::hardware_concurrency).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<cold-batch|edit-stream|warm-serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] "
               "[--trace-out <file>]\n",
               Why);
  return 2;
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End && *End == '\0' && End != S && std::isfinite(Out) && Out >= 0;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 6 && std::string(Argv[1]) == "populate")
    return populateStore(Argv[2], std::strtoull(Argv[3], nullptr, 10),
                         static_cast<unsigned>(std::atoi(Argv[4])),
                         static_cast<unsigned>(std::atoi(Argv[5])));

  RunOptions O;
  O.Threads = std::max(1u, std::thread::hardware_concurrency());
  O.WorkDir = ".bench_build/perfbench/work";
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    double N = 0;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      if (!parseNumber(V, N))
        return usage("--seed expects a number");
      O.Seed = static_cast<uint64_t>(N);
      HaveSeed = true;
    } else if (A == "--seconds") {
      if (!parseNumber(V, N) || N <= 0)
        return usage("--seconds expects a positive number");
      O.Seconds = N;
    } else if (A == "--trace") {
      if (std::string(V) != "0" && std::string(V) != "1")
        return usage("--trace expects 0 or 1");
      O.Trace = V[0] == '1';
    } else if (A == "--work-dir") {
      O.WorkDir = V;
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed)
    return usage("--workload and --seed are required");

  // A private scratch directory per process, removed on the way out.
  std::error_code EC;
  O.WorkDir += "/" + std::to_string(::getpid());
  std::filesystem::remove_all(O.WorkDir, EC);
  std::filesystem::create_directories(O.WorkDir, EC);
  if (EC)
    return usage(("cannot create " + O.WorkDir).c_str());
  // Write back what earlier runs left dirty (an edit-stream run writes
  // hundreds of megabytes of store entries), so this run's fsyncs do not
  // queue behind it.
  if (int Fd = ::open(O.WorkDir.c_str(), O_RDONLY | O_DIRECTORY); Fd >= 0) {
    ::syncfs(Fd);
    ::close(Fd);
  }
  char Exe[4096];
  ssize_t Len = ::readlink("/proc/self/exe", Exe, sizeof Exe - 1);
  if (Len > 0)
    O.SelfExe.assign(Exe, static_cast<size_t>(Len));

  CpuTicks Ticks0 = readCpuTicks();
  RunReport R;
  if (O.Workload == "cold-batch")
    R = runColdBatch(O);
  else if (O.Workload == "edit-stream")
    R = runEditStream(O);
  else if (O.Workload == "warm-serve")
    R = runWarmServe(O);
  else
    return usage(("unknown workload " + O.Workload).c_str());
  std::filesystem::remove_all(O.WorkDir, EC);
  CpuTicks Ticks1 = readCpuTicks();
  if (Ticks1.Busy > Ticks0.Busy)
    R.Notes.push_back("machine: " +
                      std::to_string((Ticks1.Steal - Ticks0.Steal) * 100 /
                                     (Ticks1.Busy - Ticks0.Busy)) +
                      "% of busy CPU time was stolen by the host");

  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  for (const std::string &W : R.Rejections)
    std::printf("# REJECTED %s\n", W.c_str());
  std::printf("# error_rate %.6g (%llu failed of %llu attempted)\n",
              R.Attempted ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 0.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 && R.Attempted ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : R.Metrics) {
    char Num[64];
    std::snprintf(Num, sizeof Num, "%.10g",
                  std::isfinite(VU.first) ? VU.first : 0.0);
    Json += (First ? "" : ", ") + jsonString(Name) + ": {\"value\": " + Num +
            ", \"unit\": " + jsonString(VU.second) + "}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
