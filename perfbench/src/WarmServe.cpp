//===- perfbench/src/WarmServe.cpp - The warm-serve workload --------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// A separate process verifies a seeded population of distinct TUs into a
// store; fresh daemons over that store then serve nproc closed-loop
// clients that request every TU twice: the first request is a store hit,
// the second an in-memory cache hit, and any fresh verification is an
// error. The compiler does no work here; shared work is whole-file.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "daemon/Protocol.h"
#include "store/Store.h"

#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>

extern char **environ;

using namespace qcc;

namespace perfbench {

namespace {

/// Population size: large enough that one serving round (every TU twice)
/// outlasts the daemon restart between rounds, small enough that
/// populating it five times stays a few seconds. The store also holds one
/// warm-up TU per client (indices from PopulationSize on), requested once
/// and untimed when a round's daemon starts, so thread and connection
/// start-up of a fresh daemon stays out of the latency tail.
constexpr unsigned PopulationSize = 160;

/// Runs `SelfExe populate ...` and waits for it.
bool populateInChild(const RunOptions &O, const std::string &StoreDir,
                     std::string &Error) {
  std::vector<std::string> Args = {O.SelfExe,
                                   "populate",
                                   StoreDir,
                                   std::to_string(O.Seed),
                                   std::to_string(PopulationSize + O.Threads),
                                   std::to_string(O.Threads)};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  pid_t Pid = 0;
  if (posix_spawn(&Pid, O.SelfExe.c_str(), nullptr, nullptr, Argv.data(),
                  environ) != 0) {
    Error = "cannot start the populate process";
    return false;
  }
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Error = "populate process failed";
    return false;
  }
  return true;
}

struct Client {
  daemon::DaemonClient Conn;
  std::vector<size_t> Order; ///< Population indices, each twice.
  std::vector<ClientRequest> Requests;
};

/// One serving round's daemon and connected clients.
struct Round {
  std::unique_ptr<DaemonHarness> Daemon;
  std::vector<std::unique_ptr<Client>> Clients;
  std::string Error;
};

std::unique_ptr<Round> startRound(const RunOptions &O, const std::string &Dir,
                                  const std::vector<BatchJob> &Population,
                                  unsigned Index) {
  auto R = std::make_unique<Round>();
  R->Daemon = std::make_unique<DaemonHarness>(Dir + "/d.sock", Dir + "/store",
                                              O.Threads);
  if (!R->Daemon->ok()) {
    R->Error = "daemon: " + R->Daemon->error();
    return R;
  }
  // Client C owns every TU whose index is C modulo nproc, so a TU's two
  // requests come from one client: first a store hit, then a cache hit.
  for (unsigned C = 0; C != O.Threads; ++C) {
    auto Cl = std::make_unique<Client>();
    if (!Cl->Conn.connectWithRetry(R->Daemon->socket(),
                                   daemon::RetryPolicy())) {
      R->Error = "connect: " + Cl->Conn.error();
      return R;
    }
    daemon::JobRequest WarmUp;
    WarmUp.Job = Population[PopulationSize + C];
    daemon::ClientOutcome W = Cl->Conn.verifyWithRetry(
        WarmUp, R->Daemon->socket(), daemon::RetryPolicy());
    if (!W.HaveVerdict || !W.Result.StoreHit) {
      R->Error = "warm-up request was not a store hit: " + W.Error;
      return R;
    }
    std::vector<size_t> Mine;
    for (size_t I = C; I < PopulationSize; I += O.Threads)
      Mine.push_back(I);
    fuzz::Rng Shuffle(subSeed(O.Seed, 0x5E57E, uint64_t(Index) * 64 + C));
    for (unsigned Pass = 0; Pass != 2; ++Pass) {
      for (size_t I = Mine.size(); I > 1; --I)
        std::swap(Mine[I - 1], Mine[Shuffle.below(static_cast<uint32_t>(I))]);
      Cl->Order.insert(Cl->Order.end(), Mine.begin(), Mine.end());
    }
    R->Clients.push_back(std::move(Cl));
  }
  return R;
}

void stopRound(Round &R) {
  for (auto &C : R.Clients)
    C->Conn.disconnect();
  R.Daemon.reset();
}

/// Serves one round: every client's requests, in its order.
void serveRound(Round &R, const std::vector<BatchJob> &Population,
                SpanRecorder &Rec, std::atomic<uint64_t> &Ids) {
  std::vector<std::thread> Threads;
  for (auto &C : R.Clients)
    Threads.emplace_back([&, Cl = C.get()] {
      for (size_t I : Cl->Order)
        Cl->Requests.push_back(submitJob(Cl->Conn, R.Daemon->socket(),
                                         Population[I], Rec, ++Ids));
    });
  for (std::thread &T : Threads)
    T.join();
}

/// What the serving rounds produced: the first verdict served for each TU
/// (for the oracle), hit counts, sums for the traced run, and the windows.
struct Served {
  std::vector<std::optional<ProgramResult>> First;
  uint64_t Requests = 0;
  uint64_t CacheHits = 0, StoreHits = 0, JobsShed = 0;
  double Millis = 0, ServerMillis = 0, FrameBytes = 0;
  std::vector<Window> Windows; ///< One per serving round.
};

void account(RunReport &Out, const Round &R, Served &S) {
  for (const auto &C : R.Clients) {
    std::vector<bool> SeenHere(S.First.size(), false);
    for (size_t K = 0; K != C->Requests.size(); ++K) {
      const ClientRequest &Q = C->Requests[K];
      size_t I = C->Order[K];
      ++S.Requests;
      S.Windows.back().Latency.push_back(Q.Millis);
      S.Millis += Q.Millis;
      S.ServerMillis += Q.ServerMillis;
      S.FrameBytes += static_cast<double>(Q.FrameBytes);
      if (!Q.HaveVerdict) {
        Out.reject("TU " + std::to_string(I) + ": " + Q.Error);
        continue;
      }
      S.CacheHits += Q.Result.CacheHit;
      S.StoreHits += Q.Result.StoreHit;
      bool Second = SeenHere[I];
      SeenHere[I] = true;
      if (!(Second ? Q.Result.CacheHit : Q.Result.StoreHit))
        Out.reject(Q.Result.Id + ": request " + std::to_string(K) +
                   " was not served by the " + (Second ? "cache" : "store"));
      if (!S.First[I])
        S.First[I] = Q.Result;
      else if (std::string Why = Oracle::sameVerdict(Q.Result, *S.First[I]);
               !Why.empty())
        Out.reject(Q.Result.Id + ": verdict changed between requests: " + Why);
    }
  }
}

void checkFirstVerdicts(RunReport &Out, const Served &S,
                        const std::vector<BatchJob> &Population,
                        const std::vector<size_t> &Sample,
                        const std::vector<ProgramResult> &Refs,
                        unsigned Threads) {
  std::vector<std::pair<const BatchJob *, const ProgramResult *>> Items;
  for (size_t I = 0; I != PopulationSize; ++I)
    if (S.First[I])
      Items.push_back({&Population[I], &*S.First[I]});
  for (const std::string &Why : checkAll(Items, Threads))
    Out.reject(Why);
  for (size_t K = 0; K != Sample.size(); ++K) {
    const std::optional<ProgramResult> &Got = S.First[Sample[K]];
    std::string Why = Got ? Oracle::sameVerdict(*Got, Refs[K])
                          : std::string("never served");
    if (!Why.empty())
      Out.reject(Population[Sample[K]].Id + ": " + Why);
  }
}

struct Setup {
  std::string Dir;
  std::unique_ptr<Round> First;
  std::string Error;
};

/// Set-up: populate a fresh store in a child process, then bring up the
/// first round's daemon and connect its clients.
Setup setUp(const RunOptions &O, const std::vector<BatchJob> &Population,
            unsigned Index) {
  Setup S;
  S.Dir = O.WorkDir + "/warm-" + std::to_string(Index);
  std::filesystem::create_directories(S.Dir);
  if (!populateInChild(O, S.Dir + "/store", S.Error))
    return S;
  S.First = startRound(O, S.Dir, Population, 0);
  S.Error = S.First->Error;
  return S;
}

/// Serves rounds until \p Seconds of serving time have passed (at least
/// one), starting with \p First; every later round restarts the daemon so
/// each round begins with a cold in-memory cache over the warm store.
/// Daemon restarts are not part of the measured time.
void serveFor(RunReport &Out, const RunOptions &O, const std::string &Dir,
              std::unique_ptr<Round> First,
              const std::vector<BatchJob> &Population, double Seconds,
              SpanRecorder &Rec, Served &S, std::atomic<uint64_t> &Ids) {
  double Wall = 0;
  std::unique_ptr<Round> R = std::move(First);
  for (;;) {
    WindowClock Win;
    serveRound(*R, Population, Rec, Ids);
    Wall += S.Windows.emplace_back(Win.close(2 * PopulationSize)).Seconds;
    S.JobsShed += R->Daemon->stats().JobsShed;
    stopRound(*R);
    account(Out, *R, S);
    if (Wall >= Seconds)
      break;
    R = startRound(O, Dir, Population, static_cast<unsigned>(S.Windows.size()));
    if (!R->Error.empty()) {
      Out.reject(R->Error);
      break;
    }
  }
}

std::vector<size_t> referenceIndices(uint64_t Seed) {
  fuzz::Rng Pick(subSeed(Seed, 0x5A3B1E, 0));
  std::set<size_t> Out;
  while (Out.size() != 8)
    Out.insert(Pick.below(PopulationSize));
  return {Out.begin(), Out.end()};
}

RunReport timed(const RunOptions &O) {
  RunReport Out;
  std::vector<double> SetupSeconds;
  std::vector<BatchJob> Population =
      warmPopulation(O.Seed, PopulationSize + O.Threads);
  std::vector<size_t> Sample = referenceIndices(O.Seed);
  std::vector<BatchJob> SampleJobs;
  for (size_t I : Sample)
    SampleJobs.push_back(Population[I]);
  // Set-up, repeated: the populated store, the first round's daemon and
  // clients, and the uncached reference sample.
  Setup S;
  std::vector<ProgramResult> Refs;
  for (unsigned K = 0; K != 5; ++K) {
    if (S.First)
      stopRound(*S.First);
    std::error_code EC;
    if (!S.Dir.empty())
      std::filesystem::remove_all(S.Dir, EC);
    double Cpu0 = setupCpuSeconds();
    S = setUp(O, Population, K);
    Refs = referenceVerdicts(SampleJobs, O.Threads);
    SetupSeconds.push_back(setupCpuSeconds() - Cpu0);
    if (!S.Error.empty()) {
      Out.reject(S.Error);
      return Out;
    }
  }

  SpanRecorder Off(false);
  Served Sv;
  Sv.First.resize(PopulationSize);
  std::atomic<uint64_t> Ids{0};
  serveFor(Out, O, S.Dir, std::move(S.First), Population, O.Seconds, Off, Sv,
           Ids);
  Out.Attempted = Sv.Requests;
  // The tail is taken per serving round (p95 of its 320 requests): a
  // round is the unit the host's slowdowns come and go in, and the p99 of
  // a sub-millisecond service mostly measures those slowdowns.
  // Every round starts a fresh daemon, so the peak resident set does not
  // grow with the rounds served.
  reportEndToEnd(Out, Sv.Windows, SetupSeconds, peakRssMiB(),
                 2 * PopulationSize);
  Out.Notes.push_back(std::to_string(Sv.Windows.size()) + " rounds of " +
                      std::to_string(2 * PopulationSize) + " requests: " +
                      std::to_string(Sv.StoreHits) + " store hits, " +
                      std::to_string(Sv.CacheHits) + " cache hits");
  checkFirstVerdicts(Out, Sv, Population, Sample, Refs, O.Threads);
  return Out;
}

/// The calls behind one warm hit, made directly on every TU of the
/// population for \p Seconds (at least once each): VerificationStore::fetch
/// (what a first request costs the daemon), ResultCache::lookup (a second
/// request), and the verdict codec both go through. Adds per-fetch means
/// to \p Totals; returns the number of fetches.
uint64_t timeWarmHitCalls(RunReport &Out, const std::string &StoreDir,
                          const std::vector<BatchJob> &Population,
                          double Seconds, SpanRecorder &Rec,
                          std::atomic<uint64_t> &Ids, LayerTotals &Totals) {
  store::StoreOptions SO;
  SO.Dir = StoreDir;
  std::string Error;
  std::unique_ptr<store::VerificationStore> Store =
      store::VerificationStore::open(SO, &Error);
  if (!Store) {
    Out.reject("cannot reopen the populated store: " + Error);
    return 0;
  }
  size_t First = Rec.spans().size();
  batch::ResultCache Cache;
  uint64_t Fetches = 0;
  auto T0 = Clock::now();
  do {
    for (size_t I = 0; I != PopulationSize; ++I) {
      const BatchJob &J = Population[I];
      uint64_t Request = ++Ids;
      batch::JobKey Key = batch::jobKey(J, true);
      std::shared_ptr<const ProgramResult> Hit;
      {
        ScopedSpan Sp(Rec, "store.fetch", Request);
        Hit = Store->fetch(Key, J, nullptr);
      }
      ++Fetches;
      if (!Hit) {
        Out.reject(J.Id + ": populated store has no entry");
        continue;
      }
      Cache.insert(Key, Hit);
      {
        ScopedSpan Sp(Rec, "cache.lookup", Request);
        Hit = Cache.lookup(Key);
      }
      std::string Wire;
      {
        ScopedSpan Sp(Rec, "verdict.encode", Request);
        Wire = daemon::encodeVerdict(*Hit);
      }
      ProgramResult Back;
      bool Decoded;
      {
        ScopedSpan Sp(Rec, "verdict.decode", Request);
        Decoded = daemon::decodeVerdict(Wire, Back);
      }
      if (!Decoded || !Oracle::sameVerdict(Back, *Hit).empty())
        Out.reject(J.Id + ": verdict does not survive the wire codec");
    }
  } while (secondsSince(T0) < Seconds);

  LayerTotals Direct;
  addLayerSelfTimes(spansSince(Rec, First), Direct);
  double N = static_cast<double>(std::max<uint64_t>(Fetches, 1));
  for (const auto &[Name, V] : Direct)
    Totals[Name] = V / N;
  store::StoreStats SS = Store->stats();
  Totals["store.bytes_read"] =
      SS.Hits ? static_cast<double>(SS.BytesRead) / SS.Hits : 0;
  return Fetches;
}

/// Traced run: serving rounds untraced then traced (the difference is the
/// tracing overhead; the traced rounds give the daemon-layer numbers as
/// the clients see them), then the store, cache and codec calls behind a
/// warm hit made directly. The compiler-side layers, which this traffic
/// never reaches, read 0.
RunReport traced(const RunOptions &O) {
  RunReport Out;
  std::vector<BatchJob> Population =
      warmPopulation(O.Seed, PopulationSize + O.Threads);
  Setup S = setUp(O, Population, 0);
  if (!S.Error.empty()) {
    Out.reject(S.Error);
    return Out;
  }
  SpanRecorder Off(false), Rec(true);
  LayerTotals Totals;
  std::atomic<uint64_t> Ids{0};
  Served Untraced, Traced;
  Untraced.First.resize(PopulationSize);
  Traced.First.resize(PopulationSize);
  serveFor(Out, O, S.Dir, std::move(S.First), Population, O.Seconds / 4, Off,
           Untraced, Ids);
  std::unique_ptr<Round> Next = startRound(
      O, S.Dir, Population, static_cast<unsigned>(Untraced.Windows.size()));
  if (!Next->Error.empty()) {
    Out.reject(Next->Error);
    return Out;
  }
  // Ping before the traced rounds end the daemon.
  std::vector<double> Pings;
  for (auto &C : Next->Clients)
    Pings.push_back(pingMillis(C->Conn, 25, Rec));
  serveFor(Out, O, S.Dir, std::move(Next), Population, O.Seconds / 4, Rec,
           Traced, Ids);
  double MeanU = Untraced.Requests ? Untraced.Millis / Untraced.Requests : 0;
  double N = static_cast<double>(std::max<uint64_t>(Traced.Requests, 1));
  double MeanT = Traced.Millis / N;
  Totals["trace.overhead_pct"] =
      MeanU > 0 ? (MeanT - MeanU) / MeanU * 100 : 0;
  // Hits run no passes: their Status frames carry no server time, so the
  // whole client latency is overhead.
  Totals["daemon.server_ms"] = Traced.ServerMillis / N;
  Totals["daemon.overhead_ms"] =
      (Traced.Millis - Traced.ServerMillis) / N;
  Totals["daemon.verdict_frame_bytes"] = Traced.FrameBytes / N;
  Totals["daemon.ping_rtt_ms"] = median(Pings);
  Totals["daemon.jobs_shed"] = static_cast<double>(Traced.JobsShed);
  Totals["batch.cache_hit_ratio"] =
      static_cast<double>(Traced.CacheHits) / N;
  Totals["store.hits"] =
      static_cast<double>(Traced.StoreHits) /
      static_cast<double>(std::max<size_t>(1, Traced.Windows.size()));

  // Every daemon is down now, so the store is free to reopen.
  uint64_t Fetches = timeWarmHitCalls(Out, S.Dir + "/store", Population,
                                      O.Seconds / 8, Rec, Ids, Totals);
  for (const auto &[Name, Unit] : perLayerMetrics())
    Out.metric(Name, Totals[Name], Unit.c_str());
  Out.Attempted = Untraced.Requests + Traced.Requests + Fetches;
  Out.Notes.push_back(std::to_string(Untraced.Windows.size() +
                                     Traced.Windows.size()) +
                      " serving rounds, " + std::to_string(Fetches) +
                      " direct fetches");
  checkFirstVerdicts(Out, Traced, Population, {}, {}, O.Threads);
  if (!O.TraceOut.empty() && !Rec.writeJsonLines(O.TraceOut))
    Out.Notes.push_back("could not write spans to " + O.TraceOut);
  return Out;
}

} // namespace

int populateStore(const std::string &Dir, uint64_t Seed, unsigned N,
                  unsigned Threads) {
  store::StoreOptions SO;
  SO.Dir = Dir;
  std::string Error;
  std::unique_ptr<store::VerificationStore> Store =
      store::VerificationStore::open(SO, &Error);
  if (!Store) {
    std::fprintf(stderr, "perfbench populate: %s\n", Error.c_str());
    return 1;
  }
  batch::BatchOptions BO;
  BO.Jobs = Threads;
  BO.CheckTheorem1 = true;
  BO.Store = Store.get();
  batch::BatchResult B = batch::runBatch(warmPopulation(Seed, N), BO);
  for (const ProgramResult &R : B.Programs)
    if (R.Status != batch::JobStatus::Ok &&
        R.Status != batch::JobStatus::Failed) {
      std::fprintf(stderr, "perfbench populate: %s has no verdict\n",
                   R.Id.c_str());
      return 1;
    }
  return Store->stats().Writes == N ? 0 : 1;
}

RunReport runWarmServe(const RunOptions &O) {
  return O.Trace ? traced(O) : timed(O);
}

} // namespace perfbench
