//===- perfbench/src/EditStream.cpp - The edit-stream workload ------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// nproc closed-loop clients of an in-process qccd (store and incremental
// engine on, nproc workers), each owning one library TU and sending a
// seeded stream of one-function edits. Shared work between requests is
// per function: the function keys decide what re-verifies.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "incremental/Incremental.h"
#include "store/Store.h"

#include <atomic>
#include <filesystem>

using namespace qcc;

namespace perfbench {

namespace {

struct Client {
  Client(uint64_t Seed, unsigned Index) : Tu(Seed, Index) {}
  LibraryTu Tu;
  daemon::DaemonClient Conn;
  std::vector<BatchJob> Jobs; ///< Every edit sent, in order.
  std::vector<EditKind> Kinds;
  std::vector<ClientRequest> Requests;
  std::vector<Clock::time_point> Done; ///< When each verdict arrived.
};

/// One set-up: a fresh store directory, a daemon serving it, and nproc
/// connected clients.
struct Service {
  std::string Dir;
  std::unique_ptr<DaemonHarness> Daemon;
  std::vector<std::unique_ptr<Client>> Clients;
  std::string Error;
};

std::unique_ptr<Service> setUp(const RunOptions &O, unsigned Index) {
  auto S = std::make_unique<Service>();
  S->Dir = O.WorkDir + "/edit-" + std::to_string(Index);
  std::filesystem::create_directories(S->Dir);
  S->Daemon = std::make_unique<DaemonHarness>(S->Dir + "/d.sock",
                                              S->Dir + "/store", O.Threads);
  if (!S->Daemon->ok()) {
    S->Error = "daemon: " + S->Daemon->error();
    return S;
  }
  for (unsigned C = 0; C != O.Threads; ++C) {
    auto &Cl = S->Clients.emplace_back(std::make_unique<Client>(O.Seed, C));
    if (!Cl->Conn.connectWithRetry(S->Daemon->socket(),
                                   daemon::RetryPolicy())) {
      S->Error = "connect: " + Cl->Conn.error();
      break;
    }
  }
  return S;
}

/// Each client's cold first verification of its library TU, concurrently:
/// what the edits then build on; the last step of set-up.
void firstVerifications(Service &S) {
  SpanRecorder Off(false);
  std::vector<std::thread> Threads;
  std::mutex ErrM;
  for (auto &C : S.Clients)
    Threads.emplace_back([&, Cl = C.get()] {
      ClientRequest R =
          submitJob(Cl->Conn, S.Daemon->socket(), libraryJob(Cl->Tu), Off, 0);
      if (!R.HaveVerdict || !R.Result.Ok) {
        std::lock_guard<std::mutex> G(ErrM);
        S.Error = Cl->Tu.id() + ": first verification failed: " + R.Error +
                  R.Result.Diagnostics;
      }
    });
  for (std::thread &T : Threads)
    T.join();
}

/// Disconnects the clients and stops the daemon, keeping the recorded
/// requests for the oracle.
void stopService(Service &S) {
  for (auto &C : S.Clients)
    C->Conn.disconnect();
  S.Daemon.reset();
}

void tearDown(std::unique_ptr<Service> &S) {
  if (!S)
    return;
  stopService(*S);
  std::error_code EC;
  std::filesystem::remove_all(S->Dir, EC);
  S.reset();
}

/// Runs every client's closed loop for \p Seconds. With \p Windows, the
/// calling thread closes a window every half second and files each
/// request's latency under the window its verdict arrived in (requests
/// finishing after the last full window are left out). With \p PeakRss,
/// the loop also runs until PeakRssAfterJobs verdicts have arrived and
/// stores the peak resident set at that verdict there.
void closedLoop(Service &S, double Seconds, SpanRecorder &Rec,
                std::atomic<uint64_t> &RequestIds,
                std::vector<Window> *Windows = nullptr,
                double *PeakRss = nullptr) {
  auto T0 = Clock::now();
  auto Deadline = T0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(Seconds));
  std::atomic<uint64_t> Completed{0};
  std::vector<std::thread> Threads;
  for (auto &C : S.Clients)
    Threads.emplace_back([&, Cl = C.get()] {
      while (Clock::now() < Deadline ||
             (PeakRss && Completed.load() < PeakRssAfterJobs)) {
        EditKind K = Cl->Tu.edit();
        BatchJob J = libraryJob(Cl->Tu);
        ClientRequest R =
            submitJob(Cl->Conn, S.Daemon->socket(), J, Rec, ++RequestIds);
        Cl->Jobs.push_back(std::move(J));
        Cl->Kinds.push_back(K);
        Cl->Requests.push_back(std::move(R));
        Cl->Done.push_back(Clock::now());
        if (Completed.fetch_add(1) + 1 == PeakRssAfterJobs && PeakRss)
          *PeakRss = peakRssMiB();
      }
    });
  std::vector<Clock::time_point> Ends;
  if (Windows) {
    auto Edge = T0;
    uint64_t LastJobs = 0;
    for (WindowClock Win;;) {
      Edge += std::chrono::milliseconds(500);
      if (Edge > Deadline)
        break;
      std::this_thread::sleep_until(Edge);
      uint64_t Jobs = Completed.load(std::memory_order_relaxed);
      Windows->push_back(Win.close(Jobs - LastJobs));
      Ends.push_back(Clock::now());
      Win = WindowClock();
      LastJobs = Jobs;
    }
  }
  for (std::thread &T : Threads)
    T.join();
  if (!Windows)
    return;
  for (auto &C : S.Clients)
    for (size_t I = 0; I != C->Done.size(); ++I) {
      auto It = std::lower_bound(Ends.begin(), Ends.end(), C->Done[I]);
      if (It != Ends.end() && C->Done[I] >= T0)
        (*Windows)[static_cast<size_t>(It - Ends.begin())].Latency.push_back(
            C->Requests[I].Millis);
    }
}

/// Client requests from index \p From on, across every client.
template <typename Fn> void forEachRequest(Service &S, size_t From, Fn F) {
  for (auto &C : S.Clients)
    for (size_t I = From; I < C->Requests.size(); ++I)
      F(*C, I);
}

/// Rejects failed requests and oracle-checks every verdict from request
/// \p From on.
void checkRequests(RunReport &Out, Service &S, size_t From,
                   unsigned Threads) {
  std::vector<std::pair<const BatchJob *, const ProgramResult *>> Items;
  forEachRequest(S, From, [&](Client &C, size_t I) {
    const ClientRequest &R = C.Requests[I];
    if (!R.HaveVerdict)
      Out.reject(C.Tu.id() + ": " + R.Error);
    else
      Items.push_back({&C.Jobs[I], &R.Result});
  });
  for (const std::string &Why : checkAll(Items, Threads))
    Out.reject(Why);
}

/// The seeded reference sample: a few early edits of every client's
/// stream, verified uncached before the measured phase.
struct ReferenceSample {
  std::vector<std::pair<unsigned, size_t>> Where; ///< (client, edit index)
  std::vector<ProgramResult> Verdicts;
};

ReferenceSample referenceSample(const RunOptions &O) {
  ReferenceSample Ref;
  std::vector<BatchJob> Jobs;
  fuzz::Rng Pick(subSeed(O.Seed, 0xED17, 0));
  for (unsigned C = 0; C != O.Threads; ++C) {
    LibraryTu Tu(O.Seed, C);
    std::set<size_t> Indices;
    while (Indices.size() != 3)
      Indices.insert(Pick.below(12));
    for (size_t I = 0; I <= *Indices.rbegin(); ++I) {
      Tu.edit();
      if (Indices.count(I)) {
        Ref.Where.push_back({C, I});
        Jobs.push_back(libraryJob(Tu));
      }
    }
  }
  Ref.Verdicts = referenceVerdicts(Jobs, O.Threads);
  return Ref;
}

void compareReferences(RunReport &Out, Service &S, const ReferenceSample &Ref) {
  for (size_t K = 0; K != Ref.Where.size(); ++K) {
    auto [C, I] = Ref.Where[K];
    Client &Cl = *S.Clients[C];
    if (I >= Cl.Requests.size() || !Cl.Requests[I].HaveVerdict) {
      Out.reject(Cl.Tu.id() + ": sampled edit " + std::to_string(I) +
                 " has no verdict");
      continue;
    }
    std::string Why = Oracle::sameVerdict(Cl.Requests[I].Result,
                                          Ref.Verdicts[K]);
    if (!Why.empty())
      Out.reject(Cl.Tu.id() + " edit " + std::to_string(I) + ": " + Why);
  }
}

RunReport timed(const RunOptions &O) {
  RunReport Out;
  // Set-up, repeated (it is small, so its median needs many): the
  // service, the clients' first verifications and the uncached reference
  // sample.
  std::vector<double> Setup;
  std::unique_ptr<Service> S;
  ReferenceSample Ref;
  for (unsigned K = 0; K != 9; ++K) {
    tearDown(S);
    double Cpu0 = setupCpuSeconds();
    S = setUp(O, K);
    if (S->Error.empty())
      firstVerifications(*S);
    Ref = referenceSample(O);
    Setup.push_back(setupCpuSeconds() - Cpu0);
    if (!S->Error.empty()) {
      Out.reject(S->Error);
      return Out;
    }
  }

  SpanRecorder Off(false);
  std::atomic<uint64_t> Ids{0};
  std::vector<Window> Windows;
  double PeakRss = 0;
  closedLoop(*S, O.Seconds, Off, Ids, &Windows, &PeakRss);

  std::map<EditKind, std::vector<double>> ByKind;
  forEachRequest(*S, 0, [&](Client &C, size_t I) {
    ByKind[C.Kinds[I]].push_back(C.Requests[I].Millis);
    ++Out.Attempted;
  });
  reportEndToEnd(Out, Windows, Setup, PeakRss);
  for (auto &[K, Ms] : ByKind) {
    std::sort(Ms.begin(), Ms.end());
    char Line[128];
    std::snprintf(Line, sizeof Line, "%s edits: %zu, p50 %.3f ms, p99 %.3f ms",
                  editKindName(K), Ms.size(), percentile(Ms, 50),
                  percentile(Ms, 99));
    Out.Notes.push_back(Line);
  }
  daemon::DaemonStats DS = S->Daemon->stats();
  Out.Notes.push_back(
      "daemon: " + std::to_string(DS.FuncsReused) + " functions reused, " +
      std::to_string(DS.FuncsReVerified) + " re-verified, " +
      std::to_string(DS.JobsShed) + " jobs shed");
  // The oracle runs after the daemon is gone, so it cannot compete with
  // the measured phase; the verdicts are all in memory.
  stopService(*S);
  compareReferences(Out, *S, Ref);
  checkRequests(Out, *S, 0, O.Threads);
  tearDown(S);
  return Out;
}

/// Traced run: the same closed loop untraced then traced (the difference
/// is the tracing overhead) with the daemon-layer numbers from the client
/// side, then the same edit script replayed in-process through
/// incremental::Engine::verify, the whole-file store put, and the
/// lowering half of the pipeline under spans (validation and Theorem 1
/// on the edits that miss the replay key). The analyzer runs inside
/// Engine::verify over the engine's reused specs, so its time is part of
/// incremental.verify_ms and analysis.analyze_ms reads 0 here, as do the
/// store-fetch, verdict-codec and batch-pool metrics.
RunReport traced(const RunOptions &O) {
  RunReport Out;
  std::unique_ptr<Service> S = setUp(O, 0);
  if (S->Error.empty())
    firstVerifications(*S);
  if (!S->Error.empty()) {
    Out.reject(S->Error);
    return Out;
  }
  LayerTotals Totals;
  std::atomic<uint64_t> Ids{0};
  SpanRecorder Off(false), Rec(true);
  closedLoop(*S, O.Seconds / 4, Off, Ids);
  std::vector<size_t> Split;
  for (auto &C : S->Clients)
    Split.push_back(C->Requests.size());
  closedLoop(*S, O.Seconds / 4, Rec, Ids);
  double Untraced = 0, TracedMs = 0, Server = 0, Frame = 0;
  size_t NU = 0, NT = 0;
  for (size_t C = 0; C != S->Clients.size(); ++C) {
    Client &Cl = *S->Clients[C];
    for (size_t I = 0; I != Cl.Requests.size(); ++I) {
      const ClientRequest &R = Cl.Requests[I];
      if (I < Split[C]) {
        Untraced += R.Millis;
        ++NU;
        continue;
      }
      TracedMs += R.Millis;
      Server += R.ServerMillis;
      Frame += static_cast<double>(R.FrameBytes);
      ++NT;
    }
  }
  double MeanU = NU ? Untraced / NU : 0, MeanT = NT ? TracedMs / NT : 0;
  Totals["trace.overhead_pct"] =
      MeanU > 0 ? (MeanT - MeanU) / MeanU * 100 : 0;
  Totals["daemon.server_ms"] = NT ? Server / NT : 0;
  Totals["daemon.overhead_ms"] = NT ? (TracedMs - Server) / NT : 0;
  Totals["daemon.verdict_frame_bytes"] = NT ? Frame / NT : 0;
  std::vector<double> Pings;
  for (auto &C : S->Clients)
    Pings.push_back(pingMillis(C->Conn, 25, Rec));
  Totals["daemon.ping_rtt_ms"] = median(Pings);
  Totals["daemon.jobs_shed"] =
      static_cast<double>(S->Daemon->stats().JobsShed);
  size_t DaemonRequests = 0;
  for (auto &C : S->Clients)
    DaemonRequests += C->Requests.size();
  stopService(*S);
  checkRequests(Out, *S, 0, O.Threads);
  tearDown(S);

  // In-process replay of the edit script.
  std::string Dir = O.WorkDir + "/edit-replay";
  std::filesystem::create_directories(Dir);
  incremental::EngineOptions EO;
  EO.FuncStoreDir = Dir + "/store/funcs";
  incremental::Engine Engine(EO);
  store::StoreOptions SO;
  SO.Dir = Dir + "/store";
  std::unique_ptr<store::VerificationStore> Store =
      store::VerificationStore::open(SO);
  std::vector<LibraryTu> Tus;
  for (unsigned C = 0; C != O.Threads; ++C)
    Tus.emplace_back(O.Seed, C);
  LayerTotals Counts; // tracePipeline's counts, edits only (reset below).
  auto Verify = [&](const BatchJob &J, uint64_t Request) {
    incremental::EngineStats Before = Engine.stats();
    ProgramResult R;
    {
      ScopedSpan Sp(Rec, "incremental.verify", Request);
      R = Engine.verify(J, true, nullptr, /*KeepProofArtifacts=*/true);
    }
    if (!R.Ok)
      Out.reject(J.Id + ": in-process replay did not verify");
    if (Store) {
      ScopedSpan Sp(Rec, "store.put", Request);
      Store->put(batch::jobKey(J, true), R, nullptr);
    }
    // The lowering half reruns on every edit; translation validation and
    // Theorem 1 rerun only when the engine missed its replay key.
    bool Replayed = Engine.stats().ReplayMisses != Before.ReplayMisses;
    PipelinePhases P;
    P.Validate = P.Theorem1 = Replayed;
    P.Analyze = false;
    tracePipeline(J, Rec, Request, Counts, P);
  };
  for (LibraryTu &Tu : Tus)
    Verify(libraryJob(Tu), ++Ids);
  Counts = LayerTotals();
  incremental::EngineStats Cold = Engine.stats();
  size_t Before = Rec.spans().size();
  uint64_t Edits = 0;
  auto Start = Clock::now();
  while (secondsSince(Start) < O.Seconds / 2)
    for (LibraryTu &Tu : Tus) {
      Tu.edit();
      Verify(libraryJob(Tu), ++Ids);
      ++Edits;
    }
  incremental::EngineStats Warm = Engine.stats();

  // Per-edit means over the replayed edits (the cold first verifications
  // are excluded by subtracting the spans and counters recorded before).
  std::vector<Span> EditSpans = spansSince(Rec, Before);
  LayerTotals EditTotals;
  addLayerSelfTimes(EditSpans, EditTotals);
  double E = static_cast<double>(std::max<uint64_t>(Edits, 1));
  for (auto &[Name, V] : EditTotals)
    Totals[Name] = V / E;
  for (auto &[Name, V] : Counts)
    Totals[Name] = V / E;
  double ValidateSeconds = EditTotals["validate.ms"] / 1e3;
  Totals["validate.events_per_s"] =
      ValidateSeconds > 0 ? Counts["validate.events"] / ValidateSeconds
                          : 0;
  double Reused = static_cast<double>(Warm.FuncsReused - Cold.FuncsReused);
  double Fresh =
      static_cast<double>(Warm.FuncsReVerified - Cold.FuncsReVerified);
  Totals["incremental.funcs_reused"] = Reused / E;
  Totals["incremental.funcs_reverified"] = Fresh / E;
  Totals["incremental.reuse_ratio"] =
      Reused + Fresh > 0 ? Reused / (Reused + Fresh) : 0;
  double Hits = static_cast<double>(Warm.ReplayHits - Cold.ReplayHits);
  double Misses = static_cast<double>(Warm.ReplayMisses - Cold.ReplayMisses);
  Totals["incremental.replay_hit_ratio"] =
      Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
  if (Store) {
    store::StoreStats SS = Store->stats();
    Totals["store.bytes_written"] =
        SS.Writes ? static_cast<double>(SS.BytesWritten) / SS.Writes : 0;
  }
  for (const auto &[Name, Unit] : perLayerMetrics())
    Out.metric(Name, Totals[Name], Unit.c_str());
  Out.Attempted = DaemonRequests + Edits + Tus.size();
  Out.Notes.push_back(std::to_string(DaemonRequests) +
                      " daemon requests, " + std::to_string(Edits) +
                      " edits replayed in-process");
  if (!O.TraceOut.empty() && !Rec.writeJsonLines(O.TraceOut))
    Out.Notes.push_back("could not write spans to " + O.TraceOut);
  return Out;
}

} // namespace

RunReport runEditStream(const RunOptions &O) {
  return O.Trace ? traced(O) : timed(O);
}

} // namespace perfbench
