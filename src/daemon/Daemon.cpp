//===- daemon/Daemon.cpp - Verification-as-a-service daemon ---------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"

#include "batch/ThreadPool.h"
#include "batch/Watchdog.h"
#include "incremental/Incremental.h"
#include "store/Store.h"
#include "support/FailPoint.h"
#include "support/Io.h"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace qcc;
using namespace qcc::batch;
using namespace qcc::daemon;

//===----------------------------------------------------------------------===//
// Connection state
//===----------------------------------------------------------------------===//

/// One accepted client. The connection thread owns the framing I/O; jobs
/// run on the shared pool under the per-connection supervisor, so budget
/// or shutdown cancellation drains this client's work without touching
/// any other connection.
struct Daemon::Connection {
  int Fd = -1;
  /// Parented to the daemon root: root cancel reaches every job.
  Supervisor Client;
  /// Supervisor-charged bytes across all of this client's jobs, billed
  /// against DaemonOptions::ClientBudgetBytes.
  uint64_t BilledBytes = 0;
  /// Per-connection incremental counters (accumulated from every job's
  /// metrics; zero when the engine is disabled or jobs were cache hits).
  uint64_t FuncsReused = 0;
  uint64_t FuncsReVerified = 0;
  uint64_t FuncsInvalidated = 0;
  uint64_t ProofNodes = 0;
  uint64_t ProofCheckMicros = 0;
  std::thread Thread;
  std::atomic<bool> Finished{false};

  explicit Connection(int Fd, const Supervisor *Root)
      : Fd(Fd), Client(Root) {}
};

//===----------------------------------------------------------------------===//
// Construction / teardown
//===----------------------------------------------------------------------===//

Daemon::Daemon(const DaemonOptions &O) : Opts(O) {
  if (Opts.SocketPath.empty()) {
    Error = "empty socket path";
    return;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: " + Opts.SocketPath;
    return;
  }
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  if (!Opts.StoreDir.empty()) {
    store::StoreOptions SO;
    SO.Dir = Opts.StoreDir;
    SO.BudgetBytes = Opts.StoreBudgetBytes;
    SO.VerifyProofsOnLoad = Opts.StoreVerify;
    std::string StoreError;
    Store = store::VerificationStore::open(SO, &StoreError);
    if (!Store) {
      Error = "cannot open store: " + StoreError;
      return;
    }
  }

  if (Opts.Incremental) {
    incremental::EngineOptions EO;
    if (!Opts.StoreDir.empty())
      EO.FuncStoreDir = Opts.StoreDir + "/funcs";
    Inc = std::make_unique<incremental::Engine>(std::move(EO));
  }

  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return;
  }
  // A previous daemon that crashed leaves the socket file behind; bind
  // would fail with EADDRINUSE even though nobody is listening. Unlink
  // first — the connect-before-serve race this opens is benign (the
  // client retries or fails cleanly).
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    Error = std::string("bind/listen ") + Opts.SocketPath + ": " +
            std::strerror(errno);
    ::close(Fd);
    return;
  }
  if (::pipe(WakePipe) < 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    ::close(Fd);
    return;
  }
  ListenFd = Fd;

  unsigned Workers = Opts.Jobs
                         ? Opts.Jobs
                         : std::max(1u, std::thread::hardware_concurrency());
  Pool = std::make_unique<ThreadPool>(Workers);
  if (!Opts.JournalPath.empty())
    Resume.emplace(Opts.JournalPath);
  if (Opts.DeadlineMillis)
    Dog = std::make_unique<Watchdog>(
        std::clamp<uint64_t>(Opts.DeadlineMillis / 8, 2, 250));
}

Daemon::~Daemon() {
  requestShutdown();
  // Drain every connection thread before the pool, watchdog, cache and
  // store go away: a connection blocked on a submitted job completes
  // (root cancel makes the job drain fast), then its thread exits.
  reapConnections(/*JoinAll=*/true);
  if (ListenFd >= 0)
    ::close(ListenFd);
  for (int &Fd : WakePipe)
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
  if (!Opts.SocketPath.empty())
    ::unlink(Opts.SocketPath.c_str());
}

void Daemon::requestShutdown() {
  // Only atomics and one pipe write past this line: callable from a
  // signal handler. The cancel drains every in-flight job through the
  // supervision tree; the pipe wakes serve(), which does the lock-taking
  // part of the drain (socket shutdown, thread joins).
  Draining.store(true, std::memory_order_release);
  ShutdownRequested.store(true, std::memory_order_release);
  Root.cancel(StopCause::Cancelled);
  if (WakePipe[1] >= 0) {
    char B = 1;
    (void)!::write(WakePipe[1], &B, 1);
  }
}

void Daemon::requestDrain() {
  // The graceful half of requestShutdown: the accept loop stops, the
  // connection sockets' read sides close (reapConnections), but the root
  // supervisor is NOT cancelled — every admitted job runs to its verdict,
  // is journaled, and its client gets the verdict plus a clean Bye. Same
  // async-signal-safety budget: atomics and one pipe write.
  Draining.store(true, std::memory_order_release);
  ShutdownRequested.store(true, std::memory_order_release);
  if (WakePipe[1] >= 0) {
    char B = 1;
    (void)!::write(WakePipe[1], &B, 1);
  }
}

void Daemon::reapConnections(bool JoinAll) {
  // Joining with ConnM held would deadlock against a connection thread
  // that is itself waiting for ConnM (a Shutdown-frame handler): move
  // the candidates out, join unlocked.
  std::vector<std::unique_ptr<Connection>> Reaped;
  {
    std::lock_guard<std::mutex> G(ConnM);
    if (ShutdownRequested.load(std::memory_order_acquire))
      for (std::unique_ptr<Connection> &C : Connections)
        if (!C->Finished.load(std::memory_order_acquire))
          // Read side only: a blocked readFrame unblocks (EOF), but the
          // write side stays open so the connection thread can still
          // deliver an in-flight verdict and the clean Bye frame the
          // drain contract promises.
          ::shutdown(C->Fd, SHUT_RD);
    auto Mid = std::stable_partition(
        Connections.begin(), Connections.end(),
        [JoinAll](const std::unique_ptr<Connection> &C) {
          return !JoinAll && !C->Finished.load(std::memory_order_acquire);
        });
    std::move(Mid, Connections.end(), std::back_inserter(Reaped));
    Connections.erase(Mid, Connections.end());
  }
  for (std::unique_ptr<Connection> &C : Reaped)
    if (C->Thread.joinable())
      C->Thread.join();
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> G(StatsM);
  return Counters;
}

//===----------------------------------------------------------------------===//
// Accept loop
//===----------------------------------------------------------------------===//

void Daemon::serve() {
  if (!valid())
    return;
  // Capped exponential backoff for transient accept() failures. A file-
  // descriptor famine (EMFILE/ENFILE: this process or the host is out of
  // fds, usually because clients outnumber what ulimit allows) is not
  // fatal and not busy-waitable: retrying instantly spins the CPU while
  // holding the very fds that caused the famine. Sleep 1ms, doubling to a
  // 100ms cap, and reset on the next successful accept.
  uint64_t BackoffMillis = 0;
  while (!ShutdownRequested.load(std::memory_order_acquire)) {
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {WakePipe[0], POLLIN, 0}};
    int N = ::poll(Fds, 2, -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (ShutdownRequested.load(std::memory_order_acquire))
      break;
    if (!(Fds[0].revents & POLLIN))
      continue;
    int Fd;
    // "daemon.accept": injected errors take the place of the accept()
    // call itself; the pending connection stays queued and is picked up
    // once the fault window passes — exactly how a transient famine
    // behaves.
    if (auto FA = failpoint::fire("daemon.accept")) {
      errno = FA.K == failpoint::Kind::Err ? FA.Errno : ECONNABORTED;
      Fd = -1;
    } else {
      Fd = ::accept(ListenFd, nullptr, nullptr);
    }
    if (Fd < 0) {
      int E = errno;
      if (E == EMFILE || E == ENFILE || E == ENOBUFS || E == ENOMEM) {
        {
          std::lock_guard<std::mutex> G(StatsM);
          ++Counters.AcceptRetries;
        }
        BackoffMillis = BackoffMillis ? std::min<uint64_t>(BackoffMillis * 2,
                                                           100)
                                      : 1;
        // Sleep on the wake pipe, not the clock: shutdown interrupts the
        // backoff the same way it interrupts the main poll.
        pollfd Wake = {WakePipe[0], POLLIN, 0};
        ::poll(&Wake, 1, static_cast<int>(BackoffMillis));
        continue;
      }
      if (E == EINTR || E == ECONNABORTED) {
        // The connection died between poll and accept (or a signal
        // landed): nothing to back off from, take the next one.
        std::lock_guard<std::mutex> G(StatsM);
        ++Counters.AcceptRetries;
      }
      continue;
    }
    BackoffMillis = 0;

    // Reap finished connections so a long-lived daemon's vector does not
    // grow with every client that ever connected.
    reapConnections(/*JoinAll=*/false);

    // Connection-count shed: over the cap, the newcomer gets an explicit
    // Busy (retry with backoff) instead of a thread and a silent queue.
    if (Opts.MaxConnections) {
      size_t Live;
      {
        std::lock_guard<std::mutex> G(ConnM);
        Live = Connections.size();
      }
      if (Live >= Opts.MaxConnections) {
        {
          std::lock_guard<std::mutex> G(StatsM);
          ++Counters.ConnectionsShed;
        }
        sendFrame(Fd, MsgType::Busy, "connection limit reached");
        ::close(Fd);
        continue;
      }
    }

    Connection *Conn;
    {
      std::lock_guard<std::mutex> G(ConnM);
      Connections.push_back(std::make_unique<Connection>(Fd, &Root));
      Conn = Connections.back().get();
    }
    {
      std::lock_guard<std::mutex> SG(StatsM);
      ++Counters.Connections;
    }
    Conn->Thread = std::thread([this, Conn] {
      handleConnection(*Conn);
      ::close(Conn->Fd);
      Conn->Finished.store(true, std::memory_order_release);
    });
  }
  // The serve()-exit drain: unblock every connection (shutdown flag is
  // set, so reap shuts their sockets down) and join their threads, so
  // the caller observes a fully quiesced daemon when serve() returns.
  reapConnections(/*JoinAll=*/true);
}

//===----------------------------------------------------------------------===//
// Connection handling
//===----------------------------------------------------------------------===//

static void setRecvTimeout(int Fd, uint64_t Millis) {
  if (Millis == 0)
    return;
  timeval Tv;
  Tv.tv_sec = static_cast<time_t>(Millis / 1000);
  Tv.tv_usec = static_cast<suseconds_t>((Millis % 1000) * 1000);
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
}

void Daemon::handleConnection(Connection &Conn) {
  int Fd = Conn.Fd;
  // One socket timeout serves both guards: the idle timeout (between
  // frames) when configured, else the per-frame receive timeout. The
  // frame reader classifies which one fired — a timeout before the first
  // header byte is an idle peer, one inside a frame is a torn peer.
  uint64_t Timeout = Opts.RecvTimeoutMillis;
  if (Opts.IdleTimeoutMillis &&
      (Timeout == 0 || Opts.IdleTimeoutMillis < Timeout))
    Timeout = Opts.IdleTimeoutMillis;
  setRecvTimeout(Fd, Timeout);
  for (;;) {
    Frame F;
    FrameStatus S = readFrame(Fd, F, Opts.MaxFrameBytes);
    if (S == FrameStatus::Eof) {
      // Clean goodbye on a frame boundary. During a drain the goodbye is
      // ours to say: the read side was shut down under the client, who
      // still deserves a clean close frame before the socket dies.
      if (draining())
        sendFrame(Fd, MsgType::Bye, "draining");
      return;
    }
    if (S == FrameStatus::IdleTimeout && Opts.IdleTimeoutMillis) {
      {
        std::lock_guard<std::mutex> G(StatsM);
        ++Counters.IdleDisconnects;
      }
      sendFrame(Fd, MsgType::Bye, "idle timeout");
      return;
    }
    if (S != FrameStatus::Ok) {
      // The stream is out of sync (or the peer died mid-frame): report
      // what we saw — best-effort; the peer may already be gone — and
      // disconnect. Never resynchronize by scanning for magic: that is
      // how protocol parsers grow exploitable heuristics.
      {
        std::lock_guard<std::mutex> G(StatsM);
        ++Counters.ProtocolErrors;
      }
      sendFrame(Fd, MsgType::Error,
                std::string("malformed frame: ") + frameStatusName(S));
      return;
    }

    switch (F.Type) {
    case MsgType::Ping:
      if (!sendFrame(Fd, MsgType::Pong, ""))
        return;
      break;
    case MsgType::Shutdown:
      requestShutdown();
      return;
    case MsgType::Submit:
      if (!handleSubmit(Conn, F.Payload))
        return;
      break;
    default: {
      // A well-framed message the server has no business receiving
      // (Status/Verdict/Error/Pong are server-to-client; unknown types
      // are future protocol). One Error reply, then disconnect — type
      // confusion is a protocol violation like any other.
      std::lock_guard<std::mutex> G(StatsM);
      ++Counters.ProtocolErrors;
      sendFrame(Fd, MsgType::Error,
                "unexpected message type " +
                    std::to_string(static_cast<uint32_t>(F.Type)));
      return;
    }
    }
  }
}

bool Daemon::handleSubmit(Connection &Conn, const std::string &Payload) {
  JobRequest Req;
  if (!decodeJobRequest(Payload, Req)) {
    {
      std::lock_guard<std::mutex> G(StatsM);
      ++Counters.ProtocolErrors;
    }
    sendFrame(Conn.Fd, MsgType::Error, "malformed job request");
    return false;
  }
  if (Conn.Client.stopRequested()) {
    // Budget-cancelled (or shutting down): refuse further work on this
    // connection, but frame the refusal properly.
    sendFrame(Conn.Fd, MsgType::Error,
              std::string("connection cancelled: ") +
                  stopCauseName(Conn.Client.cause()));
    return false;
  }
  if (draining()) {
    // Drain admits nothing new; jobs already in flight finish. The Bye
    // tells the client to reconnect (to the restarted daemon) or fall
    // back to local verification — not to retry here.
    sendFrame(Conn.Fd, MsgType::Bye, "draining");
    return false;
  }
  // Bounded admission: an atomic reserve-then-check, so concurrent
  // submits cannot all squeeze past the bound. A shed submit costs the
  // client one Busy round-trip, not a blind wait behind an unbounded
  // queue — and the connection survives to retry.
  uint64_t Reserved = ActiveJobs.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (Opts.MaxActiveJobs && Reserved > Opts.MaxActiveJobs) {
    ActiveJobs.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> G(StatsM);
      ++Counters.JobsShed;
    }
    return sendFrame(Conn.Fd, MsgType::Busy,
                     "server at capacity: " +
                         std::to_string(Opts.MaxActiveJobs) +
                         " jobs in flight");
  }

  // Budgets clamp: the client's request can only tighten the server's
  // per-job caps, never exceed them. Zero means "server default".
  BatchOptions JobOpts;
  JobOpts.CheckTheorem1 = Req.CheckTheorem1;
  JobOpts.Cache = &Cache;
  JobOpts.Store = Store.get();
  JobOpts.Retries = Opts.Retries;
  JobOpts.DeadlineMillis = Opts.DeadlineMillis;
  if (Req.DeadlineMillis &&
      (Opts.DeadlineMillis == 0 || Req.DeadlineMillis < Opts.DeadlineMillis))
    JobOpts.DeadlineMillis = Req.DeadlineMillis;
  JobOpts.MemoryBudgetBytes = Opts.MemoryBudgetBytes;
  if (Req.MemoryBudgetBytes &&
      (Opts.MemoryBudgetBytes == 0 ||
       Req.MemoryBudgetBytes < Opts.MemoryBudgetBytes))
    JobOpts.MemoryBudgetBytes = Req.MemoryBudgetBytes;
  JobOpts.Interrupt = &Conn.Client;
  JobOpts.Incremental = Inc.get();

  // A client-requested deadline needs the watchdog even when the server
  // itself runs without one.
  Watchdog *UseDog = Dog.get();
  std::unique_ptr<Watchdog> LocalDog;
  if (!UseDog && JobOpts.DeadlineMillis) {
    LocalDog = std::make_unique<Watchdog>(
        std::clamp<uint64_t>(JobOpts.DeadlineMillis / 8, 2, 250));
    UseDog = LocalDog.get();
  }

  // Run on the shared pool; block this connection thread until done.
  // The framing thread doing no verification work itself is what lets N
  // clients share Jobs workers fairly instead of oversubscribing. The
  // wait is a condition variable, not std::latch: libstdc++'s latch
  // spins with sched_yield and wakes every connection thread whose latch
  // hashes to the same wait bucket, which cost sub-millisecond warm hits
  // a third of their throughput with four clients on four vCPUs.
  ProgramResult Result;
  uint64_t Charged = 0;
  {
    std::mutex DoneM;
    std::condition_variable DoneCv;
    bool Done = false;
    Pool->submit([&] {
      Result = runSupervisedJob(Req.Job, JobOpts, UseDog, &Charged);
      std::lock_guard<std::mutex> G(DoneM);
      Done = true;
      DoneCv.notify_one();
    });
    std::unique_lock<std::mutex> L(DoneM);
    DoneCv.wait(L, [&] { return Done; });
  }
  ActiveJobs.fetch_sub(1, std::memory_order_acq_rel);

  // Every definitive verdict is journaled as it completes (idempotent,
  // flushed per line): a graceful drain therefore leaves a journal that
  // names exactly the in-flight work that finished, and a warm restart
  // (or a local --batch --journal run) resumes from it.
  if (Resume &&
      (Result.Status == JobStatus::Ok || Result.Status == JobStatus::Failed) &&
      Resume->record(jobKey(Req.Job, Req.CheckTheorem1), Result.Ok)) {
    std::lock_guard<std::mutex> G(StatsM);
    ++Counters.JobsJournaled;
  }

  // Fair-share accounting: bill the client for everything its job made
  // the server allocate (all attempts plus store I/O). Crossing the
  // budget cancels this connection's token only — in-flight and
  // subsequent jobs of *this* client drain; every other client is
  // untouched (the cancellation tree argument, DESIGN.md section 5f).
  Conn.BilledBytes += Charged;
  if (Opts.ClientBudgetBytes && Conn.BilledBytes > Opts.ClientBudgetBytes &&
      !Conn.Client.stopRequested()) {
    Conn.Client.cancel(StopCause::MemoryBudget);
    std::lock_guard<std::mutex> G(StatsM);
    ++Counters.BudgetCancels;
  }

  // Per-connection incremental accounting, rolled up into the daemon
  // stats alongside the job count (cache/store hits contribute zeros:
  // their verdicts were never re-derived).
  Conn.FuncsReused += Result.Metrics.FuncsReused;
  Conn.FuncsReVerified += Result.Metrics.FuncsReVerified;
  Conn.FuncsInvalidated += Result.Metrics.FuncsInvalidated;
  Conn.ProofNodes += Result.Metrics.ProofNodes;
  Conn.ProofCheckMicros += Result.Metrics.ProofCheckMicros;

  // Count the job before streaming its verdict: a client that has the
  // verdict in hand must already see it in stats(), whatever this
  // connection thread does next.
  {
    std::lock_guard<std::mutex> G(StatsM);
    ++Counters.JobsServed;
    Counters.FuncsReused += Result.Metrics.FuncsReused;
    Counters.FuncsReVerified += Result.Metrics.FuncsReVerified;
    Counters.FuncsInvalidated += Result.Metrics.FuncsInvalidated;
    Counters.ProofNodes += Result.Metrics.ProofNodes;
    Counters.ProofCheckMicros += Result.Metrics.ProofCheckMicros;
  }

  // Stream per-pass status frames, then the verdict. Send failures mean
  // the client is gone; stop writing.
  for (const auto &[Pass, Micros] : Result.Metrics.PassMicros)
    if (!sendFrame(Conn.Fd, MsgType::Status,
                   encodePassStatus(PassStatus{Pass, Micros})))
      return false;
  if (!sendFrame(Conn.Fd, MsgType::Verdict, encodeVerdict(Result)))
    return false;
  return true;
}
