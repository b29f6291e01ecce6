//===- daemon/Daemon.h - Verification-as-a-service daemon -------*- C++-*-===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The qccd daemon: a long-lived verification server over the persistent
/// store. Clients connect on a Unix-domain socket, submit jobs with the
/// wire protocol (daemon/Protocol.h), and receive per-pass status frames
/// plus a final verdict per job. The daemon keeps the in-memory result
/// cache and the content-addressed store warm across connections, so a
/// fleet of short-lived `qcc --connect` clients amortizes verification
/// work the way one long `--batch` run does.
///
/// Supervision tree (DESIGN.md section 5f): the daemon owns one *root*
/// Supervisor; each accepted connection gets a *client* Supervisor
/// parented to the root; each job runs under the per-job Supervisor
/// runSupervisedJob creates, parented to the client token. Cancelling the
/// root (shutdown) drains every job of every client; cancelling one
/// client token (its fair-share byte budget ran out, or its socket died)
/// drains only that client's jobs. Budgets clamp, never loosen: a
/// client-requested deadline or memory budget is honoured only up to the
/// server's own per-job caps.
///
/// Concurrency: one accept thread (poll on the listening socket plus a
/// self-pipe so shutdown interrupts a blocking accept), one detached-ish
/// thread per connection doing framing I/O, and all verification work
/// multiplexed onto the one FIFO queue of a shared ThreadPool via
/// submit() — N clients share the pool fairly instead of each spawning
/// its own workers.
///
//===----------------------------------------------------------------------===//

#ifndef QCC_DAEMON_DAEMON_H
#define QCC_DAEMON_DAEMON_H

#include "batch/Batch.h"
#include "daemon/Protocol.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace qcc {
namespace batch {
class Watchdog;
class ThreadPool;
} // namespace batch
namespace store {
class VerificationStore;
} // namespace store
namespace incremental {
class Engine;
} // namespace incremental

namespace daemon {

/// Daemon configuration. Budgets here are the server's *caps*: a client
/// may request less per job, never more.
struct DaemonOptions {
  /// Filesystem path the Unix-domain socket is bound at.
  std::string SocketPath;
  /// Verification worker threads; 0 = hardware concurrency.
  unsigned Jobs = 0;
  /// Per-job wall-clock deadline cap in milliseconds (0 = none).
  uint64_t DeadlineMillis = 0;
  /// Per-job soft memory budget cap in bytes (0 = unlimited).
  uint64_t MemoryBudgetBytes = 0;
  /// Per-connection fair-share byte budget (0 = unlimited): the sum of
  /// supervisor-charged bytes across a connection's jobs. A client that
  /// crosses it is cancelled — its remaining jobs drain as Cancelled —
  /// without touching any other connection.
  uint64_t ClientBudgetBytes = 0;
  /// Budget-stopped jobs retry this many times (BatchOptions::Retries).
  unsigned Retries = 1;
  /// Ceiling on one frame's payload; hostile length fields larger than
  /// this are rejected before allocation.
  uint64_t MaxFrameBytes = DefaultMaxFrameBytes;
  /// Receive timeout per frame read in milliseconds (0 = none): an idle
  /// or wedged client cannot pin its connection thread forever.
  uint64_t RecvTimeoutMillis = 0;
  /// Idle timeout in milliseconds (0 = none): a connection that sends no
  /// frame for this long gets a clean Bye and is closed. Distinct from
  /// RecvTimeoutMillis, which guards *mid-frame* stalls (a torn peer);
  /// idling between frames is legal behaviour that merely holds a
  /// connection slot.
  uint64_t IdleTimeoutMillis = 0;
  /// Bounded admission: at most this many Submit jobs in flight across
  /// all connections (0 = unlimited). A submit over the bound is shed
  /// with an explicit Busy reply — the connection survives and the
  /// client retries with backoff — instead of queueing unboundedly on
  /// the pool while its client waits blind.
  uint64_t MaxActiveJobs = 0;
  /// Bounded connection count (0 = unlimited): an accept over the bound
  /// is answered with Busy and closed immediately.
  uint64_t MaxConnections = 0;
  /// Append each definitive verdict served (batch-journal line format)
  /// to this file, flushed per line, unless the file already holds it.
  /// Under a graceful drain the journal therefore captures every
  /// in-flight job as it completes; a warm restart — or a local
  /// `qcc --batch --journal` run — resumes from it.
  std::string JournalPath;
  /// Persistent store directory (empty = no store: cache only).
  std::string StoreDir;
  /// Store LRU budget in bytes (0 = unlimited).
  uint64_t StoreBudgetBytes = 0;
  /// Re-check proofs on every store load before serving them.
  bool StoreVerify = false;
  /// Serve warm edits through the function-granular incremental engine
  /// (incremental::Engine): whole-file cache misses re-verify only the
  /// functions whose keys changed, sharing per-function work across every
  /// connection. With a StoreDir, function records and per-TU manifests
  /// persist under `<StoreDir>/funcs`.
  bool Incremental = true;
};

/// Aggregate counters, readable while the daemon runs (for tests and for
/// the qccd status line).
struct DaemonStats {
  uint64_t Connections = 0;     ///< Accepted connections, lifetime.
  uint64_t JobsServed = 0;      ///< Verdict frames sent.
  uint64_t ProtocolErrors = 0;  ///< Malformed frames answered with Error.
  uint64_t BudgetCancels = 0;   ///< Connections cancelled for fair-share.
  uint64_t JobsShed = 0;        ///< Submits refused with Busy (admission).
  uint64_t ConnectionsShed = 0; ///< Accepts refused with Busy (capacity).
  uint64_t AcceptRetries = 0;   ///< Transient accept() failures survived.
  uint64_t IdleDisconnects = 0; ///< Connections closed by idle timeout.
  uint64_t JobsJournaled = 0;   ///< Verdict lines appended to the journal.
  // Incremental-engine roll-ups across every connection (zero when the
  // engine is disabled); the same counters accumulate per connection.
  uint64_t FuncsReused = 0;     ///< Checked bounds served from key hits.
  uint64_t FuncsReVerified = 0; ///< Bounds derived and checked fresh.
  uint64_t FuncsInvalidated = 0;///< Manifest entries whose key changed.
  uint64_t ProofNodes = 0;      ///< Derivation nodes across served proofs.
  uint64_t ProofCheckMicros = 0;///< Time inside the proof checker.
};

/// The daemon. Construct, check valid(), then serve() until another
/// thread (a signal handler, a Shutdown frame, a test) calls
/// requestShutdown().
class Daemon {
public:
  explicit Daemon(const DaemonOptions &Opts);
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// False when the socket could not be bound (diagnostic in error()).
  bool valid() const { return ListenFd >= 0; }
  const std::string &error() const { return Error; }

  /// Accepts and serves connections until requestShutdown(), then drains:
  /// shuts every live connection socket down and joins its thread before
  /// returning. Runs on the caller's thread.
  void serve();

  /// Stops the accept loop and cancels the root supervisor, draining
  /// every in-flight job of every client. Only atomics, one pipe write:
  /// async-signal-safe, callable from a SIGINT/SIGTERM handler. The
  /// serve() thread performs the non-signal-safe part of the drain
  /// (socket shutdown + thread joins) when it wakes.
  void requestShutdown();

  /// Graceful drain (SIGTERM): stop accepting, let every in-flight job
  /// run to its verdict (journaled when a JournalPath is set), send each
  /// client a clean Bye frame, then return from serve(). Unlike
  /// requestShutdown, the root supervisor is *not* cancelled — committed
  /// work finishes. Async-signal-safe.
  void requestDrain();

  /// True once requestDrain (or requestShutdown) was called.
  bool draining() const {
    return Draining.load(std::memory_order_acquire);
  }

  DaemonStats stats() const;

  /// The root supervision token (tests parent probes to it).
  Supervisor &rootSupervisor() { return Root; }

private:
  struct Connection;
  void handleConnection(Connection &Conn);
  bool handleSubmit(Connection &Conn, const std::string &Payload);
  /// Shuts down every live connection socket and joins exited threads;
  /// with \p JoinAll, joins every thread (the serve()-exit drain).
  void reapConnections(bool JoinAll);

  DaemonOptions Opts;
  std::string Error;
  int ListenFd = -1;
  int WakePipe[2] = {-1, -1}; ///< Self-pipe: shutdown interrupts poll().
  Supervisor Root;
  std::atomic<bool> ShutdownRequested{false};
  std::atomic<bool> Draining{false};
  /// Jobs admitted and not yet completed, across all connections: the
  /// admission bound (MaxActiveJobs) checks against this.
  std::atomic<uint64_t> ActiveJobs{0};

  // Warm state shared by every connection.
  batch::ResultCache Cache;
  std::unique_ptr<store::VerificationStore> Store;
  std::unique_ptr<incremental::Engine> Inc; ///< Null when disabled.
  std::unique_ptr<batch::ThreadPool> Pool;
  std::unique_ptr<batch::Watchdog> Dog;
  /// The verdict journal (empty without a JournalPath). It loads the
  /// verdicts already in the file, so a verdict served twice — a warm
  /// hit, or the same job after a restart — is appended once.
  std::optional<batch::Journal> Resume;

  mutable std::mutex StatsM;
  DaemonStats Counters;

  mutable std::mutex ConnM;
  std::vector<std::unique_ptr<Connection>> Connections;
};

} // namespace daemon
} // namespace qcc

#endif // QCC_DAEMON_DAEMON_H
