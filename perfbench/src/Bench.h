//===- perfbench/src/Bench.h - The repository benchmark ---------*- C++-*-===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the repository benchmark (perfbench/README.md):
/// the seeded input generator, the span recorder, the statistics helpers,
/// the verdict oracle and the three workloads. Everything here lives in
/// the benchmark's own files and reaches the system only through public
/// module entry points.
///
//===----------------------------------------------------------------------===//

#ifndef QCC_PERFBENCH_BENCH_H
#define QCC_PERFBENCH_BENCH_H

#include "batch/Batch.h"
#include "daemon/Client.h"
#include "daemon/Daemon.h"
#include "fuzz/Rng.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using qcc::batch::BatchJob;
using qcc::batch::ProgramResult;

//===----------------------------------------------------------------------===//
// Seeded generator: one seed determines every workload's bytes.
//===----------------------------------------------------------------------===//

/// Mixes a seed with a stream tag and an index into an independent
/// splitmix64 seed, so every generated item is addressable on its own.
uint64_t subSeed(uint64_t Seed, uint64_t Tag, uint64_t Index);

/// The cold-batch draw: rounds of distinct jobs, each round holding every
/// corpus unit once (with seeded -D overrides) plus ProgramGenerator
/// programs. Stateful only to keep every job of one seed distinct.
class ColdBatchDraw {
public:
  /// Jobs per round (corpus units plus generated programs).
  static constexpr unsigned RoundSize = 40;

  explicit ColdBatchDraw(uint64_t Seed);
  std::vector<BatchJob> nextRound();
  /// Whether \p Id names a Table 1 corpus unit at the paper's #defines,
  /// where the verified bound exceeds the measured stack by exactly 4.
  static bool isTable1(const std::string &Id);

private:
  uint64_t Seed;
  unsigned Round = 0;
  std::set<std::pair<uint64_t, uint64_t>> Seen; ///< Job keys drawn so far.
};

/// The three kinds of one-function edit the edit-stream clients send.
enum class EditKind : uint8_t {
  UnreachableBody, ///< Body-only edit of an unreachable helper.
  SpecChange,      ///< Changes a spec; every transitive caller re-verifies.
  ReachableBody    ///< Body edit on main's path; replay and Theorem 1 rerun.
};
const char *editKindName(EditKind K);

/// One client's library TU and its seeded stream of one-function edits.
/// Every edit uses a constant the stream has not used before, so each
/// request misses the whole-file caches and exercises the function keys.
class LibraryTu {
public:
  LibraryTu(uint64_t Seed, unsigned Client);
  /// The current source text.
  std::string source() const;
  /// Applies the next seeded edit and returns its kind.
  EditKind edit();
  const std::string &id() const { return Id; }

  static constexpr unsigned NumLeaves = 16;
  static constexpr unsigned NumCold = 8;
  static constexpr unsigned ChainDepth = 6;
  /// Trips through main's loop. Chosen so that replaying a TU costs no
  /// more than replaying the median cold-batch job: the part of the TU's
  /// translation validation that does not depend on the trips (about
  /// 0.8 ms) already exceeds the median job's (about 0.6 ms), and each
  /// trip adds about 0.02 ms, so main makes the fewest trips that still
  /// execute its whole path.
  static constexpr uint32_t MainTrips = 1;

private:
  uint32_t freshConstant();

  std::string Id;
  qcc::fuzz::Rng R;
  uint32_t NextConstant;
  std::vector<uint32_t> LeafC;  ///< Fixed per TU.
  std::vector<uint32_t> ColdC;  ///< Kind-1 targets.
  uint32_t HubC = 0;            ///< Kind-2 target's constant.
  std::vector<unsigned> HubSet; ///< Leaves the hub calls (sorted).
  std::set<std::vector<unsigned>> UsedHubSets;
  uint32_t WorkC = 0;           ///< Kind-3 target's constant.
};

/// The BatchJob the daemon clients submit for \p Tu's current source.
BatchJob libraryJob(const LibraryTu &Tu);

/// The warm-serve population: \p N distinct TUs (corpus variants, generated
/// programs and library TUs), a pure function of (\p Seed, \p N).
std::vector<BatchJob> warmPopulation(uint64_t Seed, unsigned N);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// One recorded interval. Parent is an index into the recorder's span
/// list (-1 for a root); spans of one request share Request.
struct Span {
  std::string Name;
  uint64_t Start = 0;
  uint64_t End = 0;
  int64_t Parent = -1;
  uint64_t Request = 0;
};

/// In-memory span recorder. Disabled recorders record nothing and read no
/// clocks, so the timed (untraced) runs pay one branch per boundary.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}
  bool enabled() const { return Enabled; }

  /// Opens a span under the calling thread's innermost open span.
  int64_t open(const char *Name, uint64_t Request);
  void close(int64_t Id);

  std::vector<Span> spans() const;
  /// Writes every span as one JSON object per line. False on I/O error.
  bool writeJsonLines(const std::string &Path) const;

private:
  bool Enabled;
  mutable std::mutex M;
  std::vector<Span> All;
};

/// RAII span on \p Rec (no-op when it is disabled).
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &Rec, const char *Name, uint64_t Request = 0)
      : Rec(Rec), Id(Rec.enabled() ? Rec.open(Name, Request) : -1) {}
  ~ScopedSpan() {
    if (Id >= 0)
      Rec.close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &Rec;
  int64_t Id;
};

/// Self time of every span, in nanoseconds: its duration minus the part of
/// its interval that the union of its children's intervals covers.
std::vector<uint64_t> selfTimes(const std::vector<Span> &Spans);

/// Sum of self times per span name, in milliseconds.
std::map<std::string, double> selfMillisByName(const std::vector<Span> &Spans);

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile \p P (0 < P <= 100) of \p Sorted (ascending).
double percentile(const std::vector<double> &Sorted, double P);

/// The highest percentile of a fixed ladder (99.9, 99.5, 99, 98, 95, 90,
/// 75, 50) that leaves at least \p MinBeyond samples strictly above its
/// nearest rank; 50 when none does.
double tailPercentile(size_t N, size_t MinBeyond = 10);

/// Median of \p Values (copied and sorted).
double median(std::vector<double> Values);

/// Process CPU time (user + system) in milliseconds, from getrusage.
double processCpuMillis();
/// User CPU seconds of this process plus its waited-for children: what
/// set-up is measured in. Its wall time follows the host's disk latency
/// (store fsyncs) and CPU steal, and its system time the state of the
/// file system (fsync, file creation), more than the work done.
double setupCpuSeconds();
/// Peak resident set of this process in MiB, from getrusage.
double peakRssMiB();

//===----------------------------------------------------------------------===//
// Verdict oracle
//===----------------------------------------------------------------------===//

/// The independent checks every verdict passes (perfbench/README.md):
///
///   * ok verdict: the verified bound of main covers the stack the
///     StackMeter measures on a large stack; a fresh run at exactly
///     bound - 4 bytes converges (Theorem 1); on a Table 1 corpus unit the
///     gap is exactly 4 bytes;
///   * any verdict with a reference: bounds, status and diagnostics equal
///     the uncached batch::verifyOne result for the same job.
class Oracle {
public:
  /// Checks \p R for \p Job; empty when accepted, else the reason.
  static std::string check(const BatchJob &Job, const ProgramResult &R,
                           bool Table1);
  /// Compares the verdict fields of \p R against \p Ref; empty when equal.
  static std::string sameVerdict(const ProgramResult &R,
                                 const ProgramResult &Ref);
  /// The verified concrete bound of main in \p R, or 0 when it has none.
  static uint64_t mainBound(const ProgramResult &R);
};

/// Runs Oracle::check over many (job, result) pairs on \p Threads threads
/// and returns one reason per rejection.
std::vector<std::string>
checkAll(const std::vector<std::pair<const BatchJob *, const ProgramResult *>>
             &Items,
         unsigned Threads);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Threads = 1; ///< nproc: workers, clients and connections.
  std::string WorkDir;  ///< Scratch space inside the checkout.
  std::string SelfExe;  ///< This binary (warm-serve populates through it).
  std::string TraceOut; ///< Where spans are written in a traced run.
};

/// One workload's outcome: the JSON fields plus human-readable notes.
struct RunReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0; ///< Failed operations plus oracle rejections.
  std::vector<std::string> Rejections; ///< First few oracle reasons.
  /// name -> (value, unit), in print order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  std::vector<std::string> Notes;

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void reject(const std::string &Why);
};

/// End-to-end latency summary of one measured phase.
struct LatencySummary {
  double P50 = 0;
  double Tail = 0;
  double TailPercentile = 0;
  size_t Samples = 0;
  size_t Windows = 0;
};

/// Median and tail of \p Millis (in the order the requests ran). The tail
/// is the tailPercentile() of each run of \p Window consecutive samples
/// (the remainder joins the last run; fewer than two runs' worth is one
/// run), and the median over runs: a stall of the machine that hits one
/// stretch of the phase moves one run's tail, not the reported one.
LatencySummary summarizeLatency(const std::vector<double> &Millis,
                                size_t Window = 1000);

/// Busy and stolen CPU ticks of the whole machine, from /proc/stat (zeros
/// where it is unreadable). A virtual machine's steal is time its virtual
/// CPUs were runnable while the host ran something else: the main source
/// of run-to-run noise on a shared host.
struct CpuTicks {
  uint64_t Busy = 0; ///< Including steal.
  uint64_t Steal = 0;
};
CpuTicks readCpuTicks();

/// One slice of a measured phase (a batch round, a serving round, or half
/// a second of a closed loop).
struct Window {
  double Seconds = 0;
  double CpuMillis = 0;
  uint64_t Jobs = 0;
  double StealShare = 0;       ///< Stolen share of the machine's busy time.
  std::vector<double> Latency; ///< Requests that completed in the window.
};

/// Opens a window on construction; close() measures it.
class WindowClock {
public:
  WindowClock();
  Window close(uint64_t Jobs) const;

private:
  Clock::time_point T0;
  double Cpu0;
  CpuTicks Ticks0;
};

/// Verdicts a workload whose memory grows with the verdicts it keeps
/// (cold-batch, edit-stream) has completed when it reads its peak
/// resident set: a fixed amount of work, so a faster service, which
/// serves more in the same seconds, does not read as a memory regression.
/// The phase runs on, unmeasured, until it gets there.
constexpr uint64_t PeakRssAfterJobs = 1000;

/// Records the end-to-end metrics shared by every workload from the
/// quieter half of \p Windows: those whose steal share is at most the
/// median. Throughput and CPU per job are medians over those windows and
/// the latencies are their requests', so a stretch of the run in which
/// the host took the machine's CPUs away does not set the result; the
/// whole-phase figures go into a note. \p PeakRss is the peak resident
/// set in MiB and \p TailStretch the summarizeLatency window.
void reportEndToEnd(RunReport &Out, const std::vector<Window> &Windows,
                    const std::vector<double> &SetupSeconds, double PeakRss,
                    size_t TailStretch = 1000);

/// Layer metrics every traced run prints (zero where a workload does not
/// exercise the layer), with their units, in print order.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Per-layer values keyed by metric name (sums while a traced replay
/// runs, per-job means when reported).
using LayerTotals = std::map<std::string, double>;

/// Phases tracePipeline runs after lowering.
struct PipelinePhases {
  bool Validate = true;
  bool Analyze = true;
  bool Theorem1 = true;
};

/// Replays \p Job through the public entry points of every module with a
/// span around each call, adding counts to \p Totals. Returns the verdict
/// it reconstructs (only meaningful when every phase ran).
ProgramResult tracePipeline(const BatchJob &Job, SpanRecorder &Rec,
                            uint64_t Request, LayerTotals &Totals,
                            const PipelinePhases &Phases = {});

/// Folds the self times of the spans tracePipeline and the direct layer
/// calls record into \p Totals under the layer metric names.
void addLayerSelfTimes(const std::vector<Span> &Spans, LayerTotals &Totals);

/// The spans \p Rec recorded from index \p From on, parents re-based (a
/// parent recorded earlier becomes -1).
std::vector<Span> spansSince(const SpanRecorder &Rec, size_t From);

/// An in-process qccd with the service defaults (store, incremental
/// engine, bounded admission as `qccd` sets it) serving on its own thread.
class DaemonHarness {
public:
  DaemonHarness(const std::string &SocketPath, const std::string &StoreDir,
                unsigned Jobs);
  /// Shuts the daemon down and joins its serve thread.
  ~DaemonHarness();
  DaemonHarness(const DaemonHarness &) = delete;
  DaemonHarness &operator=(const DaemonHarness &) = delete;

  bool ok() const;
  std::string error() const;
  const std::string &socket() const { return Sock; }
  qcc::daemon::DaemonStats stats() const;

private:
  std::string Sock;
  std::unique_ptr<qcc::daemon::Daemon> D;
  std::thread Server;
};

/// One closed-loop request as the client saw it.
struct ClientRequest {
  ProgramResult Result;
  bool HaveVerdict = false;
  std::string Error;
  double Millis = 0;         ///< Time to verdict on the client.
  double ServerMillis = 0;   ///< Sum of Status-frame micros (0 for hits,
                             ///< whose frames replay stored timings).
  uint64_t FrameBytes = 0;   ///< Verdict frame size on the wire (traced
                             ///< runs only: it costs an encode).
};

/// Submits \p J on \p C (retrying Busy sheds and transport errors under
/// the default policy) inside a "client.verify" span.
ClientRequest submitJob(qcc::daemon::DaemonClient &C, const std::string &Sock,
                        const BatchJob &J, SpanRecorder &Rec,
                        uint64_t Request);

/// Median ping round trip over \p N pings, in milliseconds.
double pingMillis(qcc::daemon::DaemonClient &C, unsigned N,
                  SpanRecorder &Rec);

/// Computes uncached batch::verifyOne references for \p Jobs on
/// \p Threads threads.
std::vector<ProgramResult> referenceVerdicts(const std::vector<BatchJob> &Jobs,
                                             unsigned Threads);

RunReport runColdBatch(const RunOptions &O);
RunReport runEditStream(const RunOptions &O);
RunReport runWarmServe(const RunOptions &O);

/// The warm-serve population step, run in a child process: verifies the
/// seeded population into the store at \p Dir. Returns the exit code.
int populateStore(const std::string &Dir, uint64_t Seed, unsigned N,
                  unsigned Threads);

} // namespace perfbench

#endif // QCC_PERFBENCH_BENCH_H
