//===- perfbench/src/Trace.cpp - Spans and statistics ---------------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Span recorder
//===----------------------------------------------------------------------===//

namespace {
/// The calling thread's open spans, innermost last (parent links). One
/// recorder is live per process, so the stack needs no recorder key.
thread_local std::vector<int64_t> OpenStack;
} // namespace

int64_t SpanRecorder::open(const char *Name, uint64_t Request) {
  Span S;
  S.Name = Name;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  S.Request = Request;
  int64_t Id;
  {
    std::lock_guard<std::mutex> G(M);
    Id = static_cast<int64_t>(All.size());
    All.push_back(std::move(S));
  }
  OpenStack.push_back(Id);
  // Read the clock last so the bookkeeping above is not charged to the
  // span.
  uint64_t Start = nowNanos();
  std::lock_guard<std::mutex> G(M);
  All[static_cast<size_t>(Id)].Start = Start;
  return Id;
}

void SpanRecorder::close(int64_t Id) {
  uint64_t End = nowNanos();
  if (!OpenStack.empty() && OpenStack.back() == Id)
    OpenStack.pop_back();
  std::lock_guard<std::mutex> G(M);
  All[static_cast<size_t>(Id)].End = End;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> G(M);
  return All;
}

bool SpanRecorder::writeJsonLines(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  std::vector<Span> S = spans();
  std::vector<uint64_t> Self = selfTimes(S);
  for (size_t I = 0; I != S.size(); ++I)
    Out << "{\"id\":" << I << ",\"name\":\"" << S[I].Name
        << "\",\"start_ns\":" << S[I].Start << ",\"end_ns\":" << S[I].End
        << ",\"parent\":" << S[I].Parent << ",\"request\":" << S[I].Request
        << ",\"self_ns\":" << Self[I] << "}\n";
  return static_cast<bool>(Out);
}

std::vector<uint64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent >= 0 &&
        static_cast<size_t>(Spans[I].Parent) < Spans.size())
      Children[static_cast<size_t>(Spans[I].Parent)].push_back(I);
  std::vector<uint64_t> Self(Spans.size(), 0);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &P = Spans[I];
    if (P.End <= P.Start)
      continue;
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<uint64_t, uint64_t>> Iv;
    for (size_t C : Children[I]) {
      uint64_t B = std::max(Spans[C].Start, P.Start);
      uint64_t E = std::min(Spans[C].End, P.End);
      if (E > B)
        Iv.push_back({B, E});
    }
    std::sort(Iv.begin(), Iv.end());
    uint64_t Covered = 0, CurB = 0, CurE = 0;
    bool Open = false;
    for (const auto &[B, E] : Iv) {
      if (Open && B <= CurE) {
        CurE = std::max(CurE, E);
        continue;
      }
      if (Open)
        Covered += CurE - CurB;
      CurB = B;
      CurE = E;
      Open = true;
    }
    if (Open)
      Covered += CurE - CurB;
    Self[I] = (P.End - P.Start) - Covered;
  }
  return Self;
}

std::vector<Span> spansSince(const SpanRecorder &Rec, size_t From) {
  std::vector<Span> All = Rec.spans();
  std::vector<Span> Out(All.begin() + static_cast<long>(From), All.end());
  for (Span &S : Out)
    S.Parent = S.Parent >= static_cast<int64_t>(From)
                   ? S.Parent - static_cast<int64_t>(From)
                   : -1;
  return Out;
}

std::map<std::string, double> selfMillisByName(const std::vector<Span> &Spans) {
  std::vector<uint64_t> Self = selfTimes(Spans);
  std::map<std::string, double> Out;
  for (size_t I = 0; I != Spans.size(); ++I)
    Out[Spans[I].Name] += static_cast<double>(Self[I]) / 1e6;
  return Out;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(Sorted.size()) - 1e-9));
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  return Sorted[Rank - 1];
}

double tailPercentile(size_t N, size_t MinBeyond) {
  static const double Ladder[] = {99.9, 99.5, 99, 98, 95, 90, 75, 50};
  for (double P : Ladder) {
    size_t Rank = static_cast<size_t>(
        std::ceil(P / 100.0 * static_cast<double>(N) - 1e-9));
    if (Rank >= 1 && Rank <= N && N - Rank >= MinBeyond)
      return P;
  }
  return 50;
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double processCpuMillis() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) / 1e3;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double setupCpuSeconds() {
  rusage Self{}, Children{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  auto S = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return S(Self.ru_utime) + S(Children.ru_utime);
}

double peakRssMiB() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

LatencySummary summarizeLatency(const std::vector<double> &Millis,
                                size_t Window) {
  LatencySummary L;
  L.Samples = Millis.size();
  std::vector<double> Sorted = Millis;
  std::sort(Sorted.begin(), Sorted.end());
  L.P50 = percentile(Sorted, 50);
  size_t Runs = std::max<size_t>(1, Millis.size() / Window);
  std::vector<double> Tails;
  for (size_t R = 0; R != Runs; ++R) {
    auto B = Millis.begin() + static_cast<long>(R * Window);
    auto E = R + 1 == Runs ? Millis.end() : B + static_cast<long>(Window);
    std::vector<double> Run(B, E);
    std::sort(Run.begin(), Run.end());
    double P = tailPercentile(Run.size());
    if (R == 0)
      L.TailPercentile = P;
    Tails.push_back(percentile(Run, P));
  }
  L.Tail = median(Tails);
  L.Windows = Runs;
  return L;
}

void RunReport::reject(const std::string &Why) {
  ++Failed;
  if (Rejections.size() < 8)
    Rejections.push_back(Why);
}

CpuTicks readCpuTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  // user nice system idle iowait irq softirq steal
  uint64_t V[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  In >> Cpu;
  for (uint64_t &X : V)
    In >> X;
  return {V[0] + V[1] + V[2] + V[5] + V[6] + V[7], V[7]};
}

WindowClock::WindowClock()
    : T0(Clock::now()), Cpu0(processCpuMillis()), Ticks0(readCpuTicks()) {}

Window WindowClock::close(uint64_t Jobs) const {
  Window W;
  W.Seconds = std::chrono::duration<double>(Clock::now() - T0).count();
  W.CpuMillis = processCpuMillis() - Cpu0;
  W.Jobs = Jobs;
  CpuTicks T = readCpuTicks();
  if (T.Busy > Ticks0.Busy)
    W.StealShare = static_cast<double>(T.Steal - Ticks0.Steal) /
                   static_cast<double>(T.Busy - Ticks0.Busy);
  return W;
}

void reportEndToEnd(RunReport &Out, const std::vector<Window> &Windows,
                    const std::vector<double> &SetupSeconds, double PeakRss,
                    size_t TailStretch) {
  std::vector<double> Shares;
  for (const Window &W : Windows)
    Shares.push_back(W.StealShare);
  double Cut = median(Shares);
  std::vector<double> Rates, CpuPerJob, Latency;
  Window Total;
  size_t Quiet = 0;
  for (const Window &W : Windows) {
    Total.Seconds += W.Seconds;
    Total.CpuMillis += W.CpuMillis;
    Total.Jobs += W.Jobs;
    if (W.StealShare > Cut)
      continue;
    ++Quiet;
    if (W.Seconds > 0)
      Rates.push_back(static_cast<double>(W.Jobs) / W.Seconds);
    if (W.Jobs)
      CpuPerJob.push_back(W.CpuMillis / static_cast<double>(W.Jobs));
    Latency.insert(Latency.end(), W.Latency.begin(), W.Latency.end());
  }
  LatencySummary L = summarizeLatency(Latency, TailStretch);
  Out.metric("jobs_per_s", median(Rates), "1/s");
  Out.metric("latency_p50_ms", L.P50, "ms");
  Out.metric("latency_tail_ms", L.Tail, "ms");
  Out.metric("cpu_ms_per_job", median(CpuPerJob), "ms");
  Out.metric("peak_rss_mb", PeakRss, "MiB");
  Out.metric("setup_s", median(SetupSeconds), "s");
  char Line[256];
  std::snprintf(Line, sizeof Line,
                "latency: p50 %.3f ms over %zu samples; tail p%g %.3f ms "
                "(median over %zu runs of at least %zu samples)",
                L.P50, L.Samples, L.TailPercentile, L.Tail, L.Windows,
                L.Samples / std::max<size_t>(1, L.Windows));
  Out.Notes.push_back(Line);
  std::snprintf(Line, sizeof Line,
                "whole phase: %llu verdicts in %.3f s (%.1f/s, %.3f CPU ms "
                "each); metrics from the %zu of %zu windows with at most "
                "%.1f%% steal",
                static_cast<unsigned long long>(Total.Jobs), Total.Seconds,
                Total.Seconds > 0 ? Total.Jobs / Total.Seconds : 0.0,
                Total.Jobs ? Total.CpuMillis / Total.Jobs : 0.0, Quiet,
                Windows.size(), Cut * 100);
  Out.Notes.push_back(Line);
  std::string Setups = "setup runs (s):";
  for (double S : SetupSeconds) {
    Setups += ' ';
    Setups += std::to_string(S);
  }
  Out.Notes.push_back(Setups);
}

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"frontend.parse_ms", "ms"},
      {"rtl.opt_ms", "ms"},
      {"lower.other_ms", "ms"},
      {"rtl.instrs_after_opt", "count"},
      {"validate.ms", "ms"},
      {"validate.clight_ms", "ms"},
      {"validate.cminor_ms", "ms"},
      {"validate.rtl_ms", "ms"},
      {"validate.mach_ms", "ms"},
      {"validate.asm_ms", "ms"},
      {"validate.events", "count"},
      {"validate.events_per_s", "1/s"},
      {"analysis.analyze_ms", "ms"},
      {"logic.proof_check_ms", "ms"},
      {"logic.proof_nodes", "count"},
      {"measure.theorem1_ms", "ms"},
      {"batch.speedup", "x"},
      {"batch.worker_busy_ratio", "ratio"},
      {"batch.job_time_inflation", "x"},
      {"batch.cache_hit_ratio", "ratio"},
      {"batch.cache_lookup_ms", "ms"},
      {"store.fetch_ms", "ms"},
      {"store.bytes_read", "bytes"},
      {"store.hits", "count"},
      {"store.put_ms", "ms"},
      {"store.bytes_written", "bytes"},
      {"incremental.verify_ms", "ms"},
      {"incremental.funcs_reused", "count"},
      {"incremental.funcs_reverified", "count"},
      {"incremental.reuse_ratio", "ratio"},
      {"incremental.replay_hit_ratio", "ratio"},
      {"daemon.server_ms", "ms"},
      {"daemon.overhead_ms", "ms"},
      {"daemon.ping_rtt_ms", "ms"},
      {"daemon.verdict_frame_bytes", "bytes"},
      {"daemon.encode_ms", "ms"},
      {"daemon.decode_ms", "ms"},
      {"daemon.jobs_shed", "count"},
      {"trace.overhead_pct", "%"},
  };
  return M;
}

} // namespace perfbench
