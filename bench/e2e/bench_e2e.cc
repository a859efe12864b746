// bench_e2e: closed-loop tabulard capacity and single-shot restructuring,
// attributed layer by layer.
//
//   bench_e2e --workload <name> [--seed N] [--duration S] [--traced]
//
// Server workloads start an in-process `server::Server` on a localhost
// port and drive it through the public `server::Client` in a closed loop:
// a few client threads on as many connections, each sending its next
// request only after the previous reply, as every real caller
// (tabular_cli, scripts) does. restructure_1m times the single-shot path
// (ParseProgram + Interpreter::Run) with no server.
//
// Untraced, the run prints the end-to-end metrics. With --traced it prints
// the per-layer metrics instead, from three interleaved passes: untraced
// (the tracing-overhead baseline), the real path with obs::Tracing on (its
// existing spans, plus a bench.client.run span around every Client::Run),
// and a replay of the same requests that calls the public steps of the
// path one at a time, each inside a bench span. No span is added inside
// src/. The first window of each traced pass is written to
// BENCH_e2e.trace.json and the layer metrics to BENCH_e2e_layers.json.
//
// The last line of stdout is one JSON object with every metric; README.md
// defines each one.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cost.h"
#include "core/database.h"
#include "exec/parallel.h"
#include "lang/interpreter.h"
#include "lang/optimizer.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/program_cache.h"
#include "server/server.h"
#include "server/version.h"
#include "server/wire.h"
#include "spans.h"
#include "workloads.h"

namespace tabular::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsSince(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Runs `f` inside a bench span named `name` (a string literal).
template <typename F>
auto InSpan(const char* name, F&& f) {
  obs::TraceSpan span(name, "bench");
  return f();
}

/// Capacity of the obs trace ring (kRingSize in obs/trace.cc). A traced
/// window ends once this share of it is used, so no event is overwritten;
/// the remainder absorbs the requests still in flight.
constexpr size_t kRingEvents = size_t{1} << 16;
constexpr size_t kWindowEvents = kRingEvents * 3 / 4;

/// want_dump oracle samples per run. On the _1m workloads every dump is the
/// whole ~30 MB database, so they take a few.
size_t DumpSamples(Workload w) {
  return w == Workload::kReadHot8 || w == Workload::kCompileMiss ? 64 : 2;
}

struct Options {
  Workload workload = Workload::kReadHot8;
  uint64_t seed = 1;
  double seconds = 20;
  bool traced = false;

  double Warmup() const { return std::min(2.0, seconds / 5); }
  /// Set-up repeats at least 3 times and, while it is cheap, for half a
  /// second (at most 101 times), so the median is stable even for the
  /// ~1 ms set-ups of the 8-row workloads. A traced run reports no set-up
  /// time and sets up once.
  bool MoreSetups(int done, Clock::time_point start) const {
    if (traced) return done < 1;
    return done < 3 || (done < 101 && SecondsSince(start) < 0.5);
  }
};

// -- Reporting ----------------------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Marks the run incorrect; the last line then reports "correct": false.
  void Invalid(const std::string& problem) {
    correct_ = false;
    if (problems_.size() < 16) problems_.push_back(problem);
  }
  /// One oracle verdict; a failed one counts in error_rate.
  void Check(bool ok, const std::string& problem) {
    ++checks_;
    if (!ok) {
      ++failed_checks_;
      Invalid(problem);
    }
  }

  bool correct() const { return correct_; }
  uint64_t checks() const { return checks_; }
  uint64_t failed_checks() const { return failed_checks_; }

  /// Human-readable lines, then the one-line JSON result.
  void Print(const Options& opt, uint64_t attempted, uint64_t failed) const {
    for (const std::string& p : problems_) {
      std::printf("# INCORRECT: %s\n", p.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,\"correct\":%s,"
        "\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
        WorkloadName(opt.workload), static_cast<unsigned long long>(opt.seed),
        opt.traced ? "true" : "false", correct_ ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), MetricsJson().c_str());
    std::fflush(stdout);
  }

  std::string MetricsJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) out += ",";
      out += "\"" + metrics_[i].name + "\":{\"value\":" + value +
             ",\"unit\":\"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  bool correct_ = true;
  uint64_t checks_ = 0;
  uint64_t failed_checks_ = 0;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Minor page faults of the whole process so far. Per op, they show how
/// much memory each request takes fresh from the kernel.
double MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_minflt);
}

// -- Trace analysis -------------------------------------------------------------

/// Span name → per-layer timing metric, for spans whose whole duration is
/// the layer's time.
const std::map<std::string, std::string>& SpanMetrics() {
  static const std::map<std::string, std::string> kMap = {
      {"server.request", "server.request_us"},
      {"program_cache.compile", "program_cache.compile_us"},
      {"interpreter.run", "lang.interpreter.run_us"},
      {"parallel_for", "exec.parallel_for_us"},
      {"bench.copy", "core.snapshot_copy_us"},
      {"replay.decode_run", "wire.decode_run_us"},
      {"replay.current", "version.current_us"},
      {"replay.fingerprint", "program_cache.fingerprint_us"},
      {"replay.copy", "core.snapshot_copy_us"},
      {"replay.encode_run", "wire.encode_run_us"},
      {"replay.commit", "version.commit_us"},
      {"replay.release", "core.snapshot_release_us"},
      {"replay.parse", "lang.parse_us"},
      {"replay.coarsen", "analysis.coarsen_us"},
      {"replay.analyze", "analysis.analyze_us"},
      {"replay.optimize", "lang.optimize_us"},
      {"replay.from_database", "analysis.from_database_us"},
      {"replay.cost", "analysis.cost_us"},
  };
  return kMap;
}

/// Per-layer samples (µs) gathered from the windows of one traced pass.
/// A pass either replays (and reads only its replay.* spans) or runs the
/// real path (and reads everything else), so no layer is counted twice.
class TraceAnalysis {
 public:
  explicit TraceAnalysis(bool replay) : replay_(replay) {}

  void Add(const std::vector<Span>& spans) {
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> server_ns, client_ns;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if ((s.name.rfind("replay.", 0) == 0) != replay_) continue;
      auto mapped = SpanMetrics().find(s.name);
      if (mapped != SpanMetrics().end()) Time(mapped->second, s.dur_ns);
      if (s.category == "algebra") {
        Time("algebra." + s.name + "_us", s.dur_ns);
        if (s.name == "merge") merge_ns_ += s.dur_ns;
      } else if (s.name == "server.request") {
        server_ns[{s.Arg("session"), s.Arg("request")}] = s.dur_ns;
      } else if (s.name == "bench.client.run") {
        client_ns[{s.Arg("session"), s.Arg("request")}] = s.dur_ns;
      } else if (s.name == "server.run") {
        Time("server.run_self_us",
             s.dur_ns - ChildNs(spans, i,
                                {"program_cache.compile", "interpreter.run"}));
      } else if (s.name == "bench.op") {
        ops_us_.Add(static_cast<double>(s.dur_ns) / 1e3);
      } else if (s.name == "replay.request") {
        AddReplayRequest(spans, s);
      }
    }
    // Session and network: what the client waited beyond the server's own
    // handling of the same (session, request).
    for (const auto& [key, ns] : client_ns) {
      auto it = server_ns.find(key);
      if (it != server_ns.end()) {
        times_["net.wait_us"].Add(
            (static_cast<double>(ns) - static_cast<double>(it->second)) /
            1e3);
      }
    }
  }

  Samples& times(const std::string& name) { return times_[name]; }
  /// Real path: per-op time of restructure_1m's bench.op spans.
  const Samples& ops_us() const { return ops_us_; }
  /// Replay: per request, Σ of its steps' times.
  const Samples& steps_us() const { return steps_us_; }
  double merge_seconds() const { return static_cast<double>(merge_ns_) / 1e9; }

  /// The raw export of the pass's first window, for BENCH_e2e.trace.json.
  std::string first_trace;

  /// Every timing as `<name>.p50`, `<name>.p99` and `<name>.n`.
  void Emit(Report* report) const {
    for (const auto& [name, samples] : times_) {
      report->Add(name + ".p50", samples.Percentile(0.50), "us");
      report->Add(name + ".p99", samples.Percentile(0.99), "us");
      report->Add(name + ".n", static_cast<double>(samples.size()), "count");
    }
  }

 private:
  void Time(const std::string& name, uint64_t ns) {
    times_[name].Add(static_cast<double>(ns) / 1e3);
  }

  void AddReplayRequest(const std::vector<Span>& spans, const Span& root) {
    double sum = 0, fingerprint = 0, get = 0, compile = 0;
    for (size_t c : root.children) {
      const Span& step = spans[c];
      sum += static_cast<double>(step.dur_ns);
      if (step.name == "replay.fingerprint") {
        fingerprint = static_cast<double>(step.dur_ns);
      } else if (step.name == "replay.get") {
        get = static_cast<double>(step.dur_ns);
        compile = static_cast<double>(
            ChildNs(spans, c, {"program_cache.compile"}));
      }
    }
    // Get fingerprints the snapshot itself; on the requests where the
    // replay also times that call on its own, it stands in for Get's
    // share, so it is counted once in the sum and a hit's own cost is the
    // remainder.
    if (fingerprint > 0 && get > 0 && compile == 0) {
      times_["program_cache.get_hit_us"].Add((get - fingerprint) / 1e3);
    }
    steps_us_.Add((sum - fingerprint) / 1e3);
  }

  bool replay_;
  std::map<std::string, Samples> times_;
  Samples ops_us_;
  Samples steps_us_;
  uint64_t merge_ns_ = 0;
};

// -- Closed-loop driving -------------------------------------------------------

/// Latency samples a worker thread keeps per window: every one on all
/// workloads but read_hot_8, whose connections complete ~130k ops each per
/// 2 s sub-window and keep a uniform random 2^15 of them (see Samples), so
/// its peak RSS does not grow with the throughput being measured.
constexpr size_t kLatencyCap = size_t{1} << 15;

struct LoopStats {
  Samples op_ms{kLatencyCap};
  Samples commit_ms{kLatencyCap};
  RunningMean request_bytes;
  RunningMean response_bytes;
  RunningMean copy_cells;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t commits = 0;
  uint64_t steps = 0;
  double timed_s = 0;   // Σ op latency
  double active_s = 0;  // wall time the loop ran
  std::vector<std::string> errors;

  uint64_t completed() const { return attempted - failed; }

  void Error(const std::string& e) {
    ++failed;
    if (errors.size() < 4) errors.push_back(e);
  }

  void Merge(const LoopStats& o) {
    op_ms.Append(o.op_ms);
    commit_ms.Append(o.commit_ms);
    request_bytes.Append(o.request_bytes);
    response_bytes.Append(o.response_bytes);
    copy_cells.Append(o.copy_cells);
    attempted += o.attempted;
    failed += o.failed;
    commits += o.commits;
    steps += o.steps;
    timed_s += o.timed_s;
    active_s += o.active_s;
    for (const std::string& e : o.errors) {
      if (errors.size() < 4) errors.push_back(e);
    }
  }
};

using OpFn = std::function<void(size_t thread, LoopStats* stats)>;

/// Persistent closed-loop worker threads. Each window runs `op` on every
/// thread until the deadline — or, with a ring limit, until the trace ring
/// holds that many events — and the threads live on between windows, as
/// the server's session threads do, so their thread-local state (the core
/// chunk freelist, the allocator's arena) carries over from window to
/// window as the sessions' does.
class Workers {
 public:
  Workers(size_t threads, OpFn op) : op_(std::move(op)), stats_(threads) {
    for (size_t t = 0; t < threads; ++t) {
      threads_.emplace_back([this, t] { Loop(t); });
    }
  }
  ~Workers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  LoopStats Window(double seconds, size_t ring_limit = 0) {
    const Clock::time_point start = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (LoopStats& s : stats_) s = LoopStats();
      deadline_ = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
      ring_limit_ = ring_limit;
      running_ = threads_.size();
      ++generation_;
    }
    start_cv_.notify_all();
    LoopStats total;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return running_ == 0; });
      for (const LoopStats& s : stats_) total.Merge(s);
    }
    total.active_s = SecondsSince(start);
    return total;
  }

 private:
  void Loop(size_t t) {
    uint64_t seen = 0;
    for (;;) {
      Clock::time_point deadline;
      size_t ring_limit = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] { return quit_ || generation_ != seen; });
        if (quit_) return;
        seen = generation_;
        deadline = deadline_;
        ring_limit = ring_limit_;
      }
      // stats_[t] belongs to this thread until it reports done.
      while (Clock::now() < deadline &&
             (ring_limit == 0 || obs::Tracing::EventCount() < ring_limit)) {
        op_(t, &stats_[t]);
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }

  const OpFn op_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;         // guarded by mu_
  size_t running_ = 0;              // guarded by mu_
  bool quit_ = false;               // guarded by mu_
  Clock::time_point deadline_;      // guarded by mu_
  size_t ring_limit_ = 0;           // guarded by mu_
  std::vector<LoopStats> stats_;
  std::vector<std::thread> threads_;  // last: the threads use the above
};

/// Tracing state shared by the passes of one traced run.
struct Tracer {
  uint64_t dropped = 0;
  Report* report;

  /// Exports the ring into `analysis`, then clears it. Callers guarantee
  /// no span is being recorded (every worker has returned).
  void Harvest(TraceAnalysis* analysis) {
    dropped += obs::Tracing::DroppedCount();
    std::string json = obs::Tracing::ToJson();
    std::vector<Span> spans;
    if (!ParseTrace(json, &spans)) {
      report->Invalid("could not parse the exported trace");
    }
    analysis->Add(spans);
    if (analysis->first_trace.empty()) analysis->first_trace = std::move(json);
    obs::Tracing::Clear();
  }

  /// Runs `f` on this thread with tracing on, then harvests. `f` must
  /// record fewer spans than the ring holds.
  template <typename F>
  void Traced(TraceAnalysis* analysis, F f) {
    obs::Tracing::Clear();
    obs::Tracing::Enable();
    f();
    obs::Tracing::Disable();
    Harvest(analysis);
  }

  /// Windows with tracing on, each harvested before the ring can wrap,
  /// for `seconds` of wall time, harvests included.
  LoopStats Pass(Workers& workers, double seconds, TraceAnalysis* analysis) {
    LoopStats total;
    obs::Tracing::Clear();
    obs::Tracing::Enable();
    const Clock::time_point start = Clock::now();
    for (double left = seconds; left > 0; left = seconds - SecondsSince(start)) {
      total.Merge(workers.Window(left, kWindowEvents));
      Harvest(analysis);
    }
    obs::Tracing::Disable();
    return total;
  }
};

/// A traced run's three passes, interleaved: each of kTracedRounds rounds
/// runs the real path untraced, the real path traced, and the replay, for
/// a twelfth of the run each, so that the machine's load, which drifts
/// over minutes on a shared host, weighs on all three alike.
constexpr int kTracedRounds = 4;

struct TracedRounds {
  LoopStats untraced;
  LoopStats real;
  LoopStats replay;
  double real_faults = 0;    // minor page faults during the real passes
  double replay_faults = 0;  // ... and the replay passes
  uint64_t merge_rows = 0;   // algebra.merge.rows_out during the real passes

  TracedRounds(double seconds, Workers& real_workers, Workers& replay_workers,
               Tracer* tracer, TraceAnalysis* real_analysis,
               TraceAnalysis* replay_analysis) {
    const double slice = seconds / (3 * kTracedRounds);
    for (int round = 0; round < kTracedRounds; ++round) {
      untraced.Merge(real_workers.Window(slice));
      const uint64_t rows0 = obs::CounterValue("algebra.merge.rows_out");
      double faults0 = MinorFaults();
      real.Merge(tracer->Pass(real_workers, slice, real_analysis));
      real_faults += MinorFaults() - faults0;
      merge_rows += obs::CounterValue("algebra.merge.rows_out") - rows0;
      faults0 = MinorFaults();
      replay.Merge(tracer->Pass(replay_workers, slice, replay_analysis));
      replay_faults += MinorFaults() - faults0;
    }
  }
};

/// Ops attempted and failed across every pass of a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Count(const LoopStats& s, const char* pass, Report* report) {
    attempted += s.attempted;
    failed += s.failed;
    for (const std::string& e : s.errors) {
      report->Invalid(std::string(pass) + " op failed: " + e);
    }
  }
};

/// Sub-windows of an untraced measurement.
constexpr int kSubWindows = 10;

/// The measured window as back-to-back sub-windows. Throughput and the
/// latency percentiles are medians over the sub-windows, so a burst of
/// noise from outside the process that spoils one or two of them moves no
/// metric.
struct Measurement {
  std::vector<LoopStats> windows;
  LoopStats all;

  Measurement(Workers& workers, double seconds) {
    for (int i = 0; i < kSubWindows; ++i) {
      windows.push_back(workers.Window(seconds / kSubWindows));
      all.Merge(windows.back());
    }
  }

  /// Completed ops per second of wall time — or, with `busy_time`, per
  /// second spent inside the timed ops.
  double Throughput(bool busy_time = false) const {
    return Median([busy_time](const LoopStats& w) {
      return Ratio(w.completed(), busy_time ? w.timed_s : w.active_s);
    });
  }
  double P50() const {
    return Median([](const LoopStats& w) { return w.op_ms.Percentile(0.5); });
  }
  /// The median of the sub-windows' p99 when each holds the 1,000 samples
  /// that leave 10 beyond it; otherwise the p99 of the whole window.
  double P99() const {
    for (const LoopStats& w : windows) {
      if (w.op_ms.size() < 1000) return all.op_ms.Percentile(0.99);
    }
    return Median([](const LoopStats& w) { return w.op_ms.Percentile(0.99); });
  }

 private:
  template <typename F>
  double Median(F f) const {
    Samples per_window;
    for (const LoopStats& w : windows) per_window.Add(f(w));
    return per_window.Percentile(0.5);
  }
};

/// Sends `req` through `send` and records the outcome and its latency.
template <typename Send>
void ClosedLoopOp(const Request& req, LoopStats* stats, Send send) {
  ++stats->attempted;
  const Clock::time_point t0 = Clock::now();
  const Status st = send();
  if (!st.ok()) {
    stats->Error(st.ToString());
    return;
  }
  const double ms = MsSince(t0);
  stats->op_ms.Add(ms);
  stats->timed_s += ms / 1e3;
  if (req.commit) {
    stats->commit_ms.Add(ms);
    ++stats->commits;
  }
}

// -- Server workloads ---------------------------------------------------------------

/// One client connection with the ids the server tags its spans with.
struct Conn {
  server::Client client;
  uint64_t session = 0;
  uint64_t next_request = 1;  // mirrors the client's request-id counter

  Result<server::RunResponse> Run(const std::string& program, bool commit,
                                  bool want_dump = false) {
    obs::TraceSpan span("bench.client.run", "bench");
    span.Arg("session", session);
    span.Arg("request", next_request++);
    return client.Run(program, commit, want_dump);
  }

  void Op(const Request& req, LoopStats* stats) {
    ClosedLoopOp(req, stats, [&] {
      Result<server::RunResponse> resp = Run(req.program, req.commit);
      if (resp.ok()) stats->steps += resp->steps;
      return resp.status();
    });
  }
};

Result<Conn> Connect(uint16_t port) {
  TABULAR_ASSIGN_OR_RETURN(server::Client client,
                           server::Client::ConnectTcp("127.0.0.1", port));
  TABULAR_ASSIGN_OR_RETURN(server::PingResponse pong, client.Negotiate());
  if ((pong.features & server::kFeatureRequestIds) == 0) {
    return Status::Internal("server did not grant request ids");
  }
  // Connections open one at a time, so the session count right after this
  // one's handshake is its own session id.
  TABULAR_ASSIGN_OR_RETURN(std::string stats, client.Stats());
  const std::string key = "\"sessions_total\":";
  const size_t at = stats.find(key);
  if (at == std::string::npos) return Status::Internal("no sessions_total");
  Conn conn{std::move(client)};
  conn.session = std::strtoull(stats.c_str() + at + key.size(), nullptr, 10);
  return conn;
}

struct ServerFixture {
  std::unique_ptr<server::Server> server;
  std::vector<Conn> conns;
  uint64_t commits = 0;  // successful commits the bench made
};

/// Fixture database, Server::Start, connections, and a warm cache.
Result<std::unique_ptr<ServerFixture>> SetUpServer(Workload w) {
  TABULAR_ASSIGN_OR_RETURN(core::TabularDatabase db, ServerDatabase(w));
  auto fx = std::make_unique<ServerFixture>();
  TABULAR_ASSIGN_OR_RETURN(
      fx->server, server::Server::Start(std::move(db), server::ServerOptions()));
  for (size_t c = 0; c < Connections(w); ++c) {
    TABULAR_ASSIGN_OR_RETURN(Conn conn, Connect(fx->server->port()));
    fx->conns.push_back(std::move(conn));
  }
  for (const std::string& program : ReadMix()) {
    TABULAR_RETURN_NOT_OK(fx->conns[0].Run(program, false).status());
  }
  if (w == Workload::kWriteMix1m) {
    // The pool W exists before measuring, so the fingerprint (and the
    // cache entries keyed by it) stays fixed from here on.
    TABULAR_RETURN_NOT_OK(fx->conns[0].Run(kWriteProgram, true).status());
    ++fx->commits;
  }
  return fx;
}

/// Oracle: sampled requests sent with want_dump must return exactly the
/// bytes a single-shot Interpreter::Run produces on the same snapshot.
void CheckDumps(ServerFixture& fx, Workload w, uint64_t seed,
                Report* report) {
  const server::Snapshot snap = fx.server->versions().Current();
  RequestStream sample(w, seed, Connections(w));  // a stream no client sends
  std::map<std::string, uint64_t> reference;
  for (size_t i = 0; i < DumpSamples(w); ++i) {
    const Request req = sample.Next();
    auto it = reference.find(req.program);
    if (it == reference.end()) {
      Result<std::string> dump = SingleShotDump(*snap.db, req.program);
      if (!dump.ok()) {
        report->Check(false, "single-shot run failed: " +
                                 dump.status().ToString());
        continue;
      }
      it = reference.emplace(req.program, obs::Fnv1a64(*dump)).first;
    }
    Result<server::RunResponse> resp =
        fx.conns[0].Run(req.program, /*commit=*/false, /*want_dump=*/true);
    if (!resp.ok()) {
      report->Check(false,
                    "want_dump request failed: " + resp.status().ToString());
      continue;
    }
    report->Check(resp->executed_version == snap.version &&
                      obs::Fnv1a64(resp->dump) == it->second,
                  "server dump differs from single-shot for: " + req.program);
  }
}

/// Oracle: a version store holds exactly the commits the bench made.
void CheckVersion(uint64_t version, uint64_t commits, const char* store,
                  Report* report) {
  report->Check(version == 1 + commits,
                std::string(store) + " is at version " +
                    std::to_string(version) + ", expected 1 + " +
                    std::to_string(commits) + " commits");
}

uint64_t Cells(const core::TabularDatabase& db) {
  uint64_t cells = 0;
  for (const core::Table& t : db.tables()) {
    cells += static_cast<uint64_t>(t.height()) * t.width();
  }
  return cells;
}

/// On one request in this many the replay also times SchemaFingerprint on
/// its own and, on a miss, keeps the program for TimeSampledCompiles. Doing
/// it on every request would double that work and shift how the replay's
/// threads contend for the machine, away from the server's.
constexpr uint64_t kStepSampleEvery = 8;

/// Server::HandleRun's public steps in order, on a version store and cache
/// the bench owns (with the server's default options), each inside a
/// bench span.
class Replay {
 public:
  explicit Replay(core::TabularDatabase db)
      : versions_(std::move(db)), cache_(server::ServerOptions().cache) {
    interp_ = server::ServerOptions().interp;
    interp_.analyze_first = false;  // as HandleRun runs compiled programs
    interp_.optimize = false;
  }

  const server::VersionedDatabase& versions() const { return versions_; }

  /// One request, as HandleRun serves it. With `time_fingerprint`,
  /// SchemaFingerprint is also timed on its own before Get, which computes
  /// it again internally.
  Status Handle(const std::string& payload, bool time_fingerprint,
                LoopStats* stats, bool* miss) {
    obs::TraceSpan root("replay.request", "bench");
    server::RunRequest req;
    TABULAR_RETURN_NOT_OK(InSpan("replay.decode_run", [&] {
      return server::DecodeRunRequest(payload, &req);
    }));
    server::Snapshot snap =
        InSpan("replay.current", [&] { return versions_.Current(); });
    if (time_fingerprint) {
      InSpan("replay.fingerprint",
             [&] { return server::SchemaFingerprint(*snap.db); });
    }
    bool hit = false;
    std::shared_ptr<const server::CompiledProgram> compiled =
        InSpan("replay.get",
               [&] { return cache_.Get(req.program, *snap.db, &hit); });
    *miss = !hit;
    TABULAR_RETURN_NOT_OK(compiled->front_end);
    std::optional<core::TabularDatabase> work;
    InSpan("replay.copy", [&] { work.emplace(*snap.db); });
    stats->copy_cells.Add(static_cast<double>(Cells(*work)));
    lang::Interpreter interpreter(interp_);
    TABULAR_RETURN_NOT_OK(InSpan("replay.run", [&] {
      return interpreter.Run(compiled->executable(), &*work);
    }));
    stats->steps += interpreter.steps_executed();
    server::RunResponse resp;
    resp.executed_version = snap.version;
    resp.cache_hit = hit;
    resp.steps = interpreter.steps_executed();
    resp.rewrites_applied =
        static_cast<uint32_t>(compiled->optimize_stats.applied);
    resp.rewrites_rejected =
        static_cast<uint32_t>(compiled->optimize_stats.rejected);
    const std::string out =
        InSpan("replay.encode_run", [&] { return EncodeRunResponse(resp); });
    stats->response_bytes.Add(static_cast<double>(out.size()));
    Status committed = Status::OK();
    if (req.commit) {
      committed = InSpan("replay.commit", [&] {
        return versions_.Commit(snap.version, std::move(*work)).status();
      });
    }
    // The server frees its private copy — and, after a commit, maybe the
    // last reference to the superseded version — before the request ends.
    InSpan("replay.release", [&] {
      work.reset();
      snap = server::Snapshot();
    });
    return committed;
  }

  /// ProgramCache::Compile's steps, one call at a time, for the sampled
  /// misses since the last call. They run here rather than inline on the
  /// replay's threads, where the duplicate compile work would slow the
  /// replayed requests beside them.
  void TimeSampledCompiles() {
    std::vector<std::string> programs;
    {
      std::lock_guard<std::mutex> lock(mu_);
      programs.swap(sampled_misses_);
    }
    for (const std::string& program : programs) TimeCompile(program);
  }

  void Op(const Request& req, uint64_t request_id, LoopStats* stats) {
    server::RunRequest run;
    run.program = req.program;
    run.commit = req.commit;
    run.request_id = request_id;
    const std::string payload = server::EncodeRunRequest(run);
    ClosedLoopOp(req, stats, [&] {
      stats->request_bytes.Add(static_cast<double>(payload.size()));
      bool miss = false;
      const bool sampled = request_id % kStepSampleEvery == 0;
      Status st = Handle(payload, sampled, stats, &miss);
      if (miss && sampled) {
        std::lock_guard<std::mutex> lock(mu_);
        if (sampled_misses_.size() < kMaxSampledMisses) {
          sampled_misses_.push_back(req.program);
        }
      }
      return st;
    });
  }

 private:
  /// Bounds the compile-step spans one TimeSampledCompiles records (6 per
  /// program) well below the trace ring's capacity.
  static constexpr size_t kMaxSampledMisses = 1000;

  void TimeCompile(const std::string& program) {
    const server::Snapshot snap = versions_.Current();
    Result<lang::Program> parsed =
        InSpan("replay.parse", [&] { return lang::ParseProgram(program); });
    if (!parsed.ok()) return;
    const analysis::AbstractDatabase coarse = InSpan(
        "replay.coarsen", [&] { return server::CoarsenedSchema(*snap.db); });
    InSpan("replay.analyze",
           [&] { return analysis::AnalyzeProgram(*parsed, coarse); });
    const lang::Program optimized = InSpan("replay.optimize", [&] {
      lang::OptimizerOptions opt;
      opt.validate_rewrites = server::ServerOptions().cache.validate_rewrites;
      return lang::OptimizeProgram(*parsed, coarse, opt);
    });
    const analysis::AbstractDatabase exact =
        InSpan("replay.from_database", [&] {
          return analysis::AbstractDatabase::FromDatabase(*snap.db);
        });
    InSpan("replay.cost",
           [&] { return analysis::EstimateCost(optimized, exact); });
  }

  server::VersionedDatabase versions_;
  server::ProgramCache cache_;
  lang::InterpreterOptions interp_;
  std::mutex mu_;
  std::vector<std::string> sampled_misses_;  // guarded by mu_
};

void WriteFile(const std::string& path, const std::string& text,
               Report* report) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) report->Invalid("could not write " + path);
}

/// The passes' first windows as one Chrome trace document.
std::string JoinTraces(const std::vector<std::string>& docs) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const std::string& doc : docs) {
    const size_t open = doc.find('[');
    const size_t close = doc.rfind(']');
    if (open == std::string::npos || close == std::string::npos ||
        close <= open + 1) {
      continue;
    }
    if (!first) out += ",";
    first = false;
    out.append(doc, open + 1, close - open - 1);
  }
  return out + "]}\n";
}

/// Shared tail of a traced run: the layer metrics every workload reports,
/// the two output files, and the printed result. `whole_p50_us` is the
/// real path's p50 the replay's steps are held against; `busy_time` as in
/// Measurement::Throughput.
int FinishTraced(const Options& opt, const TracedRounds& rounds,
                 const TraceAnalysis& real, const TraceAnalysis& replay,
                 double whole_p50_us, uint64_t parallel_tasks, bool busy_time,
                 const Tracer& tracer, const Tally& tally, Report* report) {
  auto ops_per_s = [busy_time](const LoopStats& s) {
    return Ratio(s.completed(), busy_time ? s.timed_s : s.active_s);
  };
  RunningMean cells = rounds.real.copy_cells;
  cells.Append(rounds.replay.copy_cells);
  report->Add("lang.interpreter.steps",
              Ratio(rounds.real.steps, rounds.real.completed()), "count");
  report->Add("core.snapshot_copy_cells", cells.Mean(), "count");
  report->Add("wire.request_bytes", rounds.replay.request_bytes.Mean(),
              "bytes");
  report->Add("wire.response_bytes", rounds.replay.response_bytes.Mean(),
              "bytes");
  report->Add("exec.parallel.tasks",
              Ratio(parallel_tasks, rounds.untraced.completed() +
                                        rounds.real.completed() +
                                        rounds.replay.completed()),
              "count");
  report->Add("algebra.merge.rows_out_per_s",
              Ratio(rounds.merge_rows, real.merge_seconds()), "1/s");
  report->Add("bench.minor_faults_per_op",
              Ratio(rounds.real_faults, rounds.real.attempted), "count");
  report->Add("bench.replay_minor_faults_per_op",
              Ratio(rounds.replay_faults, rounds.replay.attempted), "count");
  report->Add("obs.tracing_overhead_pct",
              100 * (1 - Ratio(ops_per_s(rounds.real),
                               ops_per_s(rounds.untraced))),
              "%");
  real.Emit(report);
  replay.Emit(report);
  const double steps_p50 = replay.steps_us().Percentile(0.5);
  report->Add("bench.replay_steps_us.p50", steps_p50, "us");
  report->Add("bench.unaccounted_pct",
              100 * Ratio(whole_p50_us - steps_p50, whole_p50_us), "%");
  report->Add("obs.trace_dropped", static_cast<double>(tracer.dropped),
              "count");
  WriteFile("BENCH_e2e_layers.json",
            std::string("{\"workload\":\"") + WorkloadName(opt.workload) +
                "\",\"metrics\":" + report->MetricsJson() + "}\n",
            report);
  WriteFile("BENCH_e2e.trace.json",
            JoinTraces({real.first_trace, replay.first_trace}), report);
  report->Print(opt, tally.attempted + report->checks(),
                tally.failed + report->failed_checks());
  return report->correct() ? 0 : 1;
}

int RunServerWorkload(const Options& opt) {
  const Workload w = opt.workload;
  Report report;
  Tally tally;

  Samples setup_s;
  std::unique_ptr<ServerFixture> fx;
  const Clock::time_point setup_start = Clock::now();
  for (int rep = 0; opt.MoreSetups(rep, setup_start); ++rep) {
    fx.reset();
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<ServerFixture>> made = SetUpServer(w);
    if (!made.ok()) {
      std::fprintf(stderr, "bench_e2e: set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    fx = std::move(*made);
    setup_s.Add(SecondsSince(t0));
  }

  std::vector<RequestStream> streams;
  const size_t conns = Connections(w);
  for (size_t c = 0; c < conns; ++c) streams.emplace_back(w, opt.seed, c);
  // Destroyed before `fx`: its threads use the connections.
  std::optional<Workers> clients;
  clients.emplace(conns, [&](size_t t, LoopStats* s) {
    fx->conns[t].Op(streams[t].Next(), s);
  });

  const LoopStats warm = clients->Window(opt.Warmup());
  tally.Count(warm, "warm-up", &report);
  fx->commits += warm.commits;

  if (!opt.traced) {
    const server::ServerStats stats0 = fx->server->Stats();
    obs::Histogram& hist = obs::GetHistogram("server.request.latency");
    const obs::Histogram::Snapshot hist0 = hist.Snap();
    const double faults0 = MinorFaults();
    const Measurement measured(*clients, opt.seconds);
    const LoopStats& m = measured.all;
    const double faults_per_op = Ratio(MinorFaults() - faults0, m.attempted);
    // Before the oracles, whose ~30 MB dumps on the _1m workloads would
    // otherwise set the high-water mark.
    const double peak_rss_mb = PeakRssMb();
    const obs::Histogram::Snapshot hist_delta =
        obs::Histogram::Delta(hist.Snap(), hist0);
    const server::ServerStats stats1 = fx->server->Stats();
    tally.Count(m, "measured", &report);
    fx->commits += m.commits;
    CheckDumps(*fx, w, opt.seed, &report);
    if (w == Workload::kWriteMix1m) {
      CheckVersion(fx->server->versions().Current().version, fx->commits,
                   "server", &report);
    }
    clients.reset();
    fx.reset();
    const uint64_t attempted = m.attempted + report.checks();
    const uint64_t failed = m.failed + report.failed_checks();
    report.Add("setup_s", setup_s.Percentile(0.5), "s");
    report.Add("throughput_rps", measured.Throughput(), "ops/s");
    report.Add("p50_ms", measured.P50(), "ms");
    report.Add("p99_ms", measured.P99(), "ms");
    report.Add("latency_samples", static_cast<double>(m.op_ms.size()),
               "count");
    report.Add("server_hist_p50_ms",
               obs::HistogramPercentile(hist_delta, 0.50) / 1e3, "ms");
    report.Add("server_hist_p99_ms",
               obs::HistogramPercentile(hist_delta, 0.99) / 1e3, "ms");
    if (w == Workload::kWriteMix1m) {
      report.Add("commit_p50_ms", m.commit_ms.Percentile(0.50), "ms");
      report.Add("commit_p99_ms", m.commit_ms.Percentile(0.99), "ms");
      report.Add("commit_samples", static_cast<double>(m.commit_ms.size()),
                 "count");
    }
    const double hits = stats1.cache_hits - stats0.cache_hits;
    const double misses = stats1.cache_misses - stats0.cache_misses;
    report.Add("cache_hit_rate", Ratio(hits, hits + misses), "fraction");
    report.Add("error_rate", Ratio(failed, attempted), "fraction");
    report.Add("minor_faults_per_op", faults_per_op, "count");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Print(opt, attempted, failed);
    return report.correct() ? 0 : 1;
  }

  // Traced. Rewrites per compile come first, from the server's set-up and
  // warm-up compiles: the replay's compiles bump the same counters.
  const double compiles = fx->server->Stats().cache_misses;
  for (const char* k :
       {"rewrites_applied", "rewrites_rejected", "rewrites_cost_rejected"}) {
    report.Add(std::string("lang.optimizer.") + k,
               Ratio(static_cast<double>(
                         obs::CounterValue(std::string("optimizer.") + k)),
                     compiles),
               "count");
  }
  // The replay starts from the server's current snapshot and runs beside
  // it; the server's session threads idle while the replay runs.
  Replay replay(*fx->server->versions().Current().db);
  Tracer tracer{0, &report};
  TraceAnalysis real(/*replay=*/false);
  TraceAnalysis replayed(/*replay=*/true);
  // The replay's cache starts cold; warming it as set-up warms the server's
  // gives the compile-path layers samples on every workload.
  LoopStats warm2;
  tracer.Traced(&replayed, [&] {
    for (const std::string& program : ReadMix()) {
      replay.Op(Request{program, false}, 0, &warm2);
    }
    replay.TimeSampledCompiles();
  });
  tally.Count(warm2, "replay cache warm-up", &report);
  std::vector<RequestStream> replay_streams;
  std::vector<uint64_t> ids(conns, 0);
  for (size_t c = 0; c < conns; ++c) {
    replay_streams.emplace_back(w, opt.seed, c);
  }
  Workers replayers(conns, [&](size_t t, LoopStats* s) {
    replay.Op(replay_streams[t].Next(), ++ids[t], s);
  });
  // Untraced, like the server's warm-up: the replay threads' allocator
  // state settles before anything is timed.
  const LoopStats warm3 = replayers.Window(std::min(1.0, opt.Warmup()));
  tally.Count(warm3, "replay warm-up", &report);

  const server::ServerStats before = fx->server->Stats();
  const uint64_t tasks0 = obs::CounterValue("exec.parallel.tasks");
  const TracedRounds rounds(opt.seconds, *clients, replayers, &tracer, &real,
                            &replayed);
  const server::ServerStats after = fx->server->Stats();
  tracer.Traced(&replayed, [&] { replay.TimeSampledCompiles(); });
  tally.Count(rounds.untraced, "untraced", &report);
  tally.Count(rounds.real, "traced", &report);
  tally.Count(rounds.replay, "replay", &report);
  fx->commits += rounds.untraced.commits + rounds.real.commits;

  CheckDumps(*fx, w, opt.seed, &report);
  if (w == Workload::kWriteMix1m) {
    CheckVersion(fx->server->versions().Current().version, fx->commits,
                 "server", &report);
    CheckVersion(replay.versions().Current().version,
                 warm3.commits + rounds.replay.commits, "replay store",
                 &report);
  }

  const double hits = after.cache_hits - before.cache_hits;
  const double misses = after.cache_misses - before.cache_misses;
  report.Add("program_cache.hit_rate", Ratio(hits, hits + misses),
             "fraction");
  report.Add("program_cache.evictions",
             static_cast<double>(after.cache_evictions -
                                 before.cache_evictions),
             "count");
  return FinishTraced(opt, rounds, real, replayed,
                      real.times("server.request_us").Percentile(0.5),
                      obs::CounterValue("exec.parallel.tasks") - tasks0,
                      /*busy_time=*/false, tracer, tally, &report);
}

// -- restructure_1m -----------------------------------------------------------------

struct Restructure {
  core::TabularDatabase input;
  uint64_t expected_hash = 0;

  /// Row counts as listed, and an output hash equal on every op.
  std::optional<std::string> CheckOutputs(const core::TabularDatabase& db) {
    uint64_t h = 0;
    for (const ExpectedOutput& out : RestructureOutputs()) {
      const std::vector<size_t> at =
          db.IndicesNamed(core::Symbol::Name(out.table));
      if (at.size() != 1 || db.tables()[at[0]].height() != out.rows) {
        return std::string("output ") + out.table + " does not have " +
               std::to_string(out.rows) + " rows";
      }
      h = TableHash(db.tables()[at[0]], h);
    }
    if (expected_hash == 0) expected_hash = h;
    if (h != expected_hash) return std::string("output hash changed");
    return std::nullopt;
  }

  /// An untimed fresh copy of the input, then ParseProgram + Run, timed.
  void Op(LoopStats* stats) {
    ++stats->attempted;
    std::optional<core::TabularDatabase> work;
    InSpan("bench.copy", [&] { work.emplace(input); });
    stats->copy_cells.Add(static_cast<double>(Cells(*work)));
    lang::Interpreter interpreter;
    const Clock::time_point t0 = Clock::now();
    const Status st = InSpan("bench.op", [&] {
      Result<lang::Program> parsed = lang::ParseProgram(kRestructureProgram);
      return parsed.ok() ? interpreter.Run(*parsed, &*work) : parsed.status();
    });
    const double ms = MsSince(t0);
    std::optional<std::string> bad =
        st.ok() ? CheckOutputs(*work) : st.ToString();
    if (bad.has_value()) {
      stats->Error(*bad);
      return;
    }
    stats->op_ms.Add(ms);
    stats->timed_s += ms / 1e3;
    stats->steps += interpreter.steps_executed();
  }

  /// The same op split into the single-shot path's steps, one call each.
  void StepwiseOp(LoopStats* stats) {
    ++stats->attempted;
    core::TabularDatabase work = input;
    obs::TraceSpan root("replay.request", "bench");
    Result<lang::Program> parsed = InSpan(
        "replay.parse", [] { return lang::ParseProgram(kRestructureProgram); });
    if (!parsed.ok()) {
      stats->Error(parsed.status().ToString());
      return;
    }
    const analysis::AbstractDatabase image =
        InSpan("replay.from_database", [&] {
          return analysis::AbstractDatabase::FromDatabase(work);
        });
    InSpan("replay.analyze",
           [&] { return analysis::AnalyzeProgram(*parsed, image); });
    lang::InterpreterOptions options;
    options.analyze_first = false;
    lang::Interpreter interpreter(options);
    const Status st =
        InSpan("replay.run", [&] { return interpreter.Run(*parsed, &work); });
    if (!st.ok()) stats->Error(st.ToString());
  }
};

int RunRestructure(const Options& opt) {
  Report report;
  Tally tally;
  // The kernels run on the calling thread. With exec's default of one
  // thread per CPU, chunks the pool workers allocate are freed by the
  // calling thread, the workers' chunk freelists never refill, and how
  // many pages each op takes fresh from the kernel varies from process to
  // process: p50 ranged over 9-16 ms across runs, against 9.4-9.9 ms on
  // one thread.
  const exec::ScopedThreads one_thread(1);
  Samples setup_s;
  Restructure r;
  const Clock::time_point setup_start = Clock::now();
  for (int rep = 0; opt.MoreSetups(rep, setup_start); ++rep) {
    r.input = core::TabularDatabase();
    const Clock::time_point t0 = Clock::now();
    r.input = PivotedDatabase();
    setup_s.Add(SecondsSince(t0));
  }
  Workers worker(1, [&](size_t, LoopStats* s) { r.Op(s); });
  tally.Count(worker.Window(opt.Warmup()), "warm-up", &report);

  if (!opt.traced) {
    const double faults0 = MinorFaults();
    const Measurement measured(worker, opt.seconds);
    const LoopStats& m = measured.all;
    const double faults_per_op = Ratio(MinorFaults() - faults0, m.attempted);
    const double peak_rss_mb = PeakRssMb();
    tally.Count(m, "measured", &report);
    report.Add("setup_s", setup_s.Percentile(0.5), "s");
    // Single-shot capacity: ops per second of measured (parse + run) time;
    // the untimed input copies and output checks are left out.
    report.Add("throughput_rps", measured.Throughput(/*busy_time=*/true),
               "ops/s");
    report.Add("p50_ms", measured.P50(), "ms");
    report.Add("p99_ms", measured.P99(), "ms");
    report.Add("latency_samples", static_cast<double>(m.op_ms.size()),
               "count");
    report.Add("error_rate", Ratio(m.failed, m.attempted), "fraction");
    report.Add("minor_faults_per_op", faults_per_op, "count");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Print(opt, m.attempted, m.failed);
    return report.correct() ? 0 : 1;
  }

  Workers stepper(1, [&](size_t, LoopStats* s) { r.StepwiseOp(s); });
  tally.Count(stepper.Window(opt.Warmup()), "stepwise warm-up", &report);
  Tracer tracer{0, &report};
  TraceAnalysis real(/*replay=*/false);
  TraceAnalysis stepwise(/*replay=*/true);
  const uint64_t tasks0 = obs::CounterValue("exec.parallel.tasks");
  const TracedRounds rounds(opt.seconds, worker, stepper, &tracer, &real,
                            &stepwise);
  tally.Count(rounds.untraced, "untraced", &report);
  tally.Count(rounds.real, "traced", &report);
  tally.Count(rounds.replay, "stepwise", &report);

  // The single-shot path has no cache and no optimizer.
  for (const char* name : {"lang.optimizer.rewrites_applied",
                           "lang.optimizer.rewrites_rejected",
                           "lang.optimizer.rewrites_cost_rejected",
                           "program_cache.evictions"}) {
    report.Add(name, 0, "count");
  }
  report.Add("program_cache.hit_rate", 0, "fraction");
  return FinishTraced(opt, rounds, real, stepwise,
                      real.ops_us().Percentile(0.5),
                      obs::CounterValue("exec.parallel.tasks") - tasks0,
                      /*busy_time=*/true, tracer, tally, &report);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name> [--seed N] [--duration S]"
               " [--traced]\nworkloads:");
  for (Workload w : AllWorkloads()) {
    std::fprintf(stderr, " %s", WorkloadName(w));
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace tabular::bench

int main(int argc, char** argv) {
  using namespace tabular::bench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--workload" && has_value) {
      std::optional<Workload> w = ParseWorkload(argv[++i]);
      if (!w.has_value()) return Usage();
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--duration" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else {
      return Usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0)) {
    return Usage();
  }
  return opt.workload == Workload::kRestructure1m ? RunRestructure(opt)
                                                  : RunServerWorkload(opt);
}
