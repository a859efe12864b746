// Many-client open-loop load generator for tabulard (PR 6).
//
// Each benchmark run starts an in-process Server on an ephemeral localhost
// port, connects N client sessions, and drives each at a fixed arrival
// rate with a cycling mix of read-only programs (commit=false, so every
// request executes against the same snapshot and the compiled-program
// cache converges to a hit on every request after warmup).
//
// Open loop means latency is measured from each request's *scheduled*
// arrival time, not from when the client got around to sending it — a
// server that falls behind accumulates queueing delay in p99 instead of
// quietly slowing the generator down (the coordinated-omission trap).
//
// Emits BENCH_server.json: per connection count, aggregate throughput,
// p50/p99 latency, and the server-side cache hit rate. ta_throughput_rps
// is the *offered* open-loop rate (connections × per-connection arrival
// rate), not capacity: a server that keeps up reports the schedule. The
// server's capacity is bench_e2e's closed-loop throughput_rps
// (bench/e2e/README.md). Latency percentiles
// come from obs histograms — ta_p50_us/ta_p99_us are the server's own
// `server.request.latency` distribution (a Delta isolates this run), and
// ta_sched_p99_us is the client-side open-loop schedule-to-response
// distribution, which includes queueing delay. Validated in CI by
// scripts/check_bench_json.py with --min-counter floors (≥64 connections,
// ≥0.9 hit rate) and a --max-counter ceiling on ta_p99_ms.

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/database.h"
#include "io/grid_format.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using tabular::server::Client;
using tabular::server::Server;
using tabular::server::ServerOptions;

constexpr std::string_view kSalesGrid =
    "!Sales | !Part  | !Region | !Sold\n"
    "#      | nuts   | east    | 50\n"
    "#      | nuts   | west    | 60\n"
    "#      | nuts   | south   | 40\n"
    "#      | screws | west    | 50\n"
    "#      | screws | north   | 60\n"
    "#      | screws | south   | 50\n"
    "#      | bolts  | east    | 70\n"
    "#      | bolts  | north   | 40\n";

/// The request mix: distinct read-only programs, so a run exercises
/// several cache entries rather than one hot key.
const std::vector<std::string>& ProgramMix() {
  static const std::vector<std::string> kPrograms = {
      "R1 <- project {Part} (Sales);",
      "R2 <- project {Region} (Sales);",
      "R3 <- project {Part, Sold} (Sales);",
      "R4 <- select Region = Region (Sales);",
      "R5 <- group by {Region} on {Sold} (Sales);",
      "R6 <- transpose (Sales);",
      "R7 <- rename Qty / Sold (Sales);",
      "R8 <- group by {Part} on {Sold} (Sales);",
  };
  return kPrograms;
}

/// Client-side open-loop latency distribution (scheduled arrival →
/// response). An obs histogram rather than a raw vector: the bench reads
/// percentiles off the same bucket math the server's Prometheus
/// exposition uses, so the two latency sources are comparable.
tabular::obs::Histogram& OpenLoopLatency() {
  static tabular::obs::Histogram& h =
      tabular::obs::GetHistogram("bench.server.open_loop_us");
  return h;
}

struct LoadResult {
  uint64_t requests = 0;
  uint64_t errors = 0;
  double wall_seconds = 0;
};

/// Drives `conns` sessions, each issuing `per_conn` requests at one
/// request per `interval`, open loop.
LoadResult RunOpenLoop(Server& server, int conns, int per_conn,
                       std::chrono::microseconds interval) {
  using Clock = std::chrono::steady_clock;
  const auto& mix = ProgramMix();

  std::vector<Client> clients;
  clients.reserve(conns);
  for (int c = 0; c < conns; ++c) {
    auto client = Client::ConnectTcp("127.0.0.1", server.port());
    if (!client.ok()) {
      std::fprintf(stderr, "bench_server: connect %d failed: %s\n", c,
                   client.status().ToString().c_str());
      std::exit(1);
    }
    clients.push_back(std::move(*client));
  }

  std::vector<uint64_t> per_thread_errors(conns, 0);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients[c];
      for (int j = 0; j < per_conn; ++j) {
        // The open-loop schedule: request j of this session is *due* at
        // start + j*interval regardless of how long earlier ones took.
        const auto scheduled = start + j * interval;
        std::this_thread::sleep_until(scheduled);
        const std::string& program = mix[(c + j) % mix.size()];
        auto resp = client.Run(program, /*commit=*/false);
        if (!resp.ok()) {
          ++per_thread_errors[c];
          continue;
        }
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - scheduled)
                            .count();
        OpenLoopLatency().Record(static_cast<uint64_t>(us < 0 ? 0 : us));
      }
    });
  }
  for (auto& t : threads) t.join();

  LoadResult result;
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (int c = 0; c < conns; ++c) result.errors += per_thread_errors[c];
  result.requests = static_cast<uint64_t>(conns) * per_conn;
  return result;
}

void BM_ServerOpenLoop(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  const int per_conn = 32;
  const auto interval = std::chrono::microseconds(2500);  // 400 req/s/conn

  auto db = tabular::io::ParseDatabase(kSalesGrid);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }

  using tabular::obs::Histogram;
  using tabular::obs::HistogramPercentile;
  // The server process's canonical latency histogram; the bench runs the
  // server in-process, so its registry is directly readable. Deltas
  // isolate the measured window (the registry is process-lifetime).
  Histogram& server_latency =
      tabular::obs::GetHistogram("server.request.latency");

  LoadResult result;
  uint64_t cache_hits = 0, cache_misses = 0;
  Histogram::Snapshot server_delta;
  Histogram::Snapshot sched_delta;
  for (auto _ : state) {
    auto server = Server::Start(*db, ServerOptions());
    if (!server.ok()) {
      state.SkipWithError(server.status().ToString().c_str());
      return;
    }
    // Warm the compiled-program cache so the measured window exercises
    // the hit path, as a long-lived daemon would.
    {
      auto warm = Client::ConnectTcp("127.0.0.1", (*server)->port());
      if (!warm.ok()) {
        state.SkipWithError(warm.status().ToString().c_str());
        return;
      }
      for (const std::string& program : ProgramMix()) {
        auto resp = warm->Run(program, /*commit=*/false);
        if (!resp.ok()) {
          state.SkipWithError(resp.status().ToString().c_str());
          return;
        }
      }
    }

    const Histogram::Snapshot server_before = server_latency.Snap();
    const Histogram::Snapshot sched_before = OpenLoopLatency().Snap();
    result = RunOpenLoop(**server, conns, per_conn, interval);
    server_delta =
        Histogram::Delta(server_latency.Snap(), server_before);
    sched_delta = Histogram::Delta(OpenLoopLatency().Snap(), sched_before);
    cache_hits = (*server)->cache().hits();
    cache_misses = (*server)->cache().misses();
    state.SetIterationTime(result.wall_seconds);
    (*server)->Shutdown();
  }

  const double completed =
      static_cast<double>(result.requests - result.errors);
  const double p99_us = HistogramPercentile(server_delta, 0.99);
  state.counters["ta_connections"] = benchmark::Counter(conns);
  state.counters["ta_requests"] =
      benchmark::Counter(static_cast<double>(result.requests));
  state.counters["ta_errors"] =
      benchmark::Counter(static_cast<double>(result.errors));
  state.counters["ta_throughput_rps"] = benchmark::Counter(
      result.wall_seconds > 0 ? completed / result.wall_seconds : 0);
  state.counters["ta_p50_us"] =
      benchmark::Counter(HistogramPercentile(server_delta, 0.50));
  state.counters["ta_p99_us"] = benchmark::Counter(p99_us);
  // Same p99 in milliseconds: the CI regression gate's unit
  // (check_bench_json.py --max-counter ta_p99_ms=...).
  state.counters["ta_p99_ms"] = benchmark::Counter(p99_us / 1000.0);
  state.counters["ta_sched_p99_us"] =
      benchmark::Counter(HistogramPercentile(sched_delta, 0.99));
  state.counters["ta_cache_hit_rate"] = benchmark::Counter(
      cache_hits + cache_misses > 0
          ? static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses)
          : 0);
  state.SetItemsProcessed(static_cast<int64_t>(completed));
}

BENCHMARK(BM_ServerOpenLoop)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

TABULAR_BENCH_MAIN("BENCH_server.json")
