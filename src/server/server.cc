#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <map>

#include "io/grid_format.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "server/wire.h"

namespace tabular::server {

namespace {

obs::Counter& RequestCounter() {
  static obs::Counter& c = obs::GetCounter("server.requests");
  return c;
}

obs::Counter& RequestErrorCounter() {
  static obs::Counter& c = obs::GetCounter("server.request_errors");
  return c;
}

/// Canonical latency source: bench_server and the Prometheus exposition
/// both derive p50/p99 from this histogram's buckets.
obs::Histogram& RequestLatency() {
  static obs::Histogram& h = obs::GetHistogram("server.request.latency");
  return h;
}

std::string JsonField(const char* key, uint64_t v, bool last = false) {
  return std::string("\"") + key + "\":" + std::to_string(v) +
         (last ? "" : ",");
}

/// Σ data rows over every table — the slow-log's rows_in/rows_out.
uint64_t TotalDataRows(const core::TabularDatabase& db) {
  uint64_t rows = 0;
  for (const core::Table& t : db.tables()) rows += t.height();
  return rows;
}

/// Counter deltas across a profiled execution, as a JSON object keyed by
/// registry name ({"algebra.group.calls":5,...}). Under concurrent
/// sessions other requests' operator work leaks into the window; profile
/// counters are attribution hints, not an audit.
std::string CounterDeltaJson(
    const std::map<std::string, uint64_t>& before) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : obs::CounterEntries()) {
    auto it = before.find(name);
    const uint64_t prior = it == before.end() ? 0 : it->second;
    if (value == prior) continue;
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + name + "\":" + std::to_string(value - prior);
  }
  out += "}";
  return out;
}

std::map<std::string, uint64_t> CounterValues() {
  std::map<std::string, uint64_t> values;
  for (const auto& [name, value] : obs::CounterEntries()) {
    values[name] = value;
  }
  return values;
}

}  // namespace

std::string ServerStats::ToJson() const {
  std::string out = "{";
  out += JsonField("version", version);
  out += JsonField("commits", commits);
  out += JsonField("conflicts", conflicts);
  out += JsonField("sessions_active", sessions_active);
  out += JsonField("sessions_total", sessions_total);
  out += JsonField("requests", requests);
  out += JsonField("request_errors", request_errors);
  out += JsonField("cache_hits", cache_hits);
  out += JsonField("cache_misses", cache_misses);
  out += JsonField("cache_evictions", cache_evictions);
  out += JsonField("cache_size", cache_size, /*last=*/true);
  out += "}";
  return out;
}

Server::Server(ServerOptions options, core::TabularDatabase initial)
    : options_(std::move(options)),
      versions_(std::make_unique<VersionedDatabase>(std::move(initial))),
      cache_(options_.cache) {
  slow_log_.set_threshold_micros(options_.slow_query_micros);
}

Result<std::unique_ptr<Server>> Server::Start(core::TabularDatabase initial,
                                              ServerOptions options) {
  std::unique_ptr<Server> server(
      new Server(std::move(options), std::move(initial)));
  TABULAR_RETURN_NOT_OK(server->Listen());
  if (server->options_.metrics_port >= 0) {
    TABULAR_ASSIGN_OR_RETURN(
        server->metrics_http_,
        MetricsHttpServer::Start(
            server->options_.host,
            static_cast<uint16_t>(server->options_.metrics_port)));
  }
  server->accept_thread_ = std::thread([s = server.get()] {
    obs::SetCurrentThreadName("tabulard-accept");
    s->AcceptLoop();
  });
  return server;
}

Status Server::Listen() {
  if (::pipe(wake_pipe_) != 0) {
    return Status::Internal(std::string("pipe failed: ") +
                            std::strerror(errno));
  }
  ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return Status::Internal(std::string("socket failed: ") +
                              std::strerror(errno));
    }
    ::unlink(options_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::Internal("bind to " + options_.unix_path + " failed: " +
                              std::strerror(errno));
    }
    endpoint_ = "unix:" + options_.unix_path;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return Status::Internal(std::string("socket failed: ") +
                              std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad listen host: " + options_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::Internal("bind to " + options_.host + ":" +
                              std::to_string(options_.port) + " failed: " +
                              std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
    endpoint_ = options_.host + ":" + std::to_string(port_);
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::Internal(std::string("listen failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

void Server::AcceptLoop() {
  static obs::Gauge& active_gauge = obs::GetGauge("server.sessions.active");
  static obs::Counter& opened = obs::GetCounter("server.sessions.opened");
  static obs::Counter& refused = obs::GetCounter("server.sessions.refused");

  // The loop runs until Shutdown() sets `stopped_`: a draining server must
  // keep *actively refusing* connections (accept + immediate close), or
  // late clients would sit in the listen backlog unanswered until the
  // listen fd closes. Once draining, the wake pipe stays readable forever,
  // so poll the listen fd alone on a short timeout instead of spinning;
  // Shutdown() wakes that poll by shutting the listen fd down.
  while (!stopped_.load(std::memory_order_acquire)) {
    const bool draining = ShutdownRequested();
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int rc = ::poll(fds, draining ? 1 : 2, /*timeout_ms=*/draining ? 50 : 250);
    if (rc < 0 && errno != EINTR) break;
    if (stopped_.load(std::memory_order_acquire)) break;
    if (rc <= 0 || (fds[0].revents & POLLIN) == 0) continue;

    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    if (ShutdownRequested() ||
        sessions_active_.load(std::memory_order_relaxed) >=
            options_.max_sessions) {
      // Draining or over capacity: refuse by closing immediately.
      refused.Add(1);
      ::close(fd);
      continue;
    }

    // Session ids are 1-based: the id tags every trace span and slow-log
    // entry the session produces, and 0 is the "unknown" sentinel.
    const uint64_t session_id =
        sessions_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    sessions_active_.fetch_add(1, std::memory_order_relaxed);
    opened.Add(1);
    active_gauge.Set(
        static_cast<int64_t>(sessions_active_.load(std::memory_order_relaxed)));

    std::lock_guard<std::mutex> lock(mu_);
    // Reap finished sessions so long-lived servers don't accumulate slots.
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->done) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    auto slot = std::make_unique<SessionSlot>();
    SessionSlot* raw = slot.get();
    raw->fd = fd;
    sessions_.push_back(std::move(slot));
    raw->thread = std::thread([this, raw, session_id] {
      obs::SetCurrentThreadName("tabulard-session");
      SessionLoop(raw->fd, session_id);
      ::close(raw->fd);
      sessions_active_.fetch_sub(1, std::memory_order_relaxed);
      active_gauge.Set(static_cast<int64_t>(
          sessions_active_.load(std::memory_order_relaxed)));
      std::lock_guard<std::mutex> done_lock(mu_);
      raw->done = true;
    });
  }
}

void Server::SessionLoop(int fd, uint64_t session_id) {
  while (true) {
    // Idle wait: wake on request bytes, on peer close, or on shutdown (the
    // wake pipe stays readable once signaled, so every session sees it).
    pollfd fds[2] = {{fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int rc = ::poll(fds, 2, /*timeout_ms=*/250);
    if (rc < 0 && errno != EINTR) return;
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      // No request pending: a draining server closes idle sessions.
      if (ShutdownRequested()) return;
      continue;
    }

    Result<std::optional<std::string>> frame = ReadFrame(fd);
    if (!frame.ok()) {
      // Framing violation (oversized length, mid-frame close): report once
      // when the socket still works, then drop the connection.
      ErrorResponse err{frame.status().code(), frame.status().message()};
      (void)WriteFrame(fd, EncodeError(err));
      return;
    }
    if (!frame->has_value()) return;  // clean EOF

    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    const uint64_t t0 = obs::TraceNowNs();
    obs::QueryLogEntry audit;
    std::string response = HandleRequest(**frame, session_id, &audit);
    const uint64_t latency_us = (obs::TraceNowNs() - t0) / 1000;
    RequestLatency().Record(latency_us);
    // A run request set the program hash (FNV-1a is never 0); finish the
    // audit record with what only this loop knows and offer it to the
    // slow-query log.
    if (audit.program_hash != 0) {
      audit.start_ns = t0;
      audit.session_id = session_id;
      audit.latency_us = latency_us;
      slow_log_.Observe(audit);
    }
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    if (!WriteFrame(fd, response).ok()) return;
    // Drain semantics: the request that was in flight when shutdown was
    // requested gets its response, then the session closes.
    if (ShutdownRequested()) return;
  }
}

std::string Server::HandleRequest(const std::string& payload,
                                  uint64_t session_id,
                                  obs::QueryLogEntry* audit) {
  // The root span of the request: everything the handler does (interpreter
  // and kernel spans included) nests under it in the exported trace, and
  // its args identify which session's track the request ran on.
  obs::TraceSpan root("server.request", "server");
  root.Arg("session", session_id);
  requests_.fetch_add(1, std::memory_order_relaxed);
  RequestCounter().Add(1);

  auto error = [this](StatusCode code, std::string message) {
    request_errors_.fetch_add(1, std::memory_order_relaxed);
    RequestErrorCounter().Add(1);
    return EncodeError(ErrorResponse{code, std::move(message)});
  };

  if (payload.empty()) {
    return error(StatusCode::kParseError, "empty payload");
  }
  switch (static_cast<MsgType>(static_cast<uint8_t>(payload[0]))) {
    case MsgType::kPing: {
      PingRequest ping;
      Status parsed = DecodePingRequest(payload, &ping);
      if (!parsed.ok()) return error(parsed.code(), parsed.message());
      if (!ping.has_features) return EncodeOkEmpty();  // version-1 ping
      PingResponse pong;
      pong.features =
          static_cast<uint8_t>(ping.features & options_.feature_mask);
      pong.protocol_version = kProtocolVersion;
      return EncodePingResponse(pong);
    }
    case MsgType::kRun:
      return HandleRun(payload, session_id, &root, audit);
    case MsgType::kSlowLog: {
      SlowLogResponse resp;
      resp.threshold_micros = slow_log_.threshold_micros();
      resp.entries = slow_log_.Drain();
      resp.dropped = slow_log_.dropped();
      return EncodeSlowLogResponse(resp);
    }
    case MsgType::kMetricsProm:
      return EncodeOkString(obs::RenderPrometheus());
    case MsgType::kDump: {
      Snapshot snap = versions_->Current();
      std::string out;
      PutU8(&out, static_cast<uint8_t>(MsgType::kOk));
      PutU64(&out, snap.version);
      PutString(&out, io::SerializeDatabase(*snap.db));
      return out;
    }
    case MsgType::kTables: {
      Snapshot snap = versions_->Current();
      std::string names;
      for (core::Symbol nm : snap.db->TableNames()) {
        names += nm.ToString();
        names += '\n';
      }
      return EncodeOkString(names);
    }
    case MsgType::kStats:
      return EncodeOkString(Stats().ToJson());
    case MsgType::kMetrics:
      return EncodeOkString(obs::MetricsJson());
    case MsgType::kShutdown:
      RequestShutdown();
      return EncodeOkEmpty();
    case MsgType::kOk:
    case MsgType::kError:
      return error(StatusCode::kParseError,
                   "response message type in a request");
  }
  return error(StatusCode::kParseError,
               "unknown message type " +
                   std::to_string(static_cast<uint8_t>(payload[0])));
}

std::string Server::HandleRun(const std::string& payload,
                              uint64_t session_id, obs::TraceSpan* root,
                              obs::QueryLogEntry* audit) {
  (void)session_id;  // the session loop stamps it onto `audit`
  TABULAR_TRACE_SPAN("server.run", "server");
  auto error = [this, audit](StatusCode code, std::string message) {
    request_errors_.fetch_add(1, std::memory_order_relaxed);
    RequestErrorCounter().Add(1);
    audit->ok = false;
    return EncodeError(ErrorResponse{code, std::move(message)});
  };

  RunRequest req;
  Status parsed = DecodeRunRequest(payload, &req);
  if (!parsed.ok()) return error(parsed.code(), parsed.message());
  // From here on the request is auditable: the hash marks `audit` live.
  audit->program_hash = obs::Fnv1a64(req.program);
  audit->request_id = req.request_id;
  if (req.request_id != 0) root->Arg("request", req.request_id);

  // Pin a snapshot: everything below reads this immutable version, no
  // matter how many commits land concurrently. The cache reads the
  // version's schema image, which the version's first request built.
  Snapshot snap = versions_->Current();
  bool cache_hit = false;
  std::shared_ptr<const CompiledProgram> compiled =
      cache_.Get(req.program, snap.Image(), &cache_hit);
  root->Arg("snapshot", snap.version);
  root->Arg("cache_hit", cache_hit ? 1 : 0);
  audit->snapshot_version = snap.version;
  audit->cache_hit = cache_hit;
  audit->rows_in = TotalDataRows(*snap.db);
  if (!compiled->front_end.ok()) {
    return error(compiled->front_end.code(), compiled->front_end.message());
  }
  audit->rewrites_applied =
      static_cast<uint32_t>(compiled->optimize_stats.applied);

  // Admission control: a pure lookup on the cached cost summary — no
  // analysis runs on the hot path. Rejection happens before the private
  // copy below, so an over-budget program costs the server nothing but
  // the compile (which negative-caches like any other front-end verdict
  // would not — admission is re-checked per request, since the
  // observed-rows feedback moves).
  const bool admission =
      options_.max_est_rows > 0 || options_.max_est_bytes > 0;
  if (admission) {
    static obs::Counter& admitted =
        obs::GetCounter("server.admission.admitted");
    static obs::Counter& rejected =
        obs::GetCounter("server.admission.rejected");
    static obs::Counter& unbounded =
        obs::GetCounter("server.admission.unbounded");
    const analysis::CostReport& cost = compiled->cost;
    if (cost.unbounded()) {
      unbounded.Add(1);
      rejected.Add(1);
      return error(StatusCode::kAdmissionRejected,
                   "statement " + cost.unbounded_path +
                       ": statically unbounded resource use");
    }
    const uint64_t est_rows = compiled->EffectiveRowEstimate();
    if (options_.max_est_rows > 0 && est_rows > options_.max_est_rows) {
      rejected.Add(1);
      return error(StatusCode::kAdmissionRejected,
                   "statement " + cost.peak_rows_path + ": estimated rows " +
                       analysis::FormatCost(est_rows) + " exceed limit " +
                       std::to_string(options_.max_est_rows));
    }
    const uint64_t est_bytes = compiled->EffectiveByteEstimate();
    if (options_.max_est_bytes > 0 && est_bytes > options_.max_est_bytes) {
      rejected.Add(1);
      return error(StatusCode::kAdmissionRejected,
                   "statement " + cost.peak_bytes_path +
                       ": estimated bytes " +
                       analysis::FormatCost(est_bytes) + " exceed limit " +
                       std::to_string(options_.max_est_bytes));
    }
    admitted.Add(1);
  }

  // Execute against a private copy, which shares every table with the
  // snapshot (O(#tables)): the interpreter replaces tables in `work`'s own
  // list and never writes one. The front end already ran (analysis and
  // certified rewrites are part of the cached compile), so the interpreter
  // runs the compiled form directly.
  core::TabularDatabase work = *snap.db;
  lang::InterpreterOptions interp = options_.interp;
  interp.analyze_first = false;
  interp.optimize = false;
  interp.profile = req.profile;
  std::map<std::string, uint64_t> counters_before;
  if (req.profile) counters_before = CounterValues();
  lang::Interpreter interpreter(interp);
  Status run = interpreter.Run(compiled->executable(), &work);
  if (!run.ok()) {
    // No commit happens on failure: under snapshot isolation a failed
    // program is invisible — partial results die with `work`.
    return error(run.code(), run.message());
  }

  RunResponse resp;
  resp.executed_version = snap.version;
  resp.cache_hit = cache_hit;
  resp.steps = interpreter.steps_executed();
  resp.rewrites_applied =
      static_cast<uint32_t>(compiled->optimize_stats.applied);
  resp.rewrites_rejected =
      static_cast<uint32_t>(compiled->optimize_stats.rejected);
  if (req.profile) {
    resp.has_profile = true;
    resp.profile_text = obs::RenderProfile(interpreter.profile());
    resp.counters_json = CounterDeltaJson(counters_before);
  }
  audit->rows_out = TotalDataRows(work);
  // Feed the run's true output size back into the cache entry, so a static
  // estimate that went stale cannot admit the program again (adaptive
  // re-planning without recompiling). Measured over the tables the run
  // created, the same quantity the static peaks bound. Only admission
  // reads it.
  if (admission) {
    const OutputPeaks seen = CreatedTablePeaks(*snap.db, work);
    compiled->RecordObservedRows(seen.rows);
    compiled->RecordObservedBytes(seen.bytes);
  }
  if (req.want_dump) resp.dump = io::SerializeDatabase(work);
  if (req.commit) {
    Result<uint64_t> committed =
        versions_->Commit(snap.version, std::move(work));
    if (!committed.ok()) {
      return error(committed.status().code(), committed.status().message());
    }
    resp.committed_version = *committed;
  }
  return EncodeRunResponse(resp);
}

void Server::RequestShutdown() {
  bool expected = false;
  if (!shutdown_requested_.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return;
  }
  // Wake every poll()er; the pipe stays readable, so late pollers see it
  // too. The write end is non-blocking — a full pipe is already "signaled".
  char byte = 1;
  (void)!::write(wake_pipe_[1], &byte, 1);
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_cv_.notify_all();
}

void Server::WaitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return ShutdownRequested(); });
}

void Server::Shutdown() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    return;
  }
  // `stopped_` is set before anything wakes the accept loop, so its next
  // check exits. A loop already draining polls only the listen fd;
  // shutdown(2) on a listening socket wakes that poll at once instead of
  // at its timeout.
  RequestShutdown();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_http_ != nullptr) metrics_http_->Shutdown();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());

  // Drain: sessions finish their in-flight request and exit on their own;
  // after the deadline, force-unblock whatever is left. shutdown(2) (not
  // close) so the fd number stays owned by the session thread.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(
          static_cast<int64_t>(options_.drain_seconds * 1000));
  while (sessions_active_.load(std::memory_order_relaxed) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& slot : sessions_) {
      if (!slot->done) ::shutdown(slot->fd, SHUT_RDWR);
    }
  }
  std::vector<std::unique_ptr<SessionSlot>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.swap(sessions_);
  }
  for (auto& slot : sessions) {
    if (slot->thread.joinable()) slot->thread.join();
  }
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) {
      ::close(wake_pipe_[i]);
      wake_pipe_[i] = -1;
    }
  }
}

Server::~Server() { Shutdown(); }

ServerStats Server::Stats() const {
  ServerStats s;
  Snapshot snap = versions_->Current();
  s.version = snap.version;
  s.commits = versions_->CommitCount();
  s.conflicts = versions_->ConflictCount();
  s.sessions_active = sessions_active_.load(std::memory_order_relaxed);
  s.sessions_total = sessions_total_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.request_errors = request_errors_.load(std::memory_order_relaxed);
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  s.cache_size = cache_.size();
  return s;
}

}  // namespace tabular::server
