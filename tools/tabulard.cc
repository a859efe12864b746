// tabulard: the concurrent multi-session tabular-algebra server.
//
// Serves TA programs over the length-prefixed wire protocol of
// src/server/wire.h (localhost TCP or a unix socket) under snapshot
// isolation: every request executes against an immutable database version;
// commits install a new version with an atomic first-committer-wins swap.
// Parsed + analyzed + optimizer-certified programs are cached per
// (program text, schema shape).
//
//   tabulard --db examples/sales.tdb --listen 127.0.0.1:7690
//   tabulard --db examples/sales.tdb --unix /tmp/tabulard.sock
//
// SIGINT/SIGTERM shut down gracefully: new sessions are refused, in-flight
// requests drain (bounded by --drain-seconds), and the process exits 0.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/database.h"
#include "core/status.h"
#include "exec/flags.h"
#include "exec/parallel.h"
#include "io/grid_format.h"
#include "server/server.h"

namespace {

constexpr const char* kUsage =
    R"(usage: tabulard [options]

options:
  --db <file>          initial database (grid format; default: empty)
  --listen <host:port> listen on localhost TCP (port 0 = ephemeral)
  --unix <path>        listen on a unix socket instead
  --cache-capacity <n> compiled-program cache entries (default 128)
  --drain-seconds <s>  graceful-shutdown drain deadline (default 5)
  --max-sessions <n>   concurrent session limit, at least 1 (default 1024)
  --slow-ms <ms>       slow-query log threshold in milliseconds
                       (default 100, or TABULAR_SLOW_MS; negative disables;
                       drain with `tabular_cli slowlog`)
  --metrics-port <n>   serve Prometheus text format on plain-HTTP
                       GET /metrics at this port (0 = ephemeral, -1 = off;
                       default off)
  --max-est-rows <n>   admission control: reject programs whose static row
                       estimate exceeds n before executing them (default 0 =
                       off, or TABULAR_ADMIT_MAX_ROWS); statically unbounded
                       programs are rejected whenever admission is on
  --max-est-bytes <n>  admission control on the static peak byte estimate
                       (default 0 = off, or TABULAR_ADMIT_MAX_BYTES)
  --quiet              no startup banner
  -h, --help           show this help

Numeric values must parse exactly: counts, limits and ports are whole
numbers, seconds and milliseconds decimal numbers. A malformed value, or a
TABULAR_THREADS that is not a whole positive number, exits 2 naming it.
)";

using tabular::exec::ParseLimit;
using tabular::exec::ParseNumber;

/// A TCP port in [0, 65535], or -1 (off).
bool ParsePort(const char* s, int* out) {
  uint64_t v = 0;
  if (std::strcmp(s, "-1") == 0) {
    *out = -1;
  } else if (ParseLimit(s, &v) && v <= 65535) {
    *out = static_cast<int>(v);
  } else {
    return false;
  }
  return true;
}

/// A slow-query threshold in milliseconds; negative disables the log.
/// Values past ~30 years are refused (their microseconds overflow).
bool ParseSlowMs(const char* s, uint64_t* micros) {
  double ms = 0;
  if (!ParseNumber(s, &ms) || ms > 1e12) return false;
  *micros = ms < 0 ? tabular::obs::QueryLog::kDisabled
                   : static_cast<uint64_t>(ms * 1000.0);
  return true;
}

/// The startup error for a malformed flag or variable value; returns the
/// exit code.
int Malformed(const char* name, const char* value, const char* what) {
  std::fprintf(stderr, "tabulard: error: %s '%s' is not %s\n", name, value,
               what);
  return 2;
}

// Signal handling: the handler only writes one byte to a self-pipe
// (async-signal-safe); the main thread blocks on the pipe and runs the
// graceful shutdown outside signal context.
int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int /*sig*/) {
  const char byte = 1;
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

}  // namespace

int main(int argc, char** argv) {
  using tabular::server::Server;
  using tabular::server::ServerOptions;

  ServerOptions options;
  std::string db_path;
  std::string listen = "127.0.0.1:0";
  bool quiet = false;

  // Environment variables seed the slow-query threshold and the admission
  // limits; the flags override them. Kernels read TABULAR_THREADS
  // themselves and would only warn about a malformed value, so a server
  // refuses to start on one.
  if (const char* env = std::getenv("TABULAR_SLOW_MS");
      env != nullptr && *env != '\0' &&
      !ParseSlowMs(env, &options.slow_query_micros)) {
    return Malformed("TABULAR_SLOW_MS", env, "a number of milliseconds");
  }
  if (const char* env = std::getenv("TABULAR_ADMIT_MAX_ROWS");
      env != nullptr && *env != '\0' &&
      !ParseLimit(env, &options.max_est_rows)) {
    return Malformed("TABULAR_ADMIT_MAX_ROWS", env, "a row count");
  }
  if (const char* env = std::getenv("TABULAR_ADMIT_MAX_BYTES");
      env != nullptr && *env != '\0' &&
      !ParseLimit(env, &options.max_est_bytes)) {
    return Malformed("TABULAR_ADMIT_MAX_BYTES", env, "a byte count");
  }
  if (const char* env = std::getenv("TABULAR_THREADS");
      env != nullptr && *env != '\0') {
    size_t threads = 0;
    if (!tabular::exec::ParseThreadCount(env, &threads)) {
      return Malformed("TABULAR_THREADS", env, "a whole positive number");
    }
  }

  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "tabulard: error: %s requires a value\n", flag);
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--db") {
      const char* v = need_value(i, "--db");
      if (v == nullptr) return 2;
      db_path = v;
    } else if (arg == "--listen") {
      const char* v = need_value(i, "--listen");
      if (v == nullptr) return 2;
      listen = v;
    } else if (arg == "--unix") {
      const char* v = need_value(i, "--unix");
      if (v == nullptr) return 2;
      options.unix_path = v;
    } else if (arg == "--cache-capacity") {
      const char* v = need_value(i, "--cache-capacity");
      if (v == nullptr) return 2;
      uint64_t n = 0;
      if (!ParseLimit(v, &n)) {
        return Malformed("--cache-capacity", v, "an entry count");
      }
      options.cache.capacity = n;
    } else if (arg == "--drain-seconds") {
      const char* v = need_value(i, "--drain-seconds");
      if (v == nullptr) return 2;
      if (!ParseNumber(v, &options.drain_seconds) ||
          options.drain_seconds < 0 || options.drain_seconds > 1e9) {
        return Malformed("--drain-seconds", v, "a number of seconds");
      }
    } else if (arg == "--max-sessions") {
      const char* v = need_value(i, "--max-sessions");
      if (v == nullptr) return 2;
      uint64_t n = 0;
      if (!ParseLimit(v, &n) || n == 0) {
        return Malformed("--max-sessions", v, "a positive session count");
      }
      options.max_sessions = n;
    } else if (arg == "--slow-ms") {
      const char* v = need_value(i, "--slow-ms");
      if (v == nullptr) return 2;
      if (!ParseSlowMs(v, &options.slow_query_micros)) {
        return Malformed("--slow-ms", v, "a number of milliseconds");
      }
    } else if (arg == "--metrics-port") {
      const char* v = need_value(i, "--metrics-port");
      if (v == nullptr) return 2;
      if (!ParsePort(v, &options.metrics_port)) {
        return Malformed("--metrics-port", v, "a port in [-1, 65535]");
      }
    } else if (arg == "--max-est-rows") {
      const char* v = need_value(i, "--max-est-rows");
      if (v == nullptr) return 2;
      if (!ParseLimit(v, &options.max_est_rows)) {
        return Malformed("--max-est-rows", v, "a row count");
      }
    } else if (arg == "--max-est-bytes") {
      const char* v = need_value(i, "--max-est-bytes");
      if (v == nullptr) return 2;
      if (!ParseLimit(v, &options.max_est_bytes)) {
        return Malformed("--max-est-bytes", v, "a byte count");
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "tabulard: error: unknown option '%s'\n%s",
                   arg.c_str(), kUsage);
      return 2;
    }
  }

  if (options.unix_path.empty()) {
    const size_t colon = listen.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      std::fprintf(stderr, "tabulard: error: --listen expects host:port\n");
      return 2;
    }
    options.host = listen.substr(0, colon);
    int port = 0;
    if (!ParsePort(listen.c_str() + colon + 1, &port) || port < 0) {
      return Malformed("--listen", listen.c_str(), "a host:port");
    }
    options.port = static_cast<uint16_t>(port);
  }

  tabular::core::TabularDatabase db;
  if (!db_path.empty()) {
    auto loaded = tabular::io::LoadDatabaseFile(db_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "tabulard: error: cannot load '%s': %s\n",
                   db_path.c_str(), loaded.status().message().c_str());
      return 2;
    }
    db = std::move(*loaded);
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("tabulard: pipe");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = OnShutdownSignal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  auto server = Server::Start(std::move(db), options);
  if (!server.ok()) {
    std::fprintf(stderr, "tabulard: error: %s\n",
                 server.status().message().c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("tabulard: listening on %s (%zu table(s), cache %zu)\n",
                (*server)->endpoint().c_str(),
                (*server)->versions().Current().db->size(),
                options.cache.capacity);
    if ((*server)->metrics_port() >= 0) {
      std::printf("tabulard: metrics on http://%s:%d/metrics\n",
                  options.host.c_str(), (*server)->metrics_port());
    }
    std::fflush(stdout);
  }

  // Block until a shutdown signal or a client Shutdown request, whichever
  // comes first, then drain and exit 0. The signal watcher runs in a
  // helper thread so the Shutdown *request* path needs no signal at all.
  std::thread signal_watcher([&server] {
    char byte;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    (*server)->RequestShutdown();
  });
  (*server)->WaitForShutdownRequest();
  if (!quiet) {
    std::printf("tabulard: draining sessions\n");
    std::fflush(stdout);
  }
  (*server)->Shutdown();
  // Unblock the watcher if shutdown came from a client request.
  OnShutdownSignal(0);
  signal_watcher.join();
  if (!quiet) std::printf("tabulard: bye\n");
  return 0;
}
