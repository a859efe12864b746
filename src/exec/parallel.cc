#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/flags.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tabular::exec {

namespace {

/// Set on any thread currently executing inside a parallel region (the
/// caller during a fork/join and every worker); nested ParallelFor calls on
/// such a thread degrade to the serial path instead of deadlocking on the
/// single-job pool.
thread_local bool t_in_parallel_region = false;

/// Resolved once per process (see `Threads`), so a malformed
/// `TABULAR_THREADS` warns once.
size_t DefaultThreads() {
  size_t n = 0;
  if (const char* env = std::getenv("TABULAR_THREADS");
      env != nullptr && *env != '\0' && !ParseThreadCount(env, &n)) {
    std::fprintf(stderr,
                 "tabular: warning: TABULAR_THREADS '%s' is not a whole "
                 "positive number; using the hardware concurrency\n",
                 env);
  }
  if (n > 0) return n;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::atomic<size_t> g_thread_override{0};

/// A lazily grown pool of persistent workers executing one fork/join job at
/// a time. Tasks are claimed with an atomic counter, which load-balances
/// without affecting results: a task's index alone determines what it
/// writes.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    // Leaked singleton: workers are parked in a condition wait at process
    // exit and die with the process (Google style for non-trivially
    // destructible statics).
    static ThreadPool* pool = new ThreadPool();
    return *pool;
  }

  /// Runs fn(0) .. fn(tasks - 1) on up to `threads` threads (caller
  /// included) and returns when all calls finished. Callers serialize.
  void Run(size_t threads, size_t tasks,
           const std::function<void(size_t)>& fn) {
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    Job job;
    job.fn = &fn;
    job.tasks = tasks;
    const size_t helpers = std::min(threads - 1, tasks - 1);
    EnsureWorkers(helpers);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      tickets_ = helpers;
      active_ = 1;  // The caller.
    }
    cv_work_.notify_all();
    t_in_parallel_region = true;
    Execute(job);
    t_in_parallel_region = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      tickets_ = 0;  // Late-waking workers must not join a finished job.
      --active_;
      cv_done_.wait(lock, [&] { return active_ == 0; });
      job_ = nullptr;
    }
  }

 private:
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t tasks = 0;
    std::atomic<size_t> next{0};
  };

  static void Execute(Job& job) {
    for (;;) {
      size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.tasks) break;
      (*job.fn)(i);
    }
  }

  void EnsureWorkers(size_t want) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (workers_.size() < want) {
      const size_t index = workers_.size();
      workers_.emplace_back([this, index] { WorkerLoop(index); });
    }
  }

  void WorkerLoop(size_t index) {
    obs::SetCurrentThreadName("tabular-worker-" + std::to_string(index));
    t_in_parallel_region = true;
    for (;;) {
      Job* job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_work_.wait(lock, [&] { return tickets_ > 0; });
        --tickets_;
        ++active_;
        job = job_;
      }
      Execute(*job);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--active_ == 0) cv_done_.notify_one();
      }
    }
  }

  std::mutex run_mutex_;  // One job at a time; concurrent callers queue.

  std::mutex mutex_;  // Guards everything below.
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  size_t tickets_ = 0;  // Worker join permits for the current job.
  size_t active_ = 0;   // Threads currently inside Execute().
};

}  // namespace

bool ParseThreadCount(const char* text, size_t* out) {
  uint64_t v = 0;
  if (!ParseLimit(text, &v) || v == 0) return false;
  *out = static_cast<size_t>(v);
  return true;
}

size_t Threads() {
  size_t n = g_thread_override.load(std::memory_order_relaxed);
  if (n > 0) return n;
  static const size_t resolved = DefaultThreads();
  return resolved;
}

void SetThreads(size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

ScopedThreads::ScopedThreads(size_t n)
    : previous_(g_thread_override.load(std::memory_order_relaxed)) {
  SetThreads(n);
}

ScopedThreads::~ScopedThreads() { SetThreads(previous_); }

void ParallelFor(size_t n, size_t min_parallel,
                 const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t threads = Threads();
  if (threads <= 1 || n < min_parallel || t_in_parallel_region) {
    if (threads > 1 && n < min_parallel && !t_in_parallel_region) {
      static obs::Counter& cutoff_hits =
          obs::GetCounter("exec.parallel.serial_cutoff_hits");
      cutoff_hits.Add(1);
    }
    fn(0, n);
    return;
  }
  // A few chunks per thread smooths skewed per-range costs; the partition
  // is a pure function of (n, chunks), so results stay deterministic.
  const size_t chunks = std::min(n, threads * 4);
  static obs::Counter& forks = obs::GetCounter("exec.parallel.forks");
  static obs::Counter& tasks = obs::GetCounter("exec.parallel.tasks");
  static obs::Gauge& threads_gauge = obs::GetGauge("exec.threads");
  forks.Add(1);
  tasks.Add(chunks);
  threads_gauge.Set(static_cast<int64_t>(threads));
  TABULAR_TRACE_SPAN("parallel_for", "exec");
  ThreadPool::Instance().Run(threads, chunks, [&](size_t c) {
    TABULAR_TRACE_SPAN("parallel_for.range", "exec");
    // SplitPoint, not n * c / chunks: the product wraps for n near
    // SIZE_MAX and would hand workers garbage (even inverted) ranges.
    const size_t begin = SplitPoint(n, chunks, c);
    const size_t end = SplitPoint(n, chunks, c + 1);
    if (begin < end) fn(begin, end);
  });
}

}  // namespace tabular::exec
