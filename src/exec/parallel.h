#ifndef TABULAR_EXEC_PARALLEL_H_
#define TABULAR_EXEC_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <functional>

namespace tabular::exec {

/// Number of threads parallel kernels may use (including the calling
/// thread). Resolution order: the last `SetThreads` value, else the
/// `TABULAR_THREADS` environment variable, else
/// `std::thread::hardware_concurrency()`; always ≥ 1. A set, non-empty
/// `TABULAR_THREADS` that `ParseThreadCount` rejects is ignored with one
/// warning on stderr.
size_t Threads();

/// Parses a thread count the way `TABULAR_THREADS` is read: a whole
/// positive decimal number, digits only ("4x", "0", "-2" and "many" fail).
bool ParseThreadCount(const char* text, size_t* out);

/// Overrides the thread count for subsequent kernels; 0 restores the
/// default resolution. Not meant to be called concurrently with running
/// kernels.
void SetThreads(size_t n);

/// RAII thread-count override, for benches and tests.
class ScopedThreads {
 public:
  explicit ScopedThreads(size_t n);
  ~ScopedThreads();
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  size_t previous_;
};

/// Runs `fn(begin, end)` over a static partition of [0, n) using the
/// process-wide worker pool plus the calling thread.
///
/// Determinism contract: the partition into contiguous disjoint ranges
/// depends only on `n` and `Threads()`, never on scheduling, so a kernel
/// whose range invocations write disjoint, position-determined output slots
/// produces byte-identical results to the serial path at any thread count.
///
/// Stays serial (one inline `fn(0, n)` call) when `n < min_parallel`, when
/// `Threads() == 1`, or when already inside a parallel region (no nested
/// parallelism). `fn` must not throw.
void ParallelFor(size_t n, size_t min_parallel,
                 const std::function<void(size_t, size_t)>& fn);

/// Default `min_parallel` for cell-filling kernels: below this many output
/// cells the fork/join overhead dominates any speedup.
inline constexpr size_t kDefaultSerialCutoff = 1 << 14;

/// Boundary `i` of the balanced partition of [0, n) into `parts` contiguous
/// ranges: range `i` is [SplitPoint(n, parts, i), SplitPoint(n, parts, i+1)),
/// with the first n % parts ranges one element longer. Equivalent to the
/// naive `n * i / parts` but overflow-safe for any n ≤ SIZE_MAX: the naive
/// product wraps once n exceeds SIZE_MAX / parts, silently collapsing or
/// reordering range boundaries.
inline constexpr size_t SplitPoint(size_t n, size_t parts, size_t i) {
  return i * (n / parts) + (i < n % parts ? i : n % parts);
}

/// Sorts [first, last) with `comp`: chunk-sorts a power-of-two static
/// partition in parallel, then pairwise `inplace_merge` passes (parallel
/// across disjoint pairs within each pass). Not stable. Small or
/// single-threaded inputs fall through to `std::sort`.
template <class RandomIt, class Compare>
void ParallelSort(RandomIt first, RandomIt last, Compare comp) {
  const size_t n = static_cast<size_t>(last - first);
  size_t chunks = 1;
  while (chunks < Threads() && chunks < 64) chunks <<= 1;
  if (chunks <= 1 || n < kDefaultSerialCutoff) {
    std::sort(first, last, comp);
    return;
  }
  const auto bound = [n, chunks](size_t c) { return SplitPoint(n, chunks, c); };
  ParallelFor(chunks, 1, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      std::sort(first + bound(c), first + bound(c + 1), comp);
    }
  });
  for (size_t width = 1; width < chunks; width <<= 1) {
    ParallelFor(chunks / (2 * width), 1, [&](size_t gb, size_t ge) {
      for (size_t g = gb; g < ge; ++g) {
        const size_t lo = 2 * width * g;
        std::inplace_merge(first + bound(lo), first + bound(lo + width),
                           first + bound(lo + 2 * width), comp);
      }
    });
  }
}

}  // namespace tabular::exec

#endif  // TABULAR_EXEC_PARALLEL_H_
