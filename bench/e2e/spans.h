#ifndef TABULAR_BENCH_E2E_SPANS_H_
#define TABULAR_BENCH_E2E_SPANS_H_

// Span harvesting for the traced passes of bench_e2e, and the sample
// statistics every pass reports.
//
// The obs ring (obs/trace.h) holds 2^16 events and overwrites the oldest on
// wrap, and its only export is Chrome trace JSON. The traced passes
// therefore run in windows that stop before the ring fills; after each
// window the ring is exported, parsed back into `Span`s here, analysed,
// and cleared. Nothing is lost to wrap (obs.trace_dropped stays 0) however
// long the pass runs.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tabular::bench {

/// One completed span as exported by `obs::Tracing::ToJson`.
struct Span {
  std::string name;
  std::string category;
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  std::map<std::string, uint64_t> args;
  /// Index of the innermost enclosing span on the same thread, or -1.
  int64_t parent = -1;
  /// Indices of the spans whose parent this is.
  std::vector<size_t> children;

  uint64_t end_ns() const { return start_ns + dur_ns; }
  uint64_t Arg(const std::string& key) const {
    auto it = args.find(key);
    return it == args.end() ? 0 : it->second;
  }
};

/// Parses the "X" (complete) events of a Chrome trace JSON document written
/// by `obs::Tracing::ToJson` and links each span to its parent: the
/// innermost span on the same thread whose interval contains it. Returns
/// false on malformed input.
bool ParseTrace(std::string_view json, std::vector<Span>* spans);

/// Sum of the durations of `spans[i]`'s direct children whose name is in
/// `names`.
uint64_t ChildNs(const std::vector<Span>& spans, size_t i,
                 const std::vector<std::string>& names);

/// Raw samples of one quantity; percentiles are exact nearest-rank values
/// over the retained samples, never interpolated from buckets. Past `cap`
/// samples it keeps a uniform random subset of that size (Algorithm R),
/// so a bench thread's memory does not grow with the throughput it
/// measures.
class Samples {
 public:
  explicit Samples(size_t cap = SIZE_MAX) : cap_(cap) {}

  void Add(double v) {
    ++seen_;
    sorted_ = false;
    if (values_.size() < cap_) {
      values_.push_back(v);
      return;
    }
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t slot = (rng_ >> 11) % seen_;
    if (slot < cap_) values_[slot] = v;
  }
  /// Adds `other`'s retained samples (the bench merges per-thread samples
  /// of equally loaded threads, so no reweighting).
  void Append(const Samples& other);
  /// Samples retained.
  size_t size() const { return values_.size(); }
  /// Nearest-rank p-quantile (p in [0, 1]); 0 for no samples.
  double Percentile(double p) const;

 private:
  size_t cap_;
  uint64_t seen_ = 0;
  uint64_t rng_ = 0x9E3779B97F4A7C15ull;
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Mean of a quantity without keeping its samples.
struct RunningMean {
  double sum = 0;
  uint64_t n = 0;

  void Add(double v) {
    sum += v;
    ++n;
  }
  void Append(const RunningMean& o) {
    sum += o.sum;
    n += o.n;
  }
  double Mean() const { return n == 0 ? 0 : sum / static_cast<double>(n); }
};

}  // namespace tabular::bench

#endif  // TABULAR_BENCH_E2E_SPANS_H_
