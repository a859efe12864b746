#include "server/program_cache.h"

#include <map>
#include <string>
#include <unordered_set>
#include <utility>

#include "analysis/analyzer.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tabular::server {

using analysis::AbstractDatabase;
using analysis::CardInterval;
using analysis::TableShape;

namespace {

/// =0 stays exact, ≥1 widens to [1,∞), anything else to ⊤ — the three
/// classes a fingerprint distinguishes. Always a superset of the input, so
/// the coarsened shape admits every database it fingerprints.
CardInterval Coarsen(const CardInterval& c) {
  if (c.hi == 0) return CardInterval::Exact(0);
  if (c.lo >= 1) return CardInterval::Range(1, CardInterval::kInf);
  return CardInterval::Top();
}

/// log₂ size class of a pool's data-row count: 0 for empty, otherwise
/// floor(log₂ rows) + 1, so counts within one class differ by at most a
/// factor of two.
uint64_t RowBucket(uint64_t rows) {
  uint64_t bucket = 0;
  while (rows != 0) {
    ++bucket;
    rows >>= 1;
  }
  return bucket;
}

/// `shape` with every cardinality interval coarsened (see CoarsenedSchema).
TableShape Coarsened(TableShape shape) {
  shape.row_card = Coarsen(shape.row_card);
  shape.col_card = Coarsen(shape.col_card);
  shape.count = Coarsen(shape.count);
  return shape;
}

AbstractDatabase Coarsened(AbstractDatabase exact) {
  for (auto& [name, shape] : exact.tables) shape = Coarsened(std::move(shape));
  return exact;
}

/// `SchemaImage::fingerprint` of the database whose exact image is `exact`.
std::string Fingerprint(const AbstractDatabase& exact) {
  // The coarse classes carry analysis soundness (see CoarsenedSchema);
  // the appended row-size bucket only splits cache entries so that the
  // admission cost estimate attached to an entry is computed against a
  // database within one doubling of every pool it is reused for.
  std::string out;
  for (const auto& [name, shape] : exact.tables) {
    const TableShape coarse = Coarsened(shape);
    out += name.ToString();
    out += '=';
    out += coarse.ToString();
    out += coarse.certain ? "!" : "?";
    out += '#';
    out += std::to_string(
        RowBucket(CardInterval::SatMul(shape.count.hi, shape.row_card.hi)));
    out += '\n';
  }
  return out;
}

}  // namespace

SchemaImage::SchemaImage(const core::TabularDatabase& db)
    : exact(AbstractDatabase::FromDatabase(db)),
      fingerprint(Fingerprint(exact)) {}

AbstractDatabase CoarsenedSchema(const core::TabularDatabase& db) {
  return Coarsened(AbstractDatabase::FromDatabase(db));
}

std::string SchemaFingerprint(const core::TabularDatabase& db) {
  return SchemaImage(db).fingerprint;
}

OutputPeaks CreatedTablePeaks(const core::TabularDatabase& before,
                              const core::TabularDatabase& after) {
  std::unordered_set<const core::Table*> kept;
  for (const core::Table& t : before.tables()) kept.insert(&t);
  std::map<core::Symbol, OutputPeaks, core::SymbolLess> pools;
  for (const core::Table& t : after.tables()) {
    if (kept.contains(&t)) continue;
    OutputPeaks& pool = pools[t.name()];
    pool.rows += t.height();
    pool.bytes += static_cast<uint64_t>(t.height()) * t.width() *
                  analysis::kCostHandleBytes;
  }
  OutputPeaks peaks;
  for (const auto& [name, pool] : pools) {
    peaks.rows = std::max(peaks.rows, pool.rows);
    peaks.bytes = std::max(peaks.bytes, pool.bytes);
  }
  return peaks;
}

ProgramCache::ProgramCache(Options options) : options_(options) {}

std::shared_ptr<const CompiledProgram> ProgramCache::Compile(
    const std::string& text, const SchemaImage& image) const {
  TABULAR_TRACE_SPAN("program_cache.compile", "server");
  auto compiled = std::make_shared<CompiledProgram>();
  Result<lang::Program> parsed = lang::ParseProgram(text);
  if (!parsed.ok()) {
    compiled->front_end = parsed.status();
    return compiled;
  }
  compiled->parsed = std::move(*parsed);

  // Analyze against the coarsened image (see CoarsenedSchema): any error it
  // reports is definite for *every* database with this fingerprint, so the
  // rejection may be cached alongside positive compiles.
  const AbstractDatabase coarse = Coarsened(image.exact);
  analysis::AnalysisResult analyzed =
      analysis::AnalyzeProgram(compiled->parsed, coarse);
  for (const analysis::Diagnostic& d : analyzed.diagnostics) {
    if (d.severity == analysis::Severity::kError) {
      compiled->front_end = Status::InvalidArgument(
          "statement " + d.path + ": " + d.message);
      return compiled;
    }
    compiled->warnings.push_back(d);
  }

  // The optimizer starts from this analysis instead of repeating it.
  lang::OptimizerOptions opt;
  opt.validate_rewrites = options_.validate_rewrites;
  compiled->optimized =
      lang::OptimizeProgram(compiled->parsed, coarse, std::move(analyzed),
                            opt, &compiled->optimize_stats);

  // Cost the final plan against the *exact* image of the compiling
  // snapshot: the coarsened image's ≥1 row classes have no finite upper
  // bound, so admission-grade estimates need the real shapes. Databases
  // that reuse this entry match the compiling one per pool up to the
  // fingerprint's row-size class (one doubling); the observed feedback on
  // CompiledProgram covers the rest.
  compiled->cost = analysis::EstimateCost(compiled->optimized, image.exact);
  return compiled;
}

std::shared_ptr<const CompiledProgram> ProgramCache::Get(
    const std::string& text, const core::TabularDatabase& db, bool* hit) {
  return Get(text, SchemaImage(db), hit);
}

std::shared_ptr<const CompiledProgram> ProgramCache::Get(
    const std::string& text, const SchemaImage& image, bool* hit) {
  static obs::Counter& hits = obs::GetCounter("server.program_cache.hits");
  static obs::Counter& misses =
      obs::GetCounter("server.program_cache.misses");
  static obs::Counter& evictions =
      obs::GetCounter("server.program_cache.evictions");
  static obs::Gauge& size_gauge = obs::GetGauge("server.program_cache.size");

  if (options_.capacity == 0) {
    misses.Add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++misses_;
    }
    if (hit != nullptr) *hit = false;
    return Compile(text, image);
  }

  const std::string key = image.fingerprint + '\0' + text;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      ++hits_;
      hits.Add(1);
      if (hit != nullptr) *hit = true;
      return it->second.program;
    }
  }

  // Compile outside the lock: a slow front-end must not stall sessions
  // hitting other entries. Two sessions racing on the same new key both
  // compile; the loser's insert finds the key present and reuses it.
  std::shared_ptr<const CompiledProgram> compiled = Compile(text, image);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    ++hits_;
    hits.Add(1);
    if (hit != nullptr) *hit = true;
    return it->second.program;
  }
  ++misses_;
  misses.Add(1);
  if (hit != nullptr) *hit = false;
  lru_.push_front(key);
  entries_[key] = Entry{compiled, lru_.begin()};
  while (entries_.size() > options_.capacity) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    evictions.Add(1);
  }
  size_gauge.Set(static_cast<int64_t>(entries_.size()));
  return compiled;
}

size_t ProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t ProgramCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ProgramCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t ProgramCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace tabular::server
