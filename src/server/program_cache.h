#ifndef TABULAR_SERVER_PROGRAM_CACHE_H_
#define TABULAR_SERVER_PROGRAM_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/cost.h"
#include "analysis/diagnostics.h"
#include "analysis/shape.h"
#include "core/database.h"
#include "core/status.h"
#include "lang/ast.h"
#include "lang/optimizer.h"

namespace tabular::server {

/// The front-end result for one (program text, schema shape) pair: parsed,
/// analyzed, and optimizer-certified once, then reused by every session
/// whose database matches the shape — the analogue of a prepared statement
/// plus MariaDB's table-definition cache.
struct CompiledProgram {
  /// Non-OK when the parse failed or the analyzer proved the program
  /// misbehaves on *every* database of this shape. Executing such an entry
  /// returns this status without running anything (negative caching).
  Status front_end;
  lang::Program parsed;
  /// The validator-certified rewritten form (== `parsed` when the engine
  /// found nothing).
  lang::Program optimized;
  lang::OptimizeStats optimize_stats;
  /// Analyzer warnings (errors land in `front_end`).
  std::vector<analysis::Diagnostic> warnings;

  /// Static cost summary of `optimized` against the *exact* shapes of the
  /// database that first compiled this entry (not the coarsened cache
  /// image, whose [1,∞) row classes would make every estimate ∞). Later
  /// databases sharing the fingerprint agree with the compiling one per
  /// pool up to the fingerprint's row-size class (one doubling — see
  /// `SchemaFingerprint`), and the observed feedback below corrects the
  /// residual drift. Admission control is therefore a pure lookup on the
  /// hot path.
  analysis::CostReport cost;

  /// Adaptive feedback: the largest `CreatedTablePeaks` any successful,
  /// admission-controlled run of this entry has produced (0 = never
  /// observed). Written lock-free by session threads after execution,
  /// read by admission.
  mutable std::atomic<uint64_t> observed_rows{0};
  mutable std::atomic<uint64_t> observed_bytes{0};

  void RecordObservedRows(uint64_t rows) const {
    RecordMax(&observed_rows, rows);
  }
  void RecordObservedBytes(uint64_t bytes) const {
    RecordMax(&observed_bytes, bytes);
  }

  /// The row bound admission compares against `--max-est-rows`: the
  /// larger of the static peak and the largest observed run, so a static
  /// bound that went stale (the database grew within its fingerprint's
  /// size class) is corrected by what was actually seen. An unbounded
  /// static verdict stays unbounded.
  uint64_t EffectiveRowEstimate() const {
    return std::max(cost.peak_rows,
                    observed_rows.load(std::memory_order_relaxed));
  }

  /// The same for `--max-est-bytes`, against the observed byte footprint.
  uint64_t EffectiveByteEstimate() const {
    return std::max(cost.peak_bytes,
                    observed_bytes.load(std::memory_order_relaxed));
  }

  const lang::Program& executable() const { return optimized; }

 private:
  static void RecordMax(std::atomic<uint64_t>* slot, uint64_t v) {
    uint64_t seen = slot->load(std::memory_order_relaxed);
    while (v > seen &&
           !slot->compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
};

/// The output of a run, as admission observes it: per table name, the data
/// rows and the byte footprint (rows × data columns × `kCostHandleBytes`)
/// of the tables in `after` that are not `before`'s own objects, and the
/// largest of each over the names. A table the run did not write is still
/// the pinned snapshot's own object in the run's private copy (copies of a
/// database share their tables), so resident tables, and pools named only
/// by statements that never ran, count for nothing. A program's static
/// `cost.peak_rows` and `peak_bytes` bound these peaks.
struct OutputPeaks {
  uint64_t rows = 0;
  uint64_t bytes = 0;
};
OutputPeaks CreatedTablePeaks(const core::TabularDatabase& before,
                              const core::TabularDatabase& after);

/// What the cache reads of one database, derived once: its exact abstract
/// image and the fingerprint rendered from it. Immutable once built.
/// `tabulard` builds one per published version, on the version's first
/// request, and shares it among every session pinning that version (see
/// `Snapshot::Image`).
struct SchemaImage {
  explicit SchemaImage(const core::TabularDatabase& db);

  /// `AbstractDatabase::FromDatabase(db)`: a miss analyzes and optimizes
  /// against it coarsened (see `CoarsenedSchema`) and costs against it.
  analysis::AbstractDatabase exact;
  /// Deterministic rendering of `exact` coarsened plus each pool's
  /// row-count size class (log₂ bucket) — the schema half of the cache
  /// key. Stable across runs (symbol order, not interning order). The
  /// size class keeps the cached cost estimate honest: databases sharing
  /// an entry can differ per pool by at most one doubling, so an admission
  /// estimate computed against the first-compiling database is stale by a
  /// bounded factor (and the observed feedback on `CompiledProgram` closes
  /// the rest).
  std::string fingerprint;
};

/// The abstract image a cached compile is certified against: the exact
/// shapes of `db` with every cardinality interval coarsened to one of
/// three classes — =0, ≥1, or unknown. Two databases with equal
/// `SchemaFingerprint` coarsen to the *same* abstraction, and each is
/// admitted by it (its exact intervals lie within the coarsened ones), so
/// analysis errors and certified rewrites proved against the coarsened
/// image are sound for every database that hits the cache entry.
analysis::AbstractDatabase CoarsenedSchema(const core::TabularDatabase& db);

/// `SchemaImage(db).fingerprint`, from a one-off image.
std::string SchemaFingerprint(const core::TabularDatabase& db);

/// Thread-safe LRU cache of compiled programs keyed by
/// (program text, `SchemaImage::fingerprint`). Hits and misses feed the
/// `server.program_cache.{hits,misses,evictions}` counters and the
/// `server.program_cache.size` gauge.
class ProgramCache {
 public:
  struct Options {
    size_t capacity = 128;        ///< entries; 0 disables caching
    bool validate_rewrites = true;
  };

  explicit ProgramCache(Options options);
  ProgramCache() : ProgramCache(Options()) {}

  /// Looks up (or compiles and inserts) the entry for `text` against the
  /// database whose schema image is `image`. A hit reads only the image's
  /// fingerprint; a miss compiles against the image's shapes. The returned
  /// pointer is immutable and safe to use concurrently with further cache
  /// operations. `hit`, if non-null, is set to whether the entry was
  /// served from cache.
  std::shared_ptr<const CompiledProgram> Get(const std::string& text,
                                             const SchemaImage& image,
                                             bool* hit = nullptr);

  /// `Get(text, SchemaImage(db), hit)`, on a one-off image, for callers
  /// that hold no published version.
  std::shared_ptr<const CompiledProgram> Get(const std::string& text,
                                             const core::TabularDatabase& db,
                                             bool* hit = nullptr);

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

 private:
  /// Compiles `text` against the database whose schema image is `image`.
  std::shared_ptr<const CompiledProgram> Compile(
      const std::string& text, const SchemaImage& image) const;

  Options options_;
  mutable std::mutex mu_;
  /// MRU-first key list; the map holds iterators into it.
  std::list<std::string> lru_;
  struct Entry {
    std::shared_ptr<const CompiledProgram> program;
    std::list<std::string>::iterator lru_pos;
  };
  std::map<std::string, Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace tabular::server

#endif  // TABULAR_SERVER_PROGRAM_CACHE_H_
