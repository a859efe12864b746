#ifndef TABULAR_ANALYSIS_COST_H_
#define TABULAR_ANALYSIS_COST_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/shape.h"
#include "lang/ast.h"

namespace tabular::analysis {

/// Static cost/resource-bound analysis over the abstract-shape domain.
///
/// `EstimateCost` folds over the analyzer's states (no transfer function
/// or fixpoint of its own) and derives, per statement:
///
///   * `out_rows`  — an upper bound on the total data rows the written
///     pool can hold after the statement (carriers × per-table rows);
///   * `out_bytes` — the corresponding storage bound, rows × data columns
///     × `kCostHandleBytes` (every cell is one interned symbol handle);
///   * `work`      — an abstract-time bound: the operator family's weight
///     × (rows in + rows out + 1), saturating.
///
/// `CardInterval::kInf` in any component means *statically unbounded*.
/// A loop body is costed over one complete run of it
/// (`AnalyzeCompleteRun`): from the entry state when the guard provably
/// fails after that run, else from the widened loop invariant
/// (`LoopInvariant`). In the second case the trip count is unbounded, so
/// every statement in the body reports unbounded `work` (its row/byte
/// bounds can still be finite — a loop can spin forever over a bounded
/// table). The program-level verdict is `unbounded()` when any statement
/// has an unbounded row, byte, or work bound; `unbounded_path` then names
/// the first offender, which is what tabulard's admission rejection
/// reports to the client.

/// Bytes per stored cell: one 32-bit interned-symbol handle (the columnar
/// chunk layout of src/columnar).
inline constexpr uint64_t kCostHandleBytes = 4;

/// Per-operator-family work weight: abstract cost units per row handled.
/// Calibrated once against the obs OpCounters (`algebra.<op>.{calls,
/// rows_in,rows_out}`) and bench wall-clock on the seed corpus — see
/// DESIGN.md §13 for the calibration table. Relabel-only operators are
/// cheapest; restructuring (GROUP/MERGE/SPLIT/COLLAPSE), row-subsumption
/// (CLEANUP), and the exponential SETNEW are the heavy families.
uint64_t CostWeight(lang::OpKind op);

/// "∞" for the kInf sentinel, the decimal value otherwise.
std::string FormatCost(uint64_t v);

/// One statement's bounds. `path` uses the PR 3 statement-path format
/// ("2", "2.1" for while bodies); drop statements cost constant work and
/// produce nothing; a while statement itself gets no entry — its body
/// statements do (dead bodies, whose guard is provably false at entry,
/// are skipped entirely).
struct StatementCost {
  std::string path;
  lang::OpKind op = lang::OpKind::kUnion;  ///< meaningless for drops
  bool is_drop = false;
  /// Statement sits inside a while loop with no static trip-count bound
  /// (its `work` is therefore kInf).
  bool in_unbounded_loop = false;
  uint64_t out_rows = 0;   ///< pool data-row bound after the statement
  uint64_t out_cols = 0;   ///< per-table data-column bound
  uint64_t out_bytes = 0;  ///< out_rows × out_cols × kCostHandleBytes
  uint64_t work = 0;       ///< weight × (rows_in + rows_out + 1)

  bool unbounded() const {
    return out_rows == CardInterval::kInf ||
           out_bytes == CardInterval::kInf || work == CardInterval::kInf;
  }
};

/// Whole-program cost summary. Peaks are maxima over statements; total
/// work is the saturating sum.
struct CostReport {
  std::vector<StatementCost> statements;
  uint64_t peak_rows = 0;
  uint64_t peak_bytes = 0;
  uint64_t total_work = 0;
  std::string peak_rows_path;   ///< statement achieving peak_rows
  std::string peak_bytes_path;  ///< statement achieving peak_bytes
  /// First statement with an unbounded row/byte/work bound; empty when the
  /// whole program is statically bounded.
  std::string unbounded_path;

  bool unbounded() const { return !unbounded_path.empty(); }
};

/// Costs `program` starting from `initial` (same conventions as
/// `AnalyzeProgram`: `FromDatabase` for a concrete database, `Unknown()`
/// for an open schema — note an open schema makes every read unbounded,
/// so admission-grade estimates need a concrete or empty initial state).
CostReport EstimateCost(const lang::Program& program,
                        const AbstractDatabase& initial);

/// Costs `program` over `analysis`, the analyzer's states of its top-level
/// statements (`AnalyzeProgram` or `AnalyzeCompleteRun` of it).
CostReport EstimateCost(const lang::Program& program,
                        const AnalysisResult& analysis);

/// What plan selection ranks by, for a whole program or for any run of
/// its top-level statements: total work, peak bytes and the number of
/// cost entries. Runs concatenate with `+` (saturating sum, maximum,
/// sum), so a plan that keeps one summary per top-level statement costs a
/// rewrite of one window as a delta over the statements it re-analyzed.
struct CostSummary {
  uint64_t total_work = 0;
  uint64_t peak_bytes = 0;
  size_t entries = 0;

  friend CostSummary operator+(const CostSummary& a, const CostSummary& b) {
    return CostSummary{CardInterval::SatAdd(a.total_work, b.total_work),
                       std::max(a.peak_bytes, b.peak_bytes),
                       a.entries + b.entries};
  }
};

/// The summary of top-level statement `index` of a program whose states
/// before and after it are `before` and `after`: the entries
/// `EstimateCost` reports for it, its while body's included.
CostSummary CostOfStatement(const lang::Statement& statement, size_t index,
                            const AbstractDatabase& before,
                            const AbstractDatabase& after);

/// Plan-selection order: lexicographic on (total_work, peak_bytes,
/// entries). Returns <0 when `a` is strictly cheaper, 0 on ties, >0
/// otherwise. Unbounded work saturates to kInf, so any bounded plan beats
/// every unbounded one.
int CompareCost(const CostSummary& a, const CostSummary& b);

}  // namespace tabular::analysis

#endif  // TABULAR_ANALYSIS_COST_H_
