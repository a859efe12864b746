#ifndef TABULAR_LANG_OPTIMIZER_H_
#define TABULAR_LANG_OPTIMIZER_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/shape.h"
#include "lang/ast.h"

namespace tabular::lang {

/// Program optimization — flagged by the paper (§5: "Query (and program)
/// optimization is an important issue") and essential for the generated
/// programs of the Theorem 4.1 / 4.5 / GOOD translations, which produce
/// long chains of single-use scratch tables.
///
/// Both passes are *semantics-preserving with respect to a declared output
/// set*: the database restricted to `live_out` names after the optimized
/// run equals (table for table) the database restricted to those names
/// after the original run.

/// Removes assignments whose target can never influence a `live_out`
/// table: a store to T is dead if no later statement reads T before T is
/// fully reassigned, and T is not in `live_out`. Conservative around
/// wildcards (a wildcard argument reads every table, a wildcard target
/// writes every table) and around while loops (the body's reads stay live
/// across the whole loop).
Program EliminateDeadStores(const Program& program,
                            const core::SymbolSet& live_out);

/// Inserts `drop T;` after the last statement referencing each scratch
/// table T accepted by `is_scratch`, so translated programs do not leave
/// their intermediates behind (smaller database, faster wildcard scans,
/// cheaper symbol sweeps). Only top-level positions are considered; names
/// referenced anywhere inside a while loop are dropped after the loop at
/// the earliest.
Program InsertScratchDrops(
    const Program& program,
    const std::function<bool(core::Symbol)>& is_scratch);

/// True for the scratch-name prefixes used by the built-in translators
/// ("fo_tmp", "fo_const", "sl_", "good_").
bool IsTranslatorScratchName(core::Symbol name);

/// The standard pipeline for translated programs: dead-store elimination
/// against `live_out`, then scratch drops for translator temporaries.
Program OptimizeTranslated(const Program& program,
                           const core::SymbolSet& live_out);

// -- The translation-validated rewrite engine (PR 5) -------------------------

/// One attempted rewrite, for reports and the `--optimize` diff.
struct RewriteRecord {
  std::string rule;      ///< rule id, e.g. "fuse-projects"
  std::string path;      ///< 1-based top-level statement number
  std::string before;    ///< surface text of the replaced statement(s)
  std::string after;     ///< surface text of the replacement ("" = removed)
  bool certified = false;
  std::string reason;    ///< validator failure explanation when rejected
  /// Validator sync point where refinement first broke ("0" = entry state,
  /// a statement count, or "exit"); empty when certified or unvalidated.
  std::string divergent_at;
  /// The static total work of the current plan and of the plan this
  /// rewrite would produce (`analysis::CostReport::total_work`;
  /// `CardInterval::kInf` = unbounded), and whether the candidate lost on
  /// cost alone — it would have produced a strictly more expensive plan
  /// and was never sent to the validator.
  uint64_t cost_before = 0;
  uint64_t cost_after = 0;
  bool cost_rejected = false;
};

/// One rewrite attempt as a single-line JSON object for machine-readable
/// reports (`tabular_lint --json --optimize`): file, rewrite (rule name),
/// path, the verdict ("certified"/"rejected"/"cost-rejected"/"trusted" —
/// the last when validation was off), before/after texts, both plan
/// costs, and — for rejections — the validator's reason and divergent_at
/// sync point, so CI logs explain every `rewrites_rejected` count.
std::string RenderRewriteJson(const RewriteRecord& r, std::string_view file);

struct OptimizeStats {
  size_t applied = 0;   ///< rewrites kept (certified, or trusted)
  size_t rejected = 0;  ///< rewrites the validator refused
  /// Candidates dropped because the plan they produce is statically more
  /// expensive than the current one (never counted in `rejected` — losing
  /// on cost is not a soundness failure).
  size_t cost_rejected = 0;
  std::vector<RewriteRecord> records;
};

struct OptimizerOptions {
  /// Certify every candidate rewrite with the translation validator
  /// (`analysis::ValidateTranslation`); uncertified candidates are dropped
  /// and counted in the `optimizer.rewrites_rejected` metric. Turning this
  /// off keeps every candidate on the rules' own soundness arguments.
  bool validate_rewrites = true;
};

/// The rule-based rewrite engine. Candidates are proposed by a fixed rule
/// catalog (see DESIGN.md §9.3) justified by the must-set and cardinality
/// domains — no-op elimination, drop/assignment reordering, fusion of
/// adjacent total restructuring operations, and ≤1-iteration while
/// unrolling. Each round ranks every candidate by the static cost of the
/// plan it produces (`analysis::CompareCost`) and applies the cheapest one
/// that does not make the plan more expensive and that the validator
/// certifies: the rewritten program's abstract state refines the
/// original's at every untouched statement. Candidates that would make the
/// plan strictly more expensive are dropped (`cost_rejected`). `initial`
/// abstracts the database the program will run against
/// (`AbstractDatabase::FromDatabase(db)` in the interpreter, `::Unknown()`
/// when the schema is open — fewer rules fire). A candidate is analyzed,
/// costed and validated only from its window to the first statement where
/// its state equals the current plan's (`analysis::AnalyzeSplice`); the
/// `optimizer.statements_analyzed` counter adds up the statements the
/// engine analyzes.
Program OptimizeProgram(const Program& program,
                        const analysis::AbstractDatabase& initial,
                        const OptimizerOptions& options = {},
                        OptimizeStats* stats = nullptr);

/// The same, for a caller that has already analyzed `program` from
/// `initial` (`analysis::AnalyzeProgram` with the default fixpoint cap, as
/// the server's compile and the interpreter do to gate on errors): the
/// engine starts from `analyzed` instead of analyzing its input again.
Program OptimizeProgram(const Program& program,
                        const analysis::AbstractDatabase& initial,
                        analysis::AnalysisResult analyzed,
                        const OptimizerOptions& options,
                        OptimizeStats* stats = nullptr);

}  // namespace tabular::lang

#endif  // TABULAR_LANG_OPTIMIZER_H_
