#ifndef TABULAR_ANALYSIS_ANALYZER_H_
#define TABULAR_ANALYSIS_ANALYZER_H_

#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/shape.h"
#include "core/symbol.h"
#include "lang/ast.h"

namespace tabular::analysis {

/// Static semantic analysis for tabular-algebra programs.
///
/// A forward dataflow pass infers a `TableShape` for every table name
/// through every statement (while bodies iterate to a fixpoint over the
/// join of all iteration counts), and a diagnostic engine reports:
///
///   * arity errors (parameter/argument counts per operation)       [error]
///   * operator contract violations the kernels reject at runtime —
///     GROUP/MERGE/SPLIT/COLLAPSE empty or overlapping sets, by/on
///     attributes provably outside the inferred region  [error when the
///     statement certainly executes, warning otherwise]
///   * use-before-definition of argument tables (the statement is a
///     no-op under the interpreter's semantics)                   [warning]
///   * parameters provably outside the region for the total operators
///     (rename source, project set, σ attributes, cleanup/purge sets)
///                                                                [warning]
///   * union/difference operands with provably disjoint column-attribute
///     sets, product operands with colliding column attributes    [warning]
///   * dead stores: a target fully overwritten before any read    [warning]
///   * while bodies that are unreachable because the guard provably
///     matches no table                                           [warning]
///   * a non-termination heuristic: the guard is never written or
///     dropped inside the loop body                               [warning]
///
/// Shape sets are may-supersets, so "provably" above always means an
/// *absence* argument — membership in an inferred set never triggers a
/// diagnostic by itself. Errors additionally require that the statement
/// certainly executes: it is at the top level (not inside a while body)
/// and all of its argument tables certainly exist.
struct AnalyzerOptions {
  /// Emit dead-store warnings (the fact computation itself is always
  /// available through `DeadStoreKeepMask`).
  bool check_dead_stores = true;
  /// Iteration cap for the while-body fixpoint before widening to ⊤.
  size_t max_fixpoint_iterations = 64;
};

/// The analyzer's states along one run of a statement list.
struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;
  /// `before[i]`: the abstract database before top-level statement i.
  std::vector<AbstractDatabase> before;
  /// The abstract database after the whole program.
  AbstractDatabase final_state;

  /// The state after the first `k` top-level statements: the entry state
  /// for k = 0, `final_state` for k = before.size() (the validator's sync
  /// points).
  const AbstractDatabase& After(size_t k) const {
    return k < before.size() ? before[k] : final_state;
  }
};

/// Analyzes `program` starting from `initial` (use
/// `AbstractDatabase::FromDatabase` for a concrete database,
/// `::Unknown()` when the schema is open, `::Empty()` for a fresh run).
AnalysisResult AnalyzeProgram(const lang::Program& program,
                              AbstractDatabase initial,
                              const AnalyzerOptions& options = {});

// -- State entry points (shared with the cost model and lang::Optimizer) ----
//
// A while body is analyzed in one of two modes, and the two must stay
// apart. The diagnostic pass treats each body statement as possibly not
// executed, so its loop exit state covers runs that stop anywhere. Cost and
// while-unrolling ask about one *complete* run of the body, where a
// statement that drains a table certainly does so before the next one
// reads it. The modes differ only in that flag; the widening fixpoint
// itself is the same code.

/// One complete run of `statements` from `entry`: every statement
/// executes, as at the top level of a program (nested while bodies keep
/// the diagnostic mode). Returns the state before each statement and at
/// exit, without diagnostics. The top-level states of `AnalyzeProgram`
/// are exactly this run of the program's statements.
AnalysisResult AnalyzeCompleteRun(
    const std::vector<lang::Statement>& statements, AbstractDatabase entry);

/// The top-level states of a program that replaces the window
/// [index, index + consumed) of a base program with `inserted` statements,
/// held as a delta over the base's states. `span` holds the spliced
/// program's states after statements index + 1, ..., index + span.size():
/// the ones its analysis derived that may differ from the base's. Every
/// other state is the base's own object. Up to `index` the statements
/// and the entry state are the base's; past the span, the state equalled
/// the base's aligned state (the sync point), and analysis is a forward
/// function of the state.
struct SplicedRun {
  size_t index = 0;
  size_t consumed = 0;
  size_t inserted = 0;
  std::vector<AbstractDatabase> span;
  /// Statements the splice ran through the transfer function: the
  /// replacement plus the base statements up to the sync point.
  size_t analyzed = 0;

  /// The base statement at position `k` of the spliced program, for k at
  /// or past the end of the replacement.
  size_t BaseIndex(size_t k) const { return k - inserted + consumed; }
  /// The spliced program's state after its first `k` statements.
  const AbstractDatabase& After(const AnalysisResult& base, size_t k) const;
};

/// Analyzes the splice of `replacement` into the window [index,
/// index + consumed) of `base_statements`, whose complete run is `base`:
/// from `base.After(index)`, it runs the replacement and then the base's
/// statements after the window, and stops at the first state equal to
/// the base's aligned state.
SplicedRun AnalyzeSplice(const std::vector<lang::Statement>& base_statements,
                         const AnalysisResult& base, size_t index,
                         size_t consumed,
                         const std::vector<lang::Statement>& replacement);

/// The spliced program's complete run, without diagnostics: `base`'s
/// prefix and suffix states and the span's are moved into it.
AnalysisResult ApplySplice(AnalysisResult base, SplicedRun run);

/// The invariant at the head of a while loop with body `body` entered in
/// `entry`: the widening fixpoint of the join over 0, 1, 2, ... complete
/// body runs, ⊤ past the iteration cap. Carries no guard refinement.
AbstractDatabase LoopInvariant(const std::vector<lang::Statement>& body,
                               const AbstractDatabase& entry);

// -- Guard facts (shared with lang::Optimizer) ------------------------------

/// The interpreter enters a while body when some table named in the guard
/// has at least one data row. These two predicates are the optimizer's
/// cardinality-domain justification for loop elimination / unrolling; both
/// return false for a universal (wildcard) guard.
///
/// Definitely false: every guard name is provably absent, or provably has
/// zero carriers or zero data rows.
bool GuardDefinitelyFalse(const AbstractDatabase& state,
                          const core::SymbolSet& guard, bool guard_universal);

/// Certainly true: some guard name certainly exists with at least one
/// carrier and at least one data row on every run.
bool GuardCertainlyTrue(const AbstractDatabase& state,
                        const core::SymbolSet& guard);

// -- Name-flow facts (shared with lang::Optimizer) --------------------------

/// Collects the literal names `p` can denote; sets `*universal` when it
/// may denote arbitrary names (wildcards, entry pairs). The negative list
/// only narrows, so ignoring it stays conservative.
void CollectParamNames(const lang::Param& p, core::SymbolSet* out,
                       bool* universal);

/// The table names a statement reads (argument positions and while
/// conditions only — attribute parameters never name tables).
void CollectStatementReads(const lang::Statement& s, core::SymbolSet* out,
                           bool* universal);

/// Every table name a statement mentions (reads, writes, drops, and the
/// same inside while bodies); sets `*universal` on wildcard or pair use.
void CollectStatementNames(const lang::Statement& s, core::SymbolSet* out,
                           bool* universal);

/// Every table name the program mentions (reads, writes, drops).
core::SymbolSet AllTableNames(const lang::Program& program);

/// The dead-store fact behind the analyzer's dead-store warnings:
/// `mask[i]` is false when top-level statement i is an assignment whose
/// target is fully reassigned, or dropped, before any later statement
/// reads it. Conservative around wildcards (a wildcard argument reads
/// every table) and while loops (the body's reads stay live across the
/// whole loop).
std::vector<bool> DeadStoreKeepMask(const lang::Program& program);

}  // namespace tabular::analysis

#endif  // TABULAR_ANALYSIS_ANALYZER_H_
