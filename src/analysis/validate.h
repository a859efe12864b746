#ifndef TABULAR_ANALYSIS_VALIDATE_H_
#define TABULAR_ANALYSIS_VALIDATE_H_

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/shape.h"
#include "lang/ast.h"

namespace tabular::analysis {

/// Translation validation for program rewrites (the optimizer's safety
/// net). Instead of trusting each rewrite rule's hand-written soundness
/// argument, the validator compares the analyzer's states of the original
/// and the rewritten program, both run from a common initial
/// `AbstractDatabase`, and certifies the rewrite only when the rewritten
/// program's abstract state *refines* the original's at every
/// synchronization point:
///
///   * at program exit, and
///   * after every top-level statement outside the rewritten region
///     (statements the rewrite did not touch — the longest common
///     structurally-equal prefix and suffix of the two statement lists).
///
/// The rewritten program is a splice of the original (`SplicedRun`), so
/// only the sync points whose rewritten state the splice re-derived are
/// compared: at every other one, the rewritten state is the original's
/// own state object at that sync point, and refinement is reflexive.
///
/// Refinement `R ⊑ O` means every concrete database `R` admits is admitted
/// by `O`: per table name, may-sets are subsets, must-sets are supersets,
/// certainty is preserved, and all three cardinality intervals are
/// contained. Since the abstract semantics over-approximates the concrete
/// one, certification implies the rewritten program cannot reach any
/// database the original provably could not — the per-rewrite equivalence
/// proof of ISSUE 5 (byte-level equality is separately exercised by tests).

struct ValidationReport {
  bool certified = false;
  /// On failure: the first top-level statement count (of the *rewritten*
  /// program) after which refinement broke — "0" is the shared entry
  /// state, "exit" the final state. Empty when certified.
  std::string divergent_path;
  /// Human-readable failure explanation (empty when certified).
  std::string reason;
};

/// True when shape `r` refines shape `o` (γ(r) ⊆ γ(o) for the pool of
/// tables carrying one name). `why`, if non-null, receives the first
/// violated component on failure.
bool Refines(const TableShape& r, const TableShape& o, std::string* why);

/// Database-level refinement: per-name shape refinement over the union of
/// both name sets, and `r.top ⇒ o.top`.
bool Refines(const AbstractDatabase& r, const AbstractDatabase& o,
             std::string* why);

/// Checks refinement at every sync point (see file comment) of the
/// program that splices `replacement` into `original` as `rewritten`
/// describes (`AnalyzeSplice` over `original_states`, the complete run of
/// `original`).
ValidationReport ValidateTranslation(
    const lang::Program& original, const AnalysisResult& original_states,
    const std::vector<lang::Statement>& replacement,
    const SplicedRun& rewritten);

/// Structural equality of statements (used to find the untouched
/// prefix/suffix; implemented here so the analysis library depends only on
/// lang headers).
bool StatementsEqual(const lang::Statement& a, const lang::Statement& b);

}  // namespace tabular::analysis

#endif  // TABULAR_ANALYSIS_VALIDATE_H_
