#ifndef TABULAR_LANG_INTERPRETER_H_
#define TABULAR_LANG_INTERPRETER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "algebra/tagging.h"
#include "analysis/diagnostics.h"
#include "core/database.h"
#include "core/status.h"
#include "lang/ast.h"
#include "lang/optimizer.h"
#include "obs/profile.h"

namespace tabular::lang {

using tabular::Status;
using core::TabularDatabase;

/// Resource guards for program evaluation; while-programs are Turing
/// complete (paper Theorem 4.4), so runs are bounded.
struct InterpreterOptions {
  /// Maximum iterations of any single while loop.
  size_t max_while_iterations = 10000;
  /// Maximum assignment-statement instantiations over the whole run.
  size_t max_steps = 1000000;
  /// Maximum symbol handles the database and the statement being executed
  /// may hold at once: Σ (height+1)·(width+1) over the tables, so a table
  /// that grows with no data columns counts too. Checked after every
  /// kernel instantiation, and before a PRODUCT, GROUP, MERGE or SETNEW
  /// allocates its output, whose size the kernel's own formula gives;
  /// past it the run fails with ResourceExhausted.
  size_t max_stored_handles = size_t{1} << 28;
  /// Collect a per-statement execution profile during Run (wall time,
  /// instantiation counts, input/output sizes); read it back with
  /// Interpreter::profile() and render with obs::RenderProfile.
  bool profile = false;
  /// Statically analyze the program against the database's schema before
  /// executing anything. Error diagnostics abort the run with
  /// InvalidArgument *before any table is mutated*; warnings go to
  /// `on_diagnostic` and do not block execution.
  bool analyze_first = true;
  /// Receives every diagnostic `analyze_first` produces (warnings and
  /// errors), in statement order. May be empty.
  std::function<void(const analysis::Diagnostic&)> on_diagnostic;
  /// Run the translation-validated rewrite engine (`OptimizeProgram`) over
  /// the program before executing it, starting from the abstract image of
  /// the concrete database. Every kept rewrite is certified by the
  /// translation validator. Off by default.
  bool optimize = false;
};

/// Executes tabular-algebra programs against a database (paper §3.6).
///
/// Statement semantics: every assignment is instantiated for each
/// combination of tables whose names match its argument parameters
/// (wildcards bind to table names and are shared across the statement);
/// each instantiation runs the operation kernel; the produced tables then
/// *replace* the tables previously carrying the target names. A `while R`
/// loop repeats its body while some table named R has a data row.
class Interpreter {
 public:
  explicit Interpreter(InterpreterOptions options = InterpreterOptions())
      : options_(options) {}

  /// Runs `program` against `db` in place. With `analyze_first` (the
  /// default) statically-detected errors reject the program before any
  /// mutation; runtime errors leave partial results of already-executed
  /// statements, and the Status message then carries a
  /// "(partial results committed through statement N)" suffix naming the
  /// last statement whose results were committed.
  Status Run(const Program& program, TabularDatabase* db);

  /// Total assignment instantiations executed by the last Run.
  size_t steps_executed() const { return steps_; }

  /// Rewrite-engine report of the last Run (empty unless
  /// `options.optimize` was set).
  const OptimizeStats& optimize_stats() const { return optimize_stats_; }

  /// Per-statement profile of the last Run. Only populated when
  /// `options.profile` was set; one child per top-level statement,
  /// labeled `[<position>] <statement text>` (while bodies nest).
  const obs::ProfileNode& profile() const { return profile_root_; }

 private:
  Status RunStatements(const std::vector<Statement>& statements,
                       TabularDatabase* db, const std::string& path_prefix,
                       obs::ProfileNode* parent);
  Status RunAssignment(const Assignment& stmt, const std::string& path,
                       TabularDatabase* db, obs::ProfileNode* node);
  Status RunWhile(const WhileLoop& loop, TabularDatabase* db,
                  const std::string& path, obs::ProfileNode* node);

  /// The ResourceExhausted error once the database plus the `staged`
  /// handles of the statement in flight would exceed the budget.
  Status CheckHandleBudget(uint64_t staged) const;

  InterpreterOptions options_;
  size_t steps_ = 0;
  /// Handles the database holds (see `max_stored_handles`).
  uint64_t stored_handles_ = 0;
  OptimizeStats optimize_stats_;
  obs::ProfileNode profile_root_;
  /// Path of the last statement whose results were committed to the
  /// database during the current Run (empty: nothing committed yet).
  std::string last_commit_path_;
};

/// Convenience: parse-free single-program execution with default options.
Status RunProgram(const Program& program, TabularDatabase* db);

/// EXPLAIN: the statement tree of `program` as a label-only profile (no
/// execution, no stats). Render with
/// `obs::RenderProfile(node, {.show_times = false})`.
obs::ProfileNode Explain(const Program& program);

/// EXPLAIN with static cost annotations: every costed statement's label
/// gains the cost model's bounds against `initial` (`rows<=`, `bytes<=`,
/// `work<=`; ∞ = statically unbounded) and the root label carries the
/// program totals — the same numbers tabulard's admission control checks.
/// See `analysis::EstimateCost`.
obs::ProfileNode Explain(const Program& program,
                         const analysis::AbstractDatabase& initial);

}  // namespace tabular::lang

#endif  // TABULAR_LANG_INTERPRETER_H_
