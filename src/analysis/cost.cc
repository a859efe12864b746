#include "analysis/cost.h"

#include <algorithm>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/analyzer.h"
#include "core/symbol.h"

namespace tabular::analysis {

using core::Symbol;
using core::SymbolSet;
using lang::Assignment;
using lang::DropStatement;
using lang::OpKind;
using lang::Program;
using lang::Statement;
using lang::WhileLoop;

uint64_t CostWeight(OpKind op) {
  switch (op) {
    // Relabel-only: no data row is touched.
    case OpKind::kRename:
    case OpKind::kTranspose:
    case OpKind::kSwitch:
      return 1;
    // One linear pass over the rows.
    case OpKind::kSelect:
    case OpKind::kSelectConst:
    case OpKind::kProject:
    case OpKind::kPurge:
    case OpKind::kTupleNew:
      return 2;
    // Concatenation plus a dedup pass.
    case OpKind::kUnion:
      return 3;
    // Pairwise row subsumption across the two operands.
    case OpKind::kDifference:
    case OpKind::kIntersection:
      return 4;
    case OpKind::kProduct:
      return 6;
    // Hash-restructuring families.
    case OpKind::kGroup:
    case OpKind::kMerge:
    case OpKind::kSplit:
    case OpKind::kCollapse:
      return 8;
    // Quadratic row-subsumption within one table.
    case OpKind::kCleanUp:
      return 10;
    // Exponential subset expansion.
    case OpKind::kSetNew:
      return 12;
  }
  return 4;
}

std::string FormatCost(uint64_t v) {
  return v == CardInterval::kInf ? "∞" : std::to_string(v);
}

namespace {

constexpr uint64_t kInf = CardInterval::kInf;

/// Upper bound on the total data rows of one pool: carriers × per-table
/// rows.
uint64_t PoolRows(const TableShape& s) {
  return CardInterval::SatMul(s.count.hi, s.row_card.hi);
}

/// Rows reachable through parameter `p` at `state`: the pool-row sum over
/// the literal names it can denote; ∞ for wildcard/pair parameters.
uint64_t ParamRows(const lang::Param& p, const AbstractDatabase& state) {
  SymbolSet names;
  bool universal = false;
  CollectParamNames(p, &names, &universal);
  if (universal) return kInf;
  uint64_t rows = 0;
  for (Symbol n : names) {
    rows = CardInterval::SatAdd(rows, PoolRows(state.ShapeOf(n)));
  }
  return rows;
}

class Walker {
 public:
  explicit Walker(CostReport* report) : report_(report) {}

  /// Costs `stmts` over `run`, the analyzer's states along one run of
  /// them; paths are `prefix`-qualified.
  void Walk(const std::vector<Statement>& stmts, const AnalysisResult& run,
            const std::string& prefix, bool unbounded_loop) {
    for (size_t i = 0; i < stmts.size(); ++i) {
      CostStatement(stmts[i], run.before[i], run.After(i + 1),
                    prefix.empty() ? std::to_string(i + 1)
                                   : prefix + "." + std::to_string(i + 1),
                    unbounded_loop);
    }
  }

  /// Costs statement `s` at `path`, whose states before and after it are
  /// `state` and `post`.
  void CostStatement(const Statement& s, const AbstractDatabase& state,
                     const AbstractDatabase& post, const std::string& path,
                     bool unbounded_loop) {
    if (const auto* a = std::get_if<Assignment>(&s.node)) {
      CostAssignment(*a, state, post, path, unbounded_loop);
    } else if (std::get_if<DropStatement>(&s.node)) {
      // A drop is a metadata update: constant work, nothing produced.
      StatementCost c;
      c.path = path;
      c.is_drop = true;
      c.in_unbounded_loop = unbounded_loop;
      c.work = unbounded_loop ? kInf : 1;
      Push(std::move(c));
    } else {
      CostWhile(std::get<WhileLoop>(s.node), state, path, unbounded_loop);
    }
  }

 private:
  void CostAssignment(const Assignment& a, const AbstractDatabase& state,
                      const AbstractDatabase& post, const std::string& path,
                      bool unbounded_loop) {
    StatementCost c;
    c.path = path;
    c.op = a.op;
    c.in_unbounded_loop = unbounded_loop;
    uint64_t rows_in = 0;
    for (const lang::Param& arg : a.args) {
      rows_in = CardInterval::SatAdd(rows_in, ParamRows(arg, state));
    }
    c.out_rows = ParamRows(a.target, post);
    SymbolSet names;
    bool universal = false;
    CollectParamNames(a.target, &names, &universal);
    if (universal) {
      c.out_cols = kInf;
    } else {
      for (Symbol n : names) {
        c.out_cols = std::max(c.out_cols, post.ShapeOf(n).col_card.hi);
      }
    }
    c.out_bytes = CardInterval::SatMul(
        c.out_rows, CardInterval::SatMul(c.out_cols, kCostHandleBytes));
    c.work = unbounded_loop
                 ? kInf
                 : CardInterval::SatMul(
                       CostWeight(a.op),
                       CardInterval::SatAdd(
                           CardInterval::SatAdd(rows_in, c.out_rows), 1));
    Push(std::move(c));
  }

  /// Costs the body of a loop entered in `entry`. A dead body (guard
  /// provably false at entry) runs zero times: no cost, no entries.
  void CostWhile(const WhileLoop& loop, const AbstractDatabase& entry,
                 const std::string& path, bool unbounded_loop) {
    SymbolSet guard;
    bool universal = false;
    CollectParamNames(loop.condition, &guard, &universal);
    if (GuardDefinitelyFalse(entry, guard, universal)) return;
    // One complete body run separates "at most one iteration" (the guard
    // provably fails afterwards) from an unbounded trip count.
    const AnalysisResult once = AnalyzeCompleteRun(loop.body, entry);
    if (GuardDefinitelyFalse(once.final_state, guard, universal)) {
      Walk(loop.body, once, path, unbounded_loop);
      return;
    }
    // Otherwise cost one body run from the widened loop invariant.
    Walk(loop.body,
         AnalyzeCompleteRun(loop.body, LoopInvariant(loop.body, entry)), path,
         /*unbounded_loop=*/true);
  }

  void Push(StatementCost cost) {
    StatementCost& c = report_->statements.emplace_back(std::move(cost));
    if (report_->peak_rows_path.empty() || c.out_rows > report_->peak_rows) {
      report_->peak_rows = c.out_rows;
      report_->peak_rows_path = c.path;
    }
    if (report_->peak_bytes_path.empty() ||
        c.out_bytes > report_->peak_bytes) {
      report_->peak_bytes = c.out_bytes;
      report_->peak_bytes_path = c.path;
    }
    report_->total_work = CardInterval::SatAdd(report_->total_work, c.work);
    if (report_->unbounded_path.empty() && c.unbounded()) {
      report_->unbounded_path = c.path;
    }
  }

  CostReport* report_;
};

}  // namespace

CostReport EstimateCost(const Program& program,
                        const AbstractDatabase& initial) {
  return EstimateCost(program, AnalyzeCompleteRun(program.statements, initial));
}

CostReport EstimateCost(const Program& program,
                        const AnalysisResult& analysis) {
  CostReport report;
  Walker(&report).Walk(program.statements, analysis, /*prefix=*/"",
                       /*unbounded_loop=*/false);
  return report;
}

CostSummary CostOfStatement(const Statement& statement, size_t index,
                            const AbstractDatabase& before,
                            const AbstractDatabase& after) {
  CostReport report;
  Walker(&report).CostStatement(statement, before, after,
                                std::to_string(index + 1),
                                /*unbounded_loop=*/false);
  return CostSummary{report.total_work, report.peak_bytes,
                     report.statements.size()};
}

int CompareCost(const CostSummary& a, const CostSummary& b) {
  if (a.total_work != b.total_work) {
    return a.total_work < b.total_work ? -1 : 1;
  }
  if (a.peak_bytes != b.peak_bytes) {
    return a.peak_bytes < b.peak_bytes ? -1 : 1;
  }
  if (a.entries != b.entries) return a.entries < b.entries ? -1 : 1;
  return 0;
}

}  // namespace tabular::analysis
