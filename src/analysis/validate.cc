#include "analysis/validate.h"

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

namespace tabular::analysis {

using core::Symbol;
using core::SymbolSet;
using lang::Assignment;
using lang::DropStatement;
using lang::Param;
using lang::ParamItem;
using lang::Program;
using lang::Statement;
using lang::WhileLoop;

// -- Structural statement equality -------------------------------------------

namespace {

bool ParamsEqual(const Param& a, const Param& b);

bool ItemsEqual(const ParamItem& a, const ParamItem& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ParamItem::Kind::kSymbol:
      return a.symbol == b.symbol;
    case ParamItem::Kind::kNull:
      return true;
    case ParamItem::Kind::kWildcard:
      return a.wildcard_id == b.wildcard_id;
    case ParamItem::Kind::kPair:
      if ((a.row == nullptr) != (b.row == nullptr)) return false;
      if ((a.col == nullptr) != (b.col == nullptr)) return false;
      if (a.row != nullptr && !ParamsEqual(*a.row, *b.row)) return false;
      if (a.col != nullptr && !ParamsEqual(*a.col, *b.col)) return false;
      return true;
  }
  return false;
}

bool ItemListsEqual(const std::vector<ParamItem>& a,
                    const std::vector<ParamItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ItemsEqual(a[i], b[i])) return false;
  }
  return true;
}

bool ParamsEqual(const Param& a, const Param& b) {
  return ItemListsEqual(a.positive, b.positive) &&
         ItemListsEqual(a.negative, b.negative);
}

bool ParamListsEqual(const std::vector<Param>& a, const std::vector<Param>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ParamsEqual(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

bool StatementsEqual(const Statement& a, const Statement& b) {
  if (a.node.index() != b.node.index()) return false;
  if (const auto* x = std::get_if<Assignment>(&a.node)) {
    const auto& y = std::get<Assignment>(b.node);
    return x->op == y.op && ParamsEqual(x->target, y.target) &&
           ParamListsEqual(x->params, y.params) &&
           ParamListsEqual(x->args, y.args);
  }
  if (const auto* x = std::get_if<DropStatement>(&a.node)) {
    return ParamsEqual(x->target, std::get<DropStatement>(b.node).target);
  }
  const auto& x = std::get<WhileLoop>(a.node);
  const auto& y = std::get<WhileLoop>(b.node);
  if (!ParamsEqual(x.condition, y.condition)) return false;
  if (x.body.size() != y.body.size()) return false;
  for (size_t i = 0; i < x.body.size(); ++i) {
    if (!StatementsEqual(x.body[i], y.body[i])) return false;
  }
  return true;
}

// -- Refinement --------------------------------------------------------------

bool Refines(const TableShape& r, const TableShape& o, std::string* why) {
  auto fail = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  // A provably-empty pool on the rewritten side refines any original shape
  // that admits absence: the per-table facts hold vacuously.
  if (r.count.DefinitelyZero()) {
    if (o.certain || !o.count.Contains(0)) {
      return fail("rewritten side is provably absent but the original "
                  "certainly has a table");
    }
    return true;
  }
  if (!r.cols.SubsetOf(o.cols)) {
    return fail("column may-set " + r.cols.ToString() +
                " is not contained in " + o.cols.ToString());
  }
  if (!r.rows.SubsetOf(o.rows)) {
    return fail("row may-set " + r.rows.ToString() + " is not contained in " +
                o.rows.ToString());
  }
  if (!r.must_cols.Covers(o.must_cols)) {
    return fail("must-columns " + r.must_cols.ToString() +
                " lost guarantee " + o.must_cols.ToString());
  }
  if (!r.must_rows.Covers(o.must_rows)) {
    return fail("must-rows " + r.must_rows.ToString() + " lost guarantee " +
                o.must_rows.ToString());
  }
  if (o.certain && !r.certain) {
    return fail("existence is no longer certain");
  }
  if (!r.row_card.WithinOf(o.row_card)) {
    return fail("data-row count " + r.row_card.ToString() +
                " is not contained in " + o.row_card.ToString());
  }
  if (!r.col_card.WithinOf(o.col_card)) {
    return fail("data-column count " + r.col_card.ToString() +
                " is not contained in " + o.col_card.ToString());
  }
  if (!r.count.WithinOf(o.count)) {
    return fail("table count " + r.count.ToString() +
                " is not contained in " + o.count.ToString());
  }
  return true;
}

bool Refines(const AbstractDatabase& r, const AbstractDatabase& o,
             std::string* why) {
  if (r.top && !o.top) {
    if (why != nullptr) {
      *why = "rewritten program may write arbitrary names, original "
             "provably cannot";
    }
    return false;
  }
  SymbolSet names;
  for (const auto& [nm, shape] : r.tables) names.insert(nm);
  for (const auto& [nm, shape] : o.tables) names.insert(nm);
  for (Symbol nm : names) {
    std::string detail;
    if (!Refines(r.ShapeOf(nm), o.ShapeOf(nm), &detail)) {
      if (why != nullptr) {
        *why = "table '" + nm.ToString() + "': " + detail;
      }
      return false;
    }
  }
  return true;
}

// -- The validator -----------------------------------------------------------

ValidationReport ValidateTranslation(const Program& original,
                                     const AnalysisResult& original_states,
                                     const std::vector<Statement>& replacement,
                                     const SplicedRun& rewritten) {
  const std::vector<Statement>& orig = original.statements;
  const size_t n = orig.size();
  const size_t index = rewritten.index;
  const size_t consumed = rewritten.consumed;
  const size_t rn = n - consumed + replacement.size();
  auto rewr = [&](size_t k) -> const Statement& {
    if (k < index) return orig[k];
    if (k - index < replacement.size()) return replacement[k - index];
    return orig[rewritten.BaseIndex(k)];
  };

  // The rewrite touched one contiguous top-level region; everything in the
  // longest common structurally-equal prefix and suffix is a sync point
  // where the abstract states must stay in refinement. The splice's own
  // prefix and suffix are equal by construction; the scans only extend
  // them over equal statements next to the window.
  size_t prefix = index;
  while (prefix < n && prefix < rn &&
         StatementsEqual(orig[prefix], rewr(prefix))) {
    ++prefix;
  }
  const size_t suffix_limit = std::min(n, rn) - prefix;
  size_t suffix = std::min(n - index - consumed, suffix_limit);
  while (suffix < suffix_limit &&
         StatementsEqual(orig[n - 1 - suffix], rewr(rn - 1 - suffix))) {
    ++suffix;
  }

  ValidationReport report;
  // Prefix sync points, then the rewritten region's exit, then each suffix
  // statement. Before the window and past the re-analyzed span the
  // rewritten states are the original's own objects, so the scan starts
  // at the window and ends where neither the span nor the equal-statement
  // prefix reaches.
  const size_t last =
      std::min(rn, std::max(prefix, index + rewritten.span.size()));
  for (size_t k = index; k <= last; ++k) {
    const bool in_region = k > prefix && k < rn - suffix;
    if (in_region) continue;  // no corresponding original state
    // Exit always maps to the original's exit — even when the rewritten
    // program is a strict prefix of the original (k ≤ prefix there too).
    const size_t ok = k == rn      ? n
                      : k <= prefix ? k
                                    : n - (rn - k);
    const AbstractDatabase& r = rewritten.After(original_states, k);
    const AbstractDatabase& o = original_states.After(ok);
    if (&r == &o) continue;  // refinement is reflexive
    std::string why;
    if (!Refines(r, o, &why)) {
      report.certified = false;
      report.divergent_path = k == rn ? "exit" : std::to_string(k);
      report.reason =
          "after " + std::to_string(k) + " rewritten statement(s) (original "
          "statement " + std::to_string(ok) + "): " + why;
      return report;
    }
  }
  report.certified = true;
  return report;
}

}  // namespace tabular::analysis
