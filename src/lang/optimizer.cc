#include "lang/optimizer.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cost.h"
#include "analysis/diagnostics.h"
#include "analysis/validate.h"
#include "obs/metrics.h"

namespace tabular::lang {

using core::Symbol;
using core::SymbolSet;

// The name-flow collectors live in the analysis library now (the static
// analyzer's dead-store diagnostics share them).
using analysis::CollectParamNames;
using analysis::CollectStatementNames;
using analysis::CollectStatementReads;

Program EliminateDeadStores(const Program& program,
                            const SymbolSet& live_out) {
  std::vector<bool> keep = analysis::DeadStoreKeepMask(program, live_out);
  Program out;
  for (size_t i = 0; i < program.statements.size(); ++i) {
    if (keep[i]) out.statements.push_back(program.statements[i]);
  }
  return out;
}

bool IsTranslatorScratchName(Symbol name) {
  if (!name.is_name()) return false;
  const std::string& t = name.text();
  return t.rfind("fo_tmp", 0) == 0 || t.rfind("fo_const", 0) == 0 ||
         t.rfind("sl_", 0) == 0 || t.rfind("good_", 0) == 0;
}

namespace {

/// True if the list's first reference to `name` fully (re)writes it — the
/// condition under which a drop at the end of a while body is safe across
/// iterations.
bool FirstReferenceIsWrite(const std::vector<Statement>& list, Symbol name) {
  for (const Statement& s : list) {
    SymbolSet names;
    bool universal = false;
    CollectStatementNames(s, &names, &universal);
    if (universal) return false;
    if (!names.contains(name)) continue;
    const auto* a = std::get_if<Assignment>(&s.node);
    if (a == nullptr) return false;
    SymbolSet writes;
    bool uw = false;
    CollectParamNames(a->target, &writes, &uw);
    if (uw || writes.size() != 1 || *writes.begin() != name) return false;
    SymbolSet reads;
    bool ur = false;
    CollectStatementReads(s, &reads, &ur);
    return !ur && !reads.contains(name);
  }
  return false;
}

/// Inserts drops into `list` for scratch names not in `forbidden`, placing
/// each after its last reference; recurses into while bodies for names
/// confined to a single loop (when iteration-safe). Returns false if a
/// universal (wildcard) table reference makes lifetimes unboundable.
bool InsertDropsInList(std::vector<Statement>* list,
                       const std::function<bool(Symbol)>& is_scratch,
                       const SymbolSet& forbidden) {
  std::map<Symbol, std::vector<size_t>, core::SymbolLess> refs;
  for (size_t i = 0; i < list->size(); ++i) {
    SymbolSet names;
    bool universal = false;
    CollectStatementNames((*list)[i], &names, &universal);
    if (universal) return false;
    for (Symbol nm : names) refs[nm].push_back(i);
  }

  // Names fully handled inside a loop body need no drop at this level.
  SymbolSet handled_inside;
  for (size_t i = 0; i < list->size(); ++i) {
    auto* w = std::get_if<WhileLoop>(&(*list)[i].node);
    if (w == nullptr) continue;
    SymbolSet body_forbidden = forbidden;
    bool cond_universal = false;
    CollectParamNames(w->condition, &body_forbidden, &cond_universal);
    if (cond_universal) return false;
    for (const auto& [nm, idxs] : refs) {
      bool confined = idxs.size() == 1 && idxs[0] == i;
      // The loop condition is read after each body pass and may never be
      // dropped inside (it is already in body_forbidden).
      if (!confined || !is_scratch(nm) || forbidden.contains(nm) ||
          body_forbidden.contains(nm)) {
        body_forbidden.insert(nm);
        continue;
      }
      if (!FirstReferenceIsWrite(w->body, nm)) {
        body_forbidden.insert(nm);
        continue;
      }
      handled_inside.insert(nm);
    }
    if (!InsertDropsInList(&w->body, is_scratch, body_forbidden)) {
      return false;
    }
  }

  std::vector<Statement> out;
  for (size_t i = 0; i < list->size(); ++i) {
    out.push_back(std::move((*list)[i]));
    for (const auto& [nm, idxs] : refs) {
      if (idxs.back() != i || !is_scratch(nm) || forbidden.contains(nm) ||
          handled_inside.contains(nm)) {
        continue;
      }
      DropStatement drop;
      drop.target = Param::Literal(nm);
      Statement s;
      s.node = std::move(drop);
      out.push_back(std::move(s));
    }
  }
  *list = std::move(out);
  return true;
}

}  // namespace

Program InsertScratchDrops(
    const Program& program,
    const std::function<bool(Symbol)>& is_scratch) {
  Program out = program;
  if (!InsertDropsInList(&out.statements, is_scratch, SymbolSet{})) {
    return program;  // wildcard table references: lifetimes unboundable
  }
  return out;
}

Program OptimizeTranslated(const Program& program,
                           const SymbolSet& live_out) {
  Program trimmed = EliminateDeadStores(program, live_out);
  return InsertScratchDrops(trimmed, IsTranslatorScratchName);
}

// -- The translation-validated rewrite engine --------------------------------

namespace {

using analysis::AbstractDatabase;
using analysis::TableShape;

/// The single literal table name of a parameter, if that is all it is.
std::optional<Symbol> LitName(const Param& p) {
  if (p.positive.size() == 1 && p.negative.empty() &&
      p.positive[0].kind == ParamItem::Kind::kSymbol) {
    return p.positive[0].symbol;
  }
  return std::nullopt;
}

/// The literal symbol set of a parameter with no negative items; nullopt
/// when any item is a wildcard or pair.
std::optional<SymbolSet> LitSet(const Param& p) {
  if (!p.negative.empty()) return std::nullopt;
  SymbolSet out;
  for (const ParamItem& it : p.positive) {
    switch (it.kind) {
      case ParamItem::Kind::kSymbol:
        out.insert(it.symbol);
        break;
      case ParamItem::Kind::kNull:
        out.insert(Symbol::Null());
        break;
      default:
        return std::nullopt;
    }
  }
  return out;
}

std::optional<Symbol> LitSingleton(const Param& p) {
  std::optional<SymbolSet> s = LitSet(p);
  if (s.has_value() && s->size() == 1) return *s->begin();
  return std::nullopt;
}

/// True when the assignment provably cannot fail at runtime: a total
/// kernel (the §3.1/§3.4 operations plus transpose), every parameter a
/// statically valid literal, every argument a literal name. The partial
/// restructuring kernels (GROUP/MERGE/SPLIT/COLLAPSE/SWITCH) and the
/// tagging operations (fresh-symbol generation reads the whole database)
/// are excluded.
bool StaticallyTotal(const Assignment& a) {
  for (const Param& arg : a.args) {
    if (!LitName(arg).has_value()) return false;
  }
  switch (a.op) {
    case OpKind::kUnion:
    case OpKind::kDifference:
    case OpKind::kIntersection:
    case OpKind::kProduct:
    case OpKind::kTranspose:
      return true;
    case OpKind::kProject:
      return LitSet(a.params[0]).has_value();
    case OpKind::kRename:
    case OpKind::kSelect:
    case OpKind::kSelectConst:
      return LitSingleton(a.params[0]).has_value() &&
             LitSingleton(a.params[1]).has_value();
    case OpKind::kCleanUp:
    case OpKind::kPurge:
      return LitSet(a.params[0]).has_value() &&
             LitSet(a.params[1]).has_value();
    default:
      return false;
  }
}

/// Extends `StaticallyTotal` to the partial restructuring kernels GROUP
/// and MERGE when the abstract state discharges their runtime contracts
/// for every carrier on every run: literal non-empty parameter sets
/// (disjoint for GROUP), every GROUP 'by' attribute certainly a column,
/// every MERGE 'by' attribute certainly a row, and at least one 'on'
/// attribute certainly a column. A may-absent argument stays total — the
/// statement is then a no-op, not a failure.
bool ProvablyTotal(const Assignment& a, const AbstractDatabase& before) {
  if (StaticallyTotal(a)) return true;
  if (a.op != OpKind::kGroup && a.op != OpKind::kMerge) return false;
  if (a.args.size() != 1) return false;
  std::optional<Symbol> src = LitName(a.args[0]);
  if (!src.has_value()) return false;
  std::optional<SymbolSet> s0 = LitSet(a.params[0]);
  std::optional<SymbolSet> s1 = LitSet(a.params[1]);
  if (!s0.has_value() || !s1.has_value() || s0->empty() || s1->empty()) {
    return false;
  }
  const TableShape in = before.ShapeOf(*src);
  if (a.op == OpKind::kGroup) {
    // group by s0 on s1.
    for (Symbol b : *s0) {
      if (s1->contains(b)) return false;
      if (!in.must_cols.CertainlyContains(b)) return false;
    }
    for (Symbol o : *s1) {
      if (in.must_cols.CertainlyContains(o)) return true;
    }
    return false;
  }
  // merge on s0 by s1.
  bool on_labels_column = false;
  for (Symbol o : *s0) on_labels_column |= in.must_cols.CertainlyContains(o);
  if (!on_labels_column) return false;
  for (Symbol b : *s1) {
    if (!in.must_rows.CertainlyContains(b)) return false;
  }
  return true;
}

/// A proposed rewrite of the top-level statement window [index,
/// index+consumed) into `replacement`.
struct Candidate {
  const char* rule;
  size_t index;
  size_t consumed;
  std::vector<Statement> replacement;
};

std::string WindowText(const std::vector<Statement>& ss, size_t index,
                       size_t consumed) {
  std::string out;
  for (size_t i = 0; i < consumed; ++i) {
    if (!out.empty()) out += " ";
    out += ss[index + i].ToString();
  }
  return out;
}

std::string Fingerprint(const Candidate& c,
                        const std::vector<Statement>& ss) {
  return std::string(c.rule) + "|" + WindowText(ss, c.index, c.consumed);
}

/// `T <- select A A (T)` where A is certainly a column of every T: weak
/// equality is reflexive, so every data row is kept and the statement is
/// the identity on the pool.
std::optional<Candidate> MatchSelectIdentity(const std::vector<Statement>& ss,
                                             size_t i,
                                             const AbstractDatabase& before) {
  const auto* a = std::get_if<Assignment>(&ss[i].node);
  if (a == nullptr || a->op != OpKind::kSelect) return std::nullopt;
  std::optional<Symbol> target = LitName(a->target);
  if (!target.has_value() || a->args.size() != 1 ||
      LitName(a->args[0]) != target) {
    return std::nullopt;
  }
  std::optional<Symbol> lhs = LitSingleton(a->params[0]);
  if (!lhs.has_value() || lhs != LitSingleton(a->params[1])) {
    return std::nullopt;
  }
  if (!before.ShapeOf(*target).must_cols.CertainlyContains(*lhs)) {
    return std::nullopt;
  }
  return Candidate{"select-identity", i, 1, {}};
}

/// `T <- project P (T)` where P covers every column attribute T may
/// carry: all columns are kept, identity on the pool. This rule is
/// deliberately *optimistic* when the column set is ⊤ (open schema): the
/// candidate is proposed anyway and the translation validator vetoes it —
/// the engine's division of labor is "rules propose, the validator
/// disposes", so gates only need to be precise enough to keep the
/// candidate stream short.
std::optional<Candidate> MatchProjectSuperset(const std::vector<Statement>& ss,
                                              size_t i,
                                              const AbstractDatabase& before) {
  const auto* a = std::get_if<Assignment>(&ss[i].node);
  if (a == nullptr || a->op != OpKind::kProject) return std::nullopt;
  std::optional<Symbol> target = LitName(a->target);
  if (!target.has_value() || a->args.size() != 1 ||
      LitName(a->args[0]) != target) {
    return std::nullopt;
  }
  std::optional<SymbolSet> p = LitSet(a->params[0]);
  if (!p.has_value()) return std::nullopt;
  const TableShape shape = before.ShapeOf(*target);
  if (!shape.cols.top) {
    for (Symbol c : shape.cols.elems) {
      if (!p->contains(c)) return std::nullopt;
    }
  }
  return Candidate{"project-superset", i, 1, {}};
}

/// `T <- rename B A (T)` where A provably labels no column of T: the
/// rename has nothing to relabel.
std::optional<Candidate> MatchRenameAbsent(const std::vector<Statement>& ss,
                                           size_t i,
                                           const AbstractDatabase& before) {
  const auto* a = std::get_if<Assignment>(&ss[i].node);
  if (a == nullptr || a->op != OpKind::kRename) return std::nullopt;
  std::optional<Symbol> target = LitName(a->target);
  if (!target.has_value() || a->args.size() != 1 ||
      LitName(a->args[0]) != target) {
    return std::nullopt;
  }
  std::optional<Symbol> from = LitSingleton(a->params[1]);
  if (!from.has_value() || !LitSingleton(a->params[0]).has_value()) {
    return std::nullopt;
  }
  if (!before.ShapeOf(*target).cols.DefinitelyLacks(*from)) {
    return std::nullopt;
  }
  return Candidate{"rename-absent", i, 1, {}};
}

/// `X <- project P (R); X <- project Q (X)` fuses to
/// `X <- project P∩Q (R)` when R certainly exists (so both statements
/// certainly execute) or R is X itself (both fire or neither does).
std::optional<Candidate> MatchFuseProjects(const std::vector<Statement>& ss,
                                           size_t i,
                                           const AbstractDatabase& before) {
  if (i + 1 >= ss.size()) return std::nullopt;
  const auto* a = std::get_if<Assignment>(&ss[i].node);
  const auto* b = std::get_if<Assignment>(&ss[i + 1].node);
  if (a == nullptr || b == nullptr || a->op != OpKind::kProject ||
      b->op != OpKind::kProject) {
    return std::nullopt;
  }
  std::optional<Symbol> x = LitName(a->target);
  if (!x.has_value() || b->args.size() != 1 || a->args.size() != 1 ||
      LitName(b->target) != x || LitName(b->args[0]) != x) {
    return std::nullopt;
  }
  std::optional<Symbol> source = LitName(a->args[0]);
  std::optional<SymbolSet> p = LitSet(a->params[0]);
  std::optional<SymbolSet> q = LitSet(b->params[0]);
  if (!source.has_value() || !p.has_value() || !q.has_value()) {
    return std::nullopt;
  }
  if (source != x && !before.ShapeOf(*source).certain) return std::nullopt;
  Assignment fused = *a;
  fused.params[0] = Param{};
  for (Symbol s : *p) {
    if (!q->contains(s)) continue;
    ParamItem item;
    if (s.is_null()) {
      item.kind = ParamItem::Kind::kNull;
    } else {
      item.kind = ParamItem::Kind::kSymbol;
      item.symbol = s;
    }
    fused.params[0].positive.push_back(std::move(item));
  }
  Statement st;
  st.node = std::move(fused);
  std::vector<Statement> repl;
  repl.push_back(std::move(st));
  return Candidate{"fuse-projects", i, 2, std::move(repl)};
}

/// `T <- transpose (T); T <- transpose (T)`: transposition is an
/// involution, so the adjacent pair is the identity on the pool.
std::optional<Candidate> MatchTransposePair(const std::vector<Statement>& ss,
                                            size_t i) {
  if (i + 1 >= ss.size()) return std::nullopt;
  auto is_self_transpose = [](const Statement& s) -> std::optional<Symbol> {
    const auto* a = std::get_if<Assignment>(&s.node);
    if (a == nullptr || a->op != OpKind::kTranspose) return std::nullopt;
    std::optional<Symbol> t = LitName(a->target);
    if (!t.has_value() || a->args.size() != 1 || LitName(a->args[0]) != t) {
      return std::nullopt;
    }
    return t;
  };
  std::optional<Symbol> t1 = is_self_transpose(ss[i]);
  if (!t1.has_value() || is_self_transpose(ss[i + 1]) != t1) {
    return std::nullopt;
  }
  return Candidate{"transpose-involution", i, 2, {}};
}

/// `X <- op(...); drop Y;` with disjoint names hoists the drop above the
/// assignment (earlier reclamation shrinks every later wildcard scan); the
/// assignment must be statically total so the reorder cannot move a drop
/// across a failing statement.
std::optional<Candidate> MatchDropHoist(const std::vector<Statement>& ss,
                                        size_t i) {
  if (i + 1 >= ss.size()) return std::nullopt;
  const auto* a = std::get_if<Assignment>(&ss[i].node);
  const auto* d = std::get_if<DropStatement>(&ss[i + 1].node);
  if (a == nullptr || d == nullptr || !StaticallyTotal(*a)) {
    return std::nullopt;
  }
  std::optional<SymbolSet> dropped = LitSet(d->target);
  if (!dropped.has_value() || dropped->empty()) return std::nullopt;
  SymbolSet stmt_names;
  bool universal = false;
  CollectStatementReads(ss[i], &stmt_names, &universal);
  CollectParamNames(a->target, &stmt_names, &universal);
  if (universal) return std::nullopt;
  for (Symbol y : *dropped) {
    if (stmt_names.contains(y)) return std::nullopt;
  }
  std::vector<Statement> repl;
  repl.push_back(ss[i + 1]);
  repl.push_back(ss[i]);
  return Candidate{"drop-hoist", i, 2, std::move(repl)};
}

/// `X <- op(...); drop X;` cancels to `drop X` when the assignment is
/// statically total (it cannot fail, so removing it never hides an error).
std::optional<Candidate> MatchCancelBeforeDrop(const std::vector<Statement>& ss,
                                               size_t i) {
  if (i + 1 >= ss.size()) return std::nullopt;
  const auto* a = std::get_if<Assignment>(&ss[i].node);
  const auto* d = std::get_if<DropStatement>(&ss[i + 1].node);
  if (a == nullptr || d == nullptr || !StaticallyTotal(*a)) {
    return std::nullopt;
  }
  std::optional<Symbol> x = LitName(a->target);
  std::optional<SymbolSet> dropped = LitSet(d->target);
  if (!x.has_value() || !dropped.has_value() || !dropped->contains(*x)) {
    return std::nullopt;
  }
  std::vector<Statement> repl;
  repl.push_back(ss[i + 1]);
  return Candidate{"cancel-before-drop", i, 2, std::move(repl)};
}

/// `while G do …` whose guard is provably false on entry never runs.
std::optional<Candidate> MatchWhileNeverEntered(
    const std::vector<Statement>& ss, size_t i,
    const AbstractDatabase& before) {
  const auto* w = std::get_if<WhileLoop>(&ss[i].node);
  if (w == nullptr) return std::nullopt;
  SymbolSet guard;
  bool universal = false;
  CollectParamNames(w->condition, &guard, &universal);
  if (!analysis::GuardDefinitelyFalse(before, guard, universal)) {
    return std::nullopt;
  }
  return Candidate{"while-never-entered", i, 1, {}};
}

/// Cardinality-guided unrolling: the guard certainly holds on entry and is
/// provably false after one abstract body pass, so the loop runs its body
/// exactly once — inline it.
std::optional<Candidate> MatchWhileUnroll(const std::vector<Statement>& ss,
                                          size_t i,
                                          const AbstractDatabase& before) {
  const auto* w = std::get_if<WhileLoop>(&ss[i].node);
  if (w == nullptr) return std::nullopt;
  SymbolSet guard;
  bool universal = false;
  CollectParamNames(w->condition, &guard, &universal);
  if (universal || guard.empty()) return std::nullopt;
  if (!analysis::GuardCertainlyTrue(before, guard)) return std::nullopt;
  if (!analysis::GuardDefinitelyFalse(
          analysis::AnalyzeCompleteRun(w->body, before).final_state, guard,
          /*guard_universal=*/false)) {
    return std::nullopt;
  }
  return Candidate{"while-unroll", i, 1, w->body};
}

/// Shared gate of the product-pushdown rules: the rewrite overwrites `X`
/// one statement earlier, so the side still read afterwards must not be
/// `X`, and each source must be `X` itself or certainly present — a
/// may-absent source would turn a statement into a no-op on one side of
/// the rewrite only, leaving `X` with different values.
bool PushdownSidesOk(Symbol x, Symbol filtered, Symbol other,
                     const AbstractDatabase& before) {
  if (other == x) return false;
  if (filtered == x) return true;
  return before.ShapeOf(filtered).certain && before.ShapeOf(other).certain;
}

/// `X <- product (R, S); X <- select A B (X)` pushes the filter into the
/// product side that owns both filter columns:
/// `X <- select A B (R); X <- product (X, S)`. Sound when the other side
/// provably lacks A and B — each paired row's A/B entries then come from
/// the filtered side, so filtering the pairs equals filtering that side's
/// rows first. Cost: the filter pass runs over |R| rows instead of
/// |R|·|S|.
std::optional<Candidate> MatchSelectPushdownProduct(
    const std::vector<Statement>& ss, size_t i,
    const AbstractDatabase& before) {
  if (i + 1 >= ss.size()) return std::nullopt;
  const auto* prod = std::get_if<Assignment>(&ss[i].node);
  const auto* sel = std::get_if<Assignment>(&ss[i + 1].node);
  if (prod == nullptr || sel == nullptr || prod->op != OpKind::kProduct ||
      sel->op != OpKind::kSelect) {
    return std::nullopt;
  }
  std::optional<Symbol> x = LitName(prod->target);
  if (!x.has_value() || prod->args.size() != 2) return std::nullopt;
  if (LitName(sel->target) != x || sel->args.size() != 1 ||
      LitName(sel->args[0]) != x) {
    return std::nullopt;
  }
  std::optional<Symbol> a = LitSingleton(sel->params[0]);
  std::optional<Symbol> b = LitSingleton(sel->params[1]);
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  for (size_t side = 0; side < 2; ++side) {
    std::optional<Symbol> filtered = LitName(prod->args[side]);
    std::optional<Symbol> other = LitName(prod->args[1 - side]);
    if (!filtered.has_value() || !other.has_value()) break;
    if (!PushdownSidesOk(*x, *filtered, *other, before)) continue;
    const TableShape other_shape = before.ShapeOf(*other);
    if (!other_shape.cols.DefinitelyLacks(*a) ||
        !other_shape.cols.DefinitelyLacks(*b)) {
      continue;
    }
    Assignment first = *sel;  // X <- select A B (R)
    first.args[0] = Param::Literal(*filtered);
    Assignment second = *prod;  // X <- product (X, S), side order kept
    second.args[side] = Param::Literal(*x);
    std::vector<Statement> repl(2);
    repl[0].node = std::move(first);
    repl[1].node = std::move(second);
    return Candidate{"select-pushdown-product", i, 2, std::move(repl)};
  }
  return std::nullopt;
}

/// `X <- product (R, S); X <- project P (X)` narrows the R side before the
/// product when P keeps every column of S:
/// `X <- project P∩cols(R) (R); X <- product (X, S)`. Requires both
/// column layouts exactly known (may-set = must-set) and disjoint, so the
/// split of P across the sides is unambiguous.
std::optional<Candidate> MatchProjectPushdownProduct(
    const std::vector<Statement>& ss, size_t i,
    const AbstractDatabase& before) {
  if (i + 1 >= ss.size()) return std::nullopt;
  const auto* prod = std::get_if<Assignment>(&ss[i].node);
  const auto* proj = std::get_if<Assignment>(&ss[i + 1].node);
  if (prod == nullptr || proj == nullptr || prod->op != OpKind::kProduct ||
      proj->op != OpKind::kProject) {
    return std::nullopt;
  }
  std::optional<Symbol> x = LitName(prod->target);
  if (!x.has_value() || prod->args.size() != 2) return std::nullopt;
  if (LitName(proj->target) != x || proj->args.size() != 1 ||
      LitName(proj->args[0]) != x) {
    return std::nullopt;
  }
  std::optional<SymbolSet> p = LitSet(proj->params[0]);
  if (!p.has_value()) return std::nullopt;
  // Exact column layout: every column the side may carry is certain.
  auto exact_cols = [&](Symbol name,
                        SymbolSet* out) -> bool {
    const TableShape shape = before.ShapeOf(name);
    if (shape.cols.top) return false;
    for (Symbol c : shape.cols.elems) {
      if (!shape.must_cols.CertainlyContains(c)) return false;
    }
    *out = shape.cols.elems;
    return true;
  };
  for (size_t side = 0; side < 2; ++side) {
    std::optional<Symbol> filtered = LitName(prod->args[side]);
    std::optional<Symbol> other = LitName(prod->args[1 - side]);
    if (!filtered.has_value() || !other.has_value()) break;
    if (!PushdownSidesOk(*x, *filtered, *other, before)) continue;
    SymbolSet filtered_cols, other_cols;
    if (!exact_cols(*filtered, &filtered_cols) ||
        !exact_cols(*other, &other_cols)) {
      continue;
    }
    bool ok = true;
    for (Symbol c : other_cols) {
      ok = ok && p->contains(c) && !filtered_cols.contains(c);
    }
    if (!ok) continue;
    // The narrowing must drop something, or project-superset already
    // covers the window more cheaply.
    SymbolSet kept;
    for (Symbol c : filtered_cols) {
      if (p->contains(c)) kept.insert(c);
    }
    if (kept.size() == filtered_cols.size()) continue;
    Assignment first = *proj;  // X <- project P∩cols(R) (R)
    first.args[0] = Param::Literal(*filtered);
    first.params[0] = Param{};
    for (Symbol c : kept) {
      ParamItem item;
      if (c.is_null()) {
        item.kind = ParamItem::Kind::kNull;
      } else {
        item.kind = ParamItem::Kind::kSymbol;
        item.symbol = c;
      }
      first.params[0].positive.push_back(std::move(item));
    }
    Assignment second = *prod;  // X <- product (X, S)
    second.args[side] = Param::Literal(*x);
    std::vector<Statement> repl(2);
    repl[0].node = std::move(first);
    repl[1].node = std::move(second);
    return Candidate{"project-pushdown-product", i, 2, std::move(repl)};
  }
  return std::nullopt;
}

/// `X <- group/merge …; Y <- filter …` with disjoint name sets swaps the
/// pair, floating cheap filters (select/selectconst/project) upstream
/// through the expensive restructuring statements so they become adjacent
/// to their producers and the pushdown/no-op rules can fire. Sound only
/// when neither statement can fail: the restructuring side must be
/// provably total (GROUP/MERGE kernel contracts discharged via the
/// must-sets), or the reorder could move work across a failing statement.
std::optional<Candidate> MatchFilterHoist(const std::vector<Statement>& ss,
                                          size_t i,
                                          const AbstractDatabase& before) {
  if (i + 1 >= ss.size()) return std::nullopt;
  const auto* heavy = std::get_if<Assignment>(&ss[i].node);
  const auto* filter = std::get_if<Assignment>(&ss[i + 1].node);
  if (heavy == nullptr || filter == nullptr) return std::nullopt;
  if (heavy->op != OpKind::kGroup && heavy->op != OpKind::kMerge) {
    return std::nullopt;
  }
  if (filter->op != OpKind::kSelect && filter->op != OpKind::kSelectConst &&
      filter->op != OpKind::kProject) {
    return std::nullopt;
  }
  if (!StaticallyTotal(*filter) || !ProvablyTotal(*heavy, before)) {
    return std::nullopt;
  }
  SymbolSet heavy_names, filter_names;
  bool universal = false;
  CollectStatementNames(ss[i], &heavy_names, &universal);
  CollectStatementNames(ss[i + 1], &filter_names, &universal);
  if (universal) return std::nullopt;
  for (Symbol nm : filter_names) {
    if (heavy_names.contains(nm)) return std::nullopt;
  }
  std::vector<Statement> repl;
  repl.push_back(ss[i + 1]);
  repl.push_back(ss[i]);
  return Candidate{"filter-hoist", i, 2, std::move(repl)};
}

/// Every candidate of the current round, in (statement index, rule) order.
/// The engine re-orders this list by the static cost of the plan each
/// candidate produces, and this order only breaks ties. The pushdown rules
/// precede the no-op rules at the same index, so taking the front of the
/// list would strand the plan in a local optimum: a pushdown consumes the
/// window a cheaper removal rule needed. Ranking escapes it (see
/// bench_optimizer's `ta_residual_selects`).
std::vector<Candidate> FindCandidates(
    const std::vector<Statement>& ss,
    const std::vector<AbstractDatabase>& before,
    const std::set<std::string>& rejected) {
  std::vector<Candidate> out;
  for (size_t i = 0; i < ss.size(); ++i) {
    auto consider = [&](std::optional<Candidate> m) {
      if (m.has_value() && !rejected.contains(Fingerprint(*m, ss))) {
        out.push_back(std::move(*m));
      }
    };
    consider(MatchSelectPushdownProduct(ss, i, before[i]));
    consider(MatchProjectPushdownProduct(ss, i, before[i]));
    consider(MatchSelectIdentity(ss, i, before[i]));
    consider(MatchProjectSuperset(ss, i, before[i]));
    consider(MatchRenameAbsent(ss, i, before[i]));
    consider(MatchTransposePair(ss, i));
    consider(MatchFuseProjects(ss, i, before[i]));
    consider(MatchCancelBeforeDrop(ss, i));
    consider(MatchDropHoist(ss, i));
    consider(MatchFilterHoist(ss, i, before[i]));
    consider(MatchWhileNeverEntered(ss, i, before[i]));
    consider(MatchWhileUnroll(ss, i, before[i]));
  }
  return out;
}

}  // namespace

std::string RenderRewriteJson(const RewriteRecord& r, std::string_view file) {
  using analysis::JsonEscape;
  // An uncertified record with no validator reason was kept on the rules'
  // own soundness argument (validation off): "trusted". A cost-rejected
  // candidate never reached the validator at all.
  const char* verdict =
      r.cost_rejected
          ? "cost-rejected"
          : (r.certified ? "certified"
                         : (r.reason.empty() ? "trusted" : "rejected"));
  std::string out = "{\"file\":\"" + JsonEscape(file) + "\",\"rewrite\":\"" +
                    JsonEscape(r.rule) + "\",\"path\":\"" +
                    JsonEscape(r.path) + "\",\"verdict\":\"" + verdict +
                    "\",\"certified\":" + (r.certified ? "true" : "false") +
                    ",\"before\":\"" + JsonEscape(r.before) +
                    "\",\"after\":\"" + JsonEscape(r.after) + "\"";
  // Chosen-vs-rejected plan costs (static total work; "∞" = unbounded).
  out += ",\"cost_before\":\"" + analysis::FormatCost(r.cost_before) +
         "\",\"cost_after\":\"" + analysis::FormatCost(r.cost_after) + "\"";
  if (!r.reason.empty()) {
    out += ",\"reason\":\"" + JsonEscape(r.reason) + "\"";
  }
  if (!r.divergent_at.empty()) {
    out += ",\"divergent_at\":\"" + JsonEscape(r.divergent_at) + "\"";
  }
  out += "}";
  return out;
}

namespace {

/// Upper bound on the candidates one `OptimizeProgram` call processes
/// (applied, rejected or cost-rejected): a divergence guard.
constexpr size_t kMaxRewrites = 256;

RewriteRecord MakeRecord(const Candidate& cand, const Program& current) {
  RewriteRecord record;
  record.rule = cand.rule;
  record.path = std::to_string(cand.index + 1);
  record.before =
      WindowText(current.statements, cand.index, cand.consumed);
  for (const Statement& s : cand.replacement) {
    if (!record.after.empty()) record.after += " ";
    record.after += s.ToString();
  }
  return record;
}

/// A plan with its one analysis: the analyzer's states of its top-level
/// statements feed rule matching, validation and the static cost, kept as
/// one summary per top-level statement with running totals from either
/// end.
struct Plan {
  Program program;
  analysis::AnalysisResult states;
  std::vector<analysis::CostSummary> statement_cost;
  /// `head[j]`: statements [0, j); `tail[j]`: statements [j, n).
  std::vector<analysis::CostSummary> head, tail;

  analysis::CostSummary cost() const { return head.back(); }

  void SumCosts() {
    const size_t n = statement_cost.size();
    head.assign(n + 1, {});
    tail.assign(n + 1, {});
    for (size_t j = 0; j < n; ++j) head[j + 1] = head[j] + statement_cost[j];
    for (size_t j = n; j-- > 0;) tail[j] = statement_cost[j] + tail[j + 1];
  }
};

/// A candidate scored against the current plan: the states its splice
/// re-analyzed, the cost of each statement it re-analyzed, and the cost of
/// the whole plan it would produce.
struct Scored {
  Candidate cand;
  analysis::SplicedRun run;
  std::vector<analysis::CostSummary> span_cost;
  analysis::CostSummary cost;
};

/// Top-level statements the engine runs through the analyzer's transfer
/// function: its input, unless the caller hands its analysis over, and
/// each candidate's splice.
obs::Counter& StatementsAnalyzed() {
  static obs::Counter& counter =
      obs::GetCounter("optimizer.statements_analyzed");
  return counter;
}

Scored Score(Candidate cand, const Plan& current) {
  const std::vector<Statement>& ss = current.program.statements;
  analysis::SplicedRun run = analysis::AnalyzeSplice(
      ss, current.states, cand.index, cand.consumed, cand.replacement);
  StatementsAnalyzed().Add(run.analyzed);
  Scored scored{std::move(cand), std::move(run), {}, {}};
  // The statements the splice ran are the only ones whose states changed:
  // each is re-costed, and the plan's totals before the window and past
  // the sync point are reused.
  const Candidate& c = scored.cand;
  const analysis::SplicedRun& r = scored.run;
  analysis::CostSummary span;
  for (size_t k = c.index; k < c.index + r.analyzed; ++k) {
    const Statement& s = k < c.index + c.replacement.size()
                             ? c.replacement[k - c.index]
                             : ss[r.BaseIndex(k)];
    span = span + scored.span_cost.emplace_back(analysis::CostOfStatement(
                      s, k, r.After(current.states, k),
                      r.After(current.states, k + 1)));
  }
  scored.cost = current.head[c.index] + span +
                current.tail[r.BaseIndex(c.index + r.analyzed)];
  return scored;
}

/// The plan `s` produces: `current`'s program with the window replaced,
/// and its states and statement costs spliced from `current`'s and the
/// span's.
Plan ApplyScored(Plan current, Scored s) {
  Candidate& c = s.cand;
  Plan next;
  next.program.statements.reserve(current.program.statements.size() -
                                  c.consumed + c.replacement.size());
  auto& ss = current.program.statements;
  auto& out = next.program.statements;
  std::move(ss.begin(), ss.begin() + c.index, std::back_inserter(out));
  std::move(c.replacement.begin(), c.replacement.end(),
            std::back_inserter(out));
  std::move(ss.begin() + c.index + c.consumed, ss.end(),
            std::back_inserter(out));
  const size_t resume = s.run.BaseIndex(c.index + s.run.analyzed);
  auto& cost = current.statement_cost;
  next.statement_cost.assign(cost.begin(), cost.begin() + c.index);
  next.statement_cost.insert(next.statement_cost.end(), s.span_cost.begin(),
                             s.span_cost.end());
  next.statement_cost.insert(next.statement_cost.end(), cost.begin() + resume,
                             cost.end());
  next.SumCosts();
  next.states =
      analysis::ApplySplice(std::move(current.states), std::move(s.run));
  return next;
}

}  // namespace

Program OptimizeProgram(const Program& program,
                        const AbstractDatabase& initial,
                        const OptimizerOptions& options,
                        OptimizeStats* stats) {
  StatementsAnalyzed().Add(program.statements.size());
  return OptimizeProgram(
      program, initial,
      analysis::AnalyzeCompleteRun(program.statements, initial), options,
      stats);
}

Program OptimizeProgram(const Program& program,
                        [[maybe_unused]] const AbstractDatabase& initial,
                        analysis::AnalysisResult analyzed,
                        const OptimizerOptions& options,
                        OptimizeStats* stats) {
  static obs::Counter& applied_counter =
      obs::GetCounter("optimizer.rewrites_applied");
  static obs::Counter& rejected_counter =
      obs::GetCounter("optimizer.rewrites_rejected");
  static obs::Counter& cost_rejected_counter =
      obs::GetCounter("optimizer.rewrites_cost_rejected");

  assert(analyzed.before.size() == program.statements.size());
  assert(analyzed.After(0) == initial);
  Plan current;
  current.program = program;
  current.states = std::move(analyzed);
  const std::vector<Statement>& ss = current.program.statements;
  for (size_t k = 0; k < ss.size(); ++k) {
    current.statement_cost.push_back(analysis::CostOfStatement(
        ss[k], k, current.states.before[k], current.states.After(k + 1)));
  }
  current.SumCosts();
  std::set<std::string> rejected;
  // Cost-rejections live in their own set, scoped to the current plan:
  // losing on cost is relative to the plan at hand, so any applied rewrite
  // clears the set and previously too-expensive candidates compete again.
  // Validator rejections stay in `rejected` for the whole search — an
  // unsound rewrite does not become sound when its surroundings change
  // (the fingerprint covers the window text, which may be untouched).
  std::set<std::string> cost_rejected;

  // Each round gathers every candidate of the current plan, orders it by
  // static plan cost, and applies the first survivor; rejected candidates
  // are fingerprinted so they are proposed at most once per window text
  // and plan. A candidate is analyzed, costed and validated only from its
  // window to its sync point (`AnalyzeSplice`); only the winner becomes a
  // whole plan.
  size_t attempts = 0;
  while (attempts < kMaxRewrites) {
    std::set<std::string> skip = rejected;
    skip.insert(cost_rejected.begin(), cost_rejected.end());
    std::vector<Candidate> cands = FindCandidates(
        current.program.statements, current.states.before, skip);
    if (cands.empty()) break;

    std::vector<Scored> scored;
    scored.reserve(cands.size());
    for (Candidate& c : cands) {
      scored.push_back(Score(std::move(c), current));
    }
    // Cheapest plan first; ties keep statement order (determinism).
    std::stable_sort(scored.begin(), scored.end(),
                     [](const Scored& a, const Scored& b) {
                       return analysis::CompareCost(a.cost, b.cost) < 0;
                     });

    for (Scored& s : scored) {
      if (attempts >= kMaxRewrites) break;
      ++attempts;
      RewriteRecord record = MakeRecord(s.cand, current.program);
      const std::string fingerprint =
          Fingerprint(s.cand, current.program.statements);
      record.cost_before = current.cost().total_work;
      record.cost_after = s.cost.total_work;
      if (analysis::CompareCost(s.cost, current.cost()) > 0) {
        // Strictly more expensive plan: lost on cost alone, never sent to
        // the validator.
        cost_rejected_counter.Add(1);
        if (stats != nullptr) ++stats->cost_rejected;
        record.cost_rejected = true;
        cost_rejected.insert(fingerprint);
        if (stats != nullptr) stats->records.push_back(std::move(record));
        continue;
      }
      bool keep = true;
      if (options.validate_rewrites) {
        analysis::ValidationReport report = analysis::ValidateTranslation(
            current.program, current.states, s.cand.replacement, s.run);
        keep = report.certified;
        record.certified = report.certified;
        record.reason = report.reason;
        record.divergent_at = report.divergent_path;
      } else {
        record.certified = false;  // kept, but unproven
      }
      if (keep) {
        applied_counter.Add(1);
        if (stats != nullptr) ++stats->applied;
        if (stats != nullptr) stats->records.push_back(std::move(record));
        current = ApplyScored(std::move(current), std::move(s));
        // The plan changed: cost comparisons against the old plan are
        // stale, so its cost-rejections are open for reconsideration.
        cost_rejected.clear();
        break;
      }
      rejected_counter.Add(1);
      if (stats != nullptr) ++stats->rejected;
      rejected.insert(fingerprint);
      if (stats != nullptr) stats->records.push_back(std::move(record));
    }
    // When nothing applied, every processed candidate was fingerprinted
    // into one of the two sets and neither is cleared without an apply,
    // so the next round's gather strictly shrinks and the loop converges.
  }
  return std::move(current.program);
}

}  // namespace tabular::lang
