#include "analysis/analyzer.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace tabular::analysis {

using core::Symbol;
using core::SymbolSet;
using lang::Assignment;
using lang::DropStatement;
using lang::ExpectedArgCount;
using lang::ExpectedParamCount;
using lang::OpKind;
using lang::OpKindToString;
using lang::Param;
using lang::ParamItem;
using lang::Program;
using lang::Statement;
using lang::WhileLoop;

namespace {

/// Abstract interpretation of a parameter, relative to the wildcard ids the
/// statement's argument positions bind.
struct AbsParam {
  enum class Kind {
    kKnown,          ///< denotes exactly `elems`
    kUniverseMinus,  ///< the whole column universe of the context minus `elems`
    kUnknown,        ///< bound wildcard or entry pair: anything
  };
  Kind kind = Kind::kUnknown;
  SymbolSet elems;

  bool known() const { return kind == Kind::kKnown; }
  std::optional<Symbol> Singleton() const {
    if (kind == Kind::kKnown && elems.size() == 1) return *elems.begin();
    return std::nullopt;
  }
};

void CollectWildcardIds(const Param& p, std::vector<int>* out);

void CollectItemWildcardIds(const ParamItem& it, std::vector<int>* out) {
  switch (it.kind) {
    case ParamItem::Kind::kWildcard:
      out->push_back(it.wildcard_id);
      break;
    case ParamItem::Kind::kPair:
      if (it.row != nullptr) CollectWildcardIds(*it.row, out);
      if (it.col != nullptr) CollectWildcardIds(*it.col, out);
      break;
    default:
      break;
  }
}

void CollectWildcardIds(const Param& p, std::vector<int>* out) {
  for (const ParamItem& it : p.positive) CollectItemWildcardIds(it, out);
  for (const ParamItem& it : p.negative) CollectItemWildcardIds(it, out);
}

/// Literal symbol set of a positive/negative item list, or nullopt if some
/// item is a wildcard or pair.
std::optional<SymbolSet> LiteralItems(const std::vector<ParamItem>& items) {
  SymbolSet out;
  for (const ParamItem& it : items) {
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

AbsParam EvalAbstract(const Param& p, const std::vector<int>& bound_ids) {
  std::optional<SymbolSet> neg = LiteralItems(p.negative);
  if (neg.has_value()) {
    std::optional<SymbolSet> pos = LiteralItems(p.positive);
    if (pos.has_value()) {
      SymbolSet elems = *pos;
      for (Symbol s : *neg) elems.erase(s);
      return AbsParam{AbsParam::Kind::kKnown, std::move(elems)};
    }
    // An *unbound* wildcard in an attribute position denotes the whole
    // column universe of the context table (lang::EvalParam).
    if (p.positive.size() == 1 &&
        p.positive[0].kind == ParamItem::Kind::kWildcard &&
        std::find(bound_ids.begin(), bound_ids.end(),
                  p.positive[0].wildcard_id) == bound_ids.end()) {
      return AbsParam{AbsParam::Kind::kUniverseMinus, std::move(*neg)};
    }
  }
  return AbsParam{AbsParam::Kind::kUnknown, {}};
}

/// The sole-wildcard item of a parameter, if it is exactly `*k`.
const ParamItem* SoleWildcard(const Param& p) {
  if (p.positive.size() == 1 && p.negative.empty() &&
      p.positive[0].kind == ParamItem::Kind::kWildcard) {
    return &p.positive[0];
  }
  return nullptr;
}

std::string Quoted(Symbol s) { return "'" + s.ToString() + "'"; }

std::string SetToString(const SymbolSet& s) {
  std::string out = "{";
  bool first = true;
  for (Symbol x : s) {
    if (!first) out += ", ";
    first = false;
    out += x.ToString();
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// The forward dataflow pass.
// ---------------------------------------------------------------------------

/// How the while fixpoint runs a loop body (see analyzer.h).
enum class BodyRun {
  kMaySkip,   ///< each statement possibly not executed (diagnostic pass)
  kComplete,  ///< one complete run of the body (cost, while-unroll)
};

class Analyzer {
 public:
  /// Diagnostics go to `sink`; a null sink analyzes states only.
  Analyzer(const AnalyzerOptions& options, std::vector<Diagnostic>* sink)
      : options_(options), sink_(sink) {}

  /// Runs `statements` over `*state`. `before`, if non-null, receives the
  /// state before each statement.
  void AnalyzeStatements(const std::vector<Statement>& statements,
                         const std::string& path_prefix,
                         AbstractDatabase* state, bool certain_context,
                         std::vector<AbstractDatabase>* before = nullptr) {
    if (before != nullptr) before->reserve(statements.size());
    for (size_t i = 0; i < statements.size(); ++i) {
      if (before != nullptr) before->push_back(*state);
      AnalyzeStatement(statements[i], path_prefix + std::to_string(i + 1),
                       state, certain_context);
    }
  }

  /// The transfer function of one statement: `*state` becomes the state
  /// after it.
  void AnalyzeStatement(const Statement& s, const std::string& path,
                        AbstractDatabase* state, bool certain_context) {
    if (const auto* a = std::get_if<Assignment>(&s.node)) {
      AnalyzeAssignment(*a, path, state, certain_context);
    } else if (const auto* d = std::get_if<DropStatement>(&s.node)) {
      AnalyzeDrop(*d, state);
    } else {
      AnalyzeWhile(std::get<WhileLoop>(s.node), path, state);
    }
  }

  /// The one while fixpoint: joins the states after 0, 1, 2, ... runs of
  /// `body` from `entry`. Joins *widen* the cardinality intervals, so row
  /// counts that grow (or shrink) every iteration jump to an interval end
  /// instead of creeping toward the iteration cap; past the cap the state
  /// widens to ⊤. Diagnostics are suppressed while iterating.
  AbstractDatabase LoopInvariant(const std::vector<Statement>& body,
                                 const std::string& path,
                                 AbstractDatabase entry, BodyRun run) {
    std::vector<Diagnostic>* const sink = sink_;
    sink_ = nullptr;
    AbstractDatabase inv = std::move(entry);
    for (size_t iter = 0;; ++iter) {
      if (iter >= options_.max_fixpoint_iterations) {
        inv.WildcardWrite();  // widen to ⊤
        break;
      }
      AbstractDatabase body_out = inv;
      AnalyzeStatements(body, path + ".", &body_out,
                        /*certain_context=*/run == BodyRun::kComplete);
      AbstractDatabase joined = inv;
      joined.Join(body_out, /*widen=*/true);
      if (joined == inv) break;
      inv = std::move(joined);
    }
    sink_ = sink;
    return inv;
  }

 private:
  void Emit(Severity severity, const std::string& path, std::string message,
            std::string note = "") {
    if (sink_ == nullptr) return;
    sink_->push_back(Diagnostic{severity, path, std::move(message),
                                std::move(note)});
  }

  /// Error when the violation provably happens on every run reaching the
  /// statement; warning when the statement may not execute (inside a while
  /// body, or an argument table only may-exist).
  static Severity Sev(bool definite) {
    return definite ? Severity::kError : Severity::kWarning;
  }

  void AnalyzeDrop(const DropStatement& d, AbstractDatabase* state) {
    SymbolSet names;
    bool universal = false;
    CollectParamNames(d.target, &names, &universal);
    if (universal) {
      // A wildcard drop may remove anything: existence is no longer
      // certain for any name, and any pool may have shrunk to nothing
      // (shapes stay valid may-supersets).
      for (auto& [nm, shape] : state->tables) {
        shape.certain = false;
        shape.count.lo = 0;
      }
      return;
    }
    for (Symbol nm : names) state->tables.erase(nm);
  }

  void AnalyzeWhile(const WhileLoop& loop, const std::string& path,
                    AbstractDatabase* state) {
    SymbolSet guard;
    bool guard_universal = false;
    CollectParamNames(loop.condition, &guard, &guard_universal);

    if (!guard_universal && !guard.empty()) {
      bool any_may_exist = false;
      for (Symbol g : guard) any_may_exist |= state->MayExist(g);
      if (!any_may_exist) {
        Emit(Severity::kWarning, path,
             "while body is unreachable: guard " + GuardNames(guard) +
                 " matches no table defined at this point");
        return;  // the loop is skipped; the body never runs
      }
      if (GuardDefinitelyFalse(*state, guard, guard_universal)) {
        Emit(Severity::kWarning, path,
             "while body is unreachable: every table matching guard " +
                 GuardNames(guard) + " provably has no data rows");
        return;  // the guard is false on entry; the body never runs
      }
    }

    // Non-termination heuristic: nothing in the body writes or drops a
    // guard table, so once entered the loop can never become empty.
    if (!guard_universal && !guard.empty()) {
      SymbolSet writes;
      bool writes_universal = false;
      CollectBodyWrites(loop.body, &writes, &writes_universal);
      bool touches_guard = writes_universal;
      for (Symbol g : guard) touches_guard |= writes.contains(g);
      if (!touches_guard) {
        Emit(Severity::kWarning, path,
             "while guard " + GuardNames(guard) +
                 " is never written or dropped in the loop body; the loop "
                 "may not terminate",
             "statements after this loop may be unreachable");
      }
    }

    // The loop state joins every iteration count (0, 1, 2, ...); then one
    // labeled pass runs the body over it for diagnostics.
    AbstractDatabase loop_state =
        LoopInvariant(loop.body, path, *state, BodyRun::kMaySkip);
    if (sink_ != nullptr) {
      AbstractDatabase scratch = loop_state;
      AnalyzeStatements(loop.body, path + ".", &scratch,
                        /*certain_context=*/false);
    }
    // Exit refinement: the loop only exits when no guard table has data
    // rows, so every surviving carrier of a literal guard name is provably
    // empty (and can carry no row attributes).
    if (!guard_universal) {
      for (Symbol g : guard) {
        auto it = loop_state.tables.find(g);
        if (it == loop_state.tables.end()) continue;
        it->second.rows = AttrSet::Of({});
        it->second.must_rows = MustSet::Top();
        it->second.row_card = CardInterval::Exact(0);
      }
    }
    *state = std::move(loop_state);
  }

  static std::string GuardNames(const SymbolSet& guard) {
    std::string out;
    bool first = true;
    for (Symbol g : guard) {
      if (!first) out += ", ";
      first = false;
      out += Quoted(g);
    }
    return out;
  }

  static void CollectBodyWrites(const std::vector<Statement>& body,
                                SymbolSet* out, bool* universal) {
    for (const Statement& s : body) {
      if (const auto* a = std::get_if<Assignment>(&s.node)) {
        CollectParamNames(a->target, out, universal);
      } else if (const auto* d = std::get_if<DropStatement>(&s.node)) {
        CollectParamNames(d->target, out, universal);
      } else {
        CollectBodyWrites(std::get<WhileLoop>(s.node).body, out, universal);
      }
    }
  }

  void AnalyzeAssignment(const Assignment& stmt, const std::string& path,
                         AbstractDatabase* state, bool certain_context) {
    // Arity first — the interpreter rejects these before enumerating
    // argument combinations, so they are definite regardless of state.
    if (stmt.params.size() != ExpectedParamCount(stmt.op)) {
      Emit(Severity::kError, path,
           std::string(OpKindToString(stmt.op)) + " expects " +
               std::to_string(ExpectedParamCount(stmt.op)) +
               " parameter(s), got " + std::to_string(stmt.params.size()));
      return;
    }
    if (stmt.args.size() != ExpectedArgCount(stmt.op)) {
      Emit(Severity::kError, path,
           std::string(OpKindToString(stmt.op)) + " expects " +
               std::to_string(ExpectedArgCount(stmt.op)) +
               " argument(s), got " + std::to_string(stmt.args.size()));
      return;
    }

    // Wildcard ids bound during argument enumeration: params mentioning
    // them denote table names, not attribute sets.
    std::vector<int> bound_ids;
    for (const Param& arg : stmt.args) CollectWildcardIds(arg, &bound_ids);

    std::vector<AbsParam> params;
    params.reserve(stmt.params.size());
    for (const Param& p : stmt.params) {
      params.push_back(EvalAbstract(p, bound_ids));
    }

    // Resolve arguments: literal single names are precise; anything else
    // (wildcards, multi-name parameters) degrades to unknown shapes.
    std::vector<std::optional<Symbol>> arg_names;
    bool args_all_literal = true;
    for (const Param& arg : stmt.args) {
      AbsParam a = EvalAbstract(arg, {});
      std::optional<Symbol> nm = a.Singleton();
      arg_names.push_back(nm);
      args_all_literal &= nm.has_value();
    }

    // The self-wildcard idiom `*k <- op (*k[, *k])`: every table is
    // rewritten in place, name-preserving. Apply the transfer per name.
    const ParamItem* target_star = SoleWildcard(stmt.target);
    if (target_star != nullptr) {
      bool self = !stmt.args.empty();
      for (const Param& arg : stmt.args) {
        const ParamItem* star = SoleWildcard(arg);
        self &= star != nullptr && star->wildcard_id == target_star->wildcard_id;
      }
      if (self) {
        const bool binary = ExpectedArgCount(stmt.op) == 2;
        for (auto& [nm, shape] : state->tables) {
          // A binary self-application pairs carriers of the *same* name.
          TableShape out = ApplyOp(stmt.op, params, shape, &shape,
                                   /*same_single_arg=*/binary);
          out.certain = shape.certain;
          if (binary) {
            out.count = shape.count.Times(shape.count);
          } else if (stmt.op == OpKind::kCollapse) {
            out.count = CardInterval::Range(shape.count.lo >= 1 ? 1 : 0, 1);
          } else if (stmt.op != OpKind::kSplit) {
            out.count = shape.count;
          }
          if (stmt.op == OpKind::kSplit) {
            // Staging zero tables leaves the old pool in place.
            out.count = SplitCount(shape);
            shape.Join(out);
          } else {
            shape = out;
          }
        }
        return;
      }
    }

    // Use-before-definition: a literal argument naming no table makes the
    // whole statement a no-op (zero instantiations) — diagnose and leave
    // the state untouched.
    bool any_definitely_absent = false;
    for (size_t i = 0; i < stmt.args.size(); ++i) {
      if (arg_names[i].has_value() &&
          state->DefinitelyAbsent(*arg_names[i])) {
        any_definitely_absent = true;
        Emit(Severity::kWarning, path,
             "argument table " + Quoted(*arg_names[i]) +
                 " is not defined at this point; the statement has no "
                 "effect");
      }
    }
    if (any_definitely_absent) return;

    // Input shapes and execution certainty.
    TableShape in1 = TableShape::Top(false);
    TableShape in2 = TableShape::Top(false);
    bool args_certain = certain_context;
    if (args_all_literal) {
      in1 = state->ShapeOf(*arg_names[0]);
      args_certain &= in1.certain;
      if (arg_names.size() > 1) {
        in2 = state->ShapeOf(*arg_names[1]);
        args_certain &= in2.certain;
      }
    } else {
      args_certain = false;
    }

    // The contract checks only emit diagnostics: skip building their
    // messages when nothing collects them.
    if (sink_ != nullptr) {
      CheckOperation(stmt, path, params, arg_names, in1, in2, args_certain);
    }

    const bool binary = stmt.args.size() == 2;
    const bool same_single_arg =
        binary && args_all_literal && *arg_names[0] == *arg_names[1];
    TableShape out = ApplyOp(stmt.op, params, in1, &in2, same_single_arg);

    // How many tables an *executed* statement stages under the target name:
    // one per instantiation (the cross product of the argument pools),
    // except COLLAPSE (one per name) and SPLIT (one per value combination).
    if (stmt.op == OpKind::kCollapse) {
      out.count = CardInterval::Range(in1.count.lo >= 1 ? 1 : 0, 1);
    } else if (stmt.op == OpKind::kSplit) {
      out.count = SplitCount(in1);
    } else if (binary) {
      out.count = in1.count.Times(in2.count);
    } else {
      out.count = in1.count;
    }

    // Write the target.
    std::optional<Symbol> target = EvalAbstract(stmt.target, {}).Singleton();
    if (!target.has_value()) {
      // A wildcard or pair target may write arbitrary names.
      state->WildcardWrite();
      return;
    }
    // SPLIT may stage zero tables (no data rows), leaving the old target
    // in place; all other operations produce exactly one table per
    // instantiation, so a certainly-instantiated statement certainly
    // replaces its target.
    const bool always_writes = args_certain && stmt.op != OpKind::kSplit &&
                               args_all_literal;
    if (always_writes) {
      out.certain = true;
      state->tables[*target] = std::move(out);
      return;
    }
    // The statement may stage nothing (an argument pool may be empty, or
    // SPLIT may find no data rows), in which case the old pool survives:
    // join the executed outcome into whatever was there.
    out.certain = true;  // join keeps the existing certainty bit
    auto it = state->tables.find(*target);
    if (it != state->tables.end()) {
      it->second.Join(out);
    } else {
      TableShape entry;
      if (state->top) {
        // Under ⊤ the name may already exist with an arbitrary shape.
        entry = TableShape::Top(false);
        entry.Join(out);
      } else {
        entry = std::move(out);
        entry.count.Join(CardInterval::Exact(0));  // may not have executed
      }
      entry.certain = false;
      state->tables.emplace(*target, std::move(entry));
    }
  }

  // -- Per-operation contract checks ---------------------------------------

  void CheckOperation(const Assignment& stmt, const std::string& path,
                      const std::vector<AbsParam>& params,
                      const std::vector<std::optional<Symbol>>& arg_names,
                      const TableShape& in1, const TableShape& in2,
                      bool definite) {
    const std::string arg0 =
        arg_names[0].has_value() ? Quoted(*arg_names[0]) : "the argument";
    const std::string cols_note =
        in1.cols.top ? ""
                     : "inferred columns of " + arg0 + ": " +
                           in1.cols.ToString();
    const std::string rows_note =
        in1.rows.top ? ""
                     : "inferred rows of " + arg0 + ": " + in1.rows.ToString();

    switch (stmt.op) {
      case OpKind::kGroup:
        CheckGroupLike(path, "group", "by", "on", params[0], params[1], in1,
                       arg0, cols_note, definite,
                       /*by_is_rows=*/false);
        break;
      case OpKind::kMerge:
        // merge on ℬ by 𝒜: 'on' attributes must label columns; 'by'
        // attributes must name rows.
        CheckNonEmpty(path, "merge", "on", params[0], definite);
        CheckNonEmpty(path, "merge", "by", params[1], definite);
        CheckAllLabelColumns(path, "merge", "on", params[0], in1, arg0,
                             cols_note, definite);
        CheckEachNamesRow(path, "merge", "by", params[1], in1, arg0,
                          rows_note, definite);
        break;
      case OpKind::kSplit:
        CheckNonEmpty(path, "split", "on", params[0], definite);
        CheckEachLabelsColumn(path, "split", "on", params[0], in1, arg0,
                              cols_note, Sev(definite));
        break;
      case OpKind::kCollapse:
        CheckNonEmpty(path, "collapse", "by", params[0], definite);
        CheckEachNamesRow(path, "collapse", "by", params[0], in1, arg0,
                          rows_note, definite);
        break;
      case OpKind::kCleanUp:
        // Total at runtime: out-of-region sets are warnings.
        CheckEachLabelsColumn(path, "cleanup", "by", params[0], in1, arg0,
                              cols_note, Severity::kWarning);
        CheckEachNamesRowWarn(path, "cleanup", "on", params[1], in1, arg0,
                              rows_note);
        break;
      case OpKind::kPurge:
        CheckEachLabelsColumn(path, "purge", "on", params[0], in1, arg0,
                              cols_note, Severity::kWarning);
        CheckEachNamesRowWarn(path, "purge", "by", params[1], in1, arg0,
                              rows_note);
        break;
      case OpKind::kRename: {
        CheckSingleton(path, "rename", "target attribute", params[0],
                       definite);
        CheckSingleton(path, "rename", "source attribute", params[1],
                       definite);
        std::optional<Symbol> from = params[1].Singleton();
        if (from.has_value() && in1.cols.DefinitelyLacks(*from)) {
          Emit(Severity::kWarning, path,
               "rename source attribute " + Quoted(*from) +
                   " labels no column of " + arg0 +
                   "; the rename has no effect",
               cols_note);
        }
        break;
      }
      case OpKind::kProject:
        if (params[0].known()) {
          for (Symbol a : params[0].elems) {
            if (in1.cols.DefinitelyLacks(a)) {
              Emit(Severity::kWarning, path,
                   "project attribute " + Quoted(a) +
                       " labels no column of " + arg0,
                   cols_note);
            }
          }
        }
        break;
      case OpKind::kSelect:
      case OpKind::kSelectConst: {
        const char* word = OpKindToString(stmt.op);
        CheckSingleton(path, word, "attribute", params[0], definite);
        if (stmt.op == OpKind::kSelect) {
          CheckSingleton(path, word, "attribute", params[1], definite);
        } else {
          CheckSingleton(path, word, "value", params[1], definite);
        }
        std::optional<Symbol> a = params[0].Singleton();
        if (a.has_value() && in1.cols.DefinitelyLacks(*a)) {
          Emit(Severity::kWarning, path,
               std::string(word) + " attribute " + Quoted(*a) +
                   " labels no column of " + arg0,
               cols_note);
        }
        if (stmt.op == OpKind::kSelect) {
          std::optional<Symbol> b = params[1].Singleton();
          if (b.has_value() && in1.cols.DefinitelyLacks(*b)) {
            Emit(Severity::kWarning, path,
                 "select attribute " + Quoted(*b) + " labels no column of " +
                     arg0,
                 cols_note);
          }
        }
        break;
      }
      case OpKind::kSwitch:
        CheckSingleton(path, "switch", "value", params[0], definite);
        break;
      case OpKind::kTupleNew:
      case OpKind::kSetNew:
        CheckSingleton(path, OpKindToString(stmt.op), "attribute", params[0],
                       definite);
        break;
      case OpKind::kProduct: {
        if (!arg_names[0].has_value() || !arg_names[1].has_value()) break;
        if (in1.cols.top || in2.cols.top) break;
        SymbolSet shared;
        for (Symbol a : in1.cols.elems) {
          if (!a.is_null() && in2.cols.elems.contains(a)) shared.insert(a);
        }
        if (!shared.empty()) {
          Emit(Severity::kWarning, path,
               "product operands " + Quoted(*arg_names[0]) + " and " +
                   Quoted(*arg_names[1]) + " share column attribute(s) " +
                   SetToString(shared) +
                   "; the result carries duplicate columns");
        }
        break;
      }
      case OpKind::kUnion:
      case OpKind::kDifference:
      case OpKind::kIntersection: {
        if (!arg_names[0].has_value() || !arg_names[1].has_value()) break;
        if (in1.cols.top || in2.cols.top) break;
        if (in1.cols.elems.empty() || in2.cols.elems.empty()) break;
        bool disjoint = true;
        for (Symbol a : in1.cols.elems) {
          if (in2.cols.elems.contains(a)) disjoint = false;
        }
        if (disjoint) {
          Emit(Severity::kWarning, path,
               std::string(OpKindToString(stmt.op)) + " operands " +
                   Quoted(*arg_names[0]) + " and " + Quoted(*arg_names[1]) +
                   " have provably disjoint column-attribute sets",
               "columns of " + Quoted(*arg_names[0]) + ": " +
                   in1.cols.ToString() + "; columns of " +
                   Quoted(*arg_names[1]) + ": " + in2.cols.ToString());
        }
        break;
      }
      case OpKind::kTranspose:
        break;
    }
  }

  void CheckNonEmpty(const std::string& path, const char* op,
                     const char* which, const AbsParam& p, bool definite) {
    if (p.known() && p.elems.empty()) {
      Emit(Sev(definite), path,
           std::string(op) + " '" + which + "' set is empty");
    }
  }

  void CheckSingleton(const std::string& path, const char* op,
                      const char* what, const AbsParam& p, bool definite) {
    if (p.known() && p.elems.size() != 1) {
      Emit(Sev(definite), path,
           std::string(op) + " " + what + " must denote a single symbol, "
               "got " + SetToString(p.elems));
    }
  }

  /// GROUP: by/on non-empty and disjoint; every 'by' attribute and at
  /// least one 'on' attribute must label a column.
  void CheckGroupLike(const std::string& path, const char* op,
                      const char* by_word, const char* on_word,
                      const AbsParam& by, const AbsParam& on,
                      const TableShape& in, const std::string& arg0,
                      const std::string& cols_note, bool definite,
                      bool by_is_rows) {
    (void)by_is_rows;
    CheckNonEmpty(path, op, by_word, by, definite);
    CheckNonEmpty(path, op, on_word, on, definite);
    if (by.known() && on.known()) {
      for (Symbol a : by.elems) {
        if (on.elems.contains(a)) {
          Emit(Sev(definite), path,
               std::string(op) + " '" + by_word + "' and '" + on_word +
                   "' sets overlap at " + Quoted(a));
        }
      }
    }
    CheckEachLabelsColumn(path, op, by_word, by, in, arg0, cols_note,
                          Sev(definite));
    CheckAllLabelColumns(path, op, on_word, on, in, arg0, cols_note,
                         definite);
  }

  /// Each attribute of `p` must label a column (kernel errors per attr).
  void CheckEachLabelsColumn(const std::string& path, const char* op,
                             const char* which, const AbsParam& p,
                             const TableShape& in, const std::string& arg0,
                             const std::string& cols_note,
                             Severity severity) {
    if (!p.known()) return;
    for (Symbol a : p.elems) {
      if (in.cols.DefinitelyLacks(a)) {
        Emit(severity, path,
             std::string(op) + " '" + which + "' attribute " + Quoted(a) +
                 " labels no column of " + arg0,
             cols_note);
      }
    }
  }

  /// At least one attribute of `p` must label a column (kernel errors only
  /// when the whole set misses).
  void CheckAllLabelColumns(const std::string& path, const char* op,
                            const char* which, const AbsParam& p,
                            const TableShape& in, const std::string& arg0,
                            const std::string& cols_note, bool definite) {
    if (!p.known() || p.elems.empty()) return;
    bool any_may_label = false;
    for (Symbol a : p.elems) any_may_label |= in.cols.MayContain(a);
    if (!any_may_label) {
      Emit(Sev(definite), path,
           "no " + std::string(op) + " '" + which +
               "' attribute labels a column of " + arg0,
           cols_note);
    }
  }

  /// Each attribute of `p` must name a row (MERGE/COLLAPSE kernel errors).
  void CheckEachNamesRow(const std::string& path, const char* op,
                         const char* which, const AbsParam& p,
                         const TableShape& in, const std::string& arg0,
                         const std::string& rows_note, bool definite) {
    if (!p.known()) return;
    for (Symbol a : p.elems) {
      if (in.rows.DefinitelyLacks(a)) {
        Emit(Sev(definite), path,
             std::string(op) + " '" + which + "' attribute " + Quoted(a) +
                 " names no row of " + arg0,
             rows_note);
      }
    }
  }

  /// Warning-only variant for the total operators (CLEAN-UP/PURGE).
  void CheckEachNamesRowWarn(const std::string& path, const char* op,
                             const char* which, const AbsParam& p,
                             const TableShape& in, const std::string& arg0,
                             const std::string& rows_note) {
    if (!p.known()) return;
    for (Symbol a : p.elems) {
      if (in.rows.DefinitelyLacks(a)) {
        Emit(Severity::kWarning, path,
             std::string(op) + " '" + which + "' attribute " + Quoted(a) +
                 " names no row of " + arg0,
             rows_note);
      }
    }
  }

  // -- Shape transfer --------------------------------------------------------

  /// SETNEW's data-row count: m ↦ m·2^(m-1), saturating (helpers shared
  /// with the cost model live on CardInterval).
  static uint64_t SetNewRows(uint64_t m) {
    if (m == 0) return 0;
    if (m == CardInterval::kInf || m - 1 >= 63) return CardInterval::kInf;
    return CardInterval::SatMul(m, uint64_t{1} << (m - 1));
  }

  /// How many tables one executed SPLIT stages: one per distinct value
  /// combination among the data rows of each carrier, so at most
  /// carriers × data rows (and possibly none at all).
  static CardInterval SplitCount(const TableShape& in) {
    return CardInterval::AtMost(
        CardInterval::SatMul(in.count.hi, in.row_card.hi));
  }

  /// The output shape of one instantiation. `in2` is used by the binary
  /// operations only; `same_single_arg` flags a binary operation whose two
  /// arguments literally name the same table pool. The caller owns
  /// `certain` and the carrier `count`.
  static TableShape ApplyOp(OpKind op, const std::vector<AbsParam>& params,
                            const TableShape& in1, const TableShape* in2,
                            bool same_single_arg) {
    TableShape out = in1;
    out.certain = false;
    switch (op) {
      case OpKind::kUnion:
      case OpKind::kProduct:
        out.cols.Join(in2->cols);
        out.rows.Join(in2->rows);
        out.col_card = in1.col_card.Plus(in2->col_card);
        if (op == OpKind::kProduct) {
          // The combined row attribute may fall back to ⊥ (paper-gap),
          // and no particular pairing survives an empty side.
          out.rows.Insert(Symbol::Null());
          out.must_rows = MustSet::Top();
          out.row_card = in1.row_card.Times(in2->row_card);
        } else {
          // Both attribute rows and both data-row blocks concatenate.
          out.must_rows.elems.insert(in2->must_rows.elems.begin(),
                                     in2->must_rows.elems.end());
          out.row_card = in1.row_card.Plus(in2->row_card);
        }
        out.must_cols.elems.insert(in2->must_cols.elems.begin(),
                                   in2->must_cols.elems.end());
        break;
      case OpKind::kDifference:
        // ρ's shape, rows a subset.
        if (same_single_arg && in1.count == CardInterval::Exact(1)) {
          // difference(X, X) over a single carrier: every row subsumes
          // itself, so the result provably has no data rows.
          out.rows = AttrSet::Of({});
          out.must_rows = MustSet::Top();
          out.row_card = CardInterval::Exact(0);
        } else {
          out.must_rows = MustSet::Top();
          out.row_card = CardInterval::AtMost(in1.row_card.hi);
        }
        break;
      case OpKind::kIntersection:
        if (same_single_arg && in1.count == CardInterval::Exact(1)) {
          break;  // intersection(X, X) over a single carrier: identity
        }
        out.must_rows = MustSet::Top();
        out.row_card = CardInterval::AtMost(in1.row_card.hi);
        break;
      case OpKind::kRename: {
        std::optional<Symbol> to = params[0].Singleton();
        std::optional<Symbol> from = params[1].Singleton();
        if (to.has_value() && from.has_value()) {
          out.cols.Erase(*from);
          out.cols.Insert(*to);
          const bool had = out.must_cols.CertainlyContains(*from);
          out.must_cols.Erase(*from);
          if (had) out.must_cols.Insert(*to);
        } else {
          out.cols = AttrSet::Top();
          out.must_cols = MustSet::Top();
        }
        break;  // relabeling only: both dimensions are exact
      }
      case OpKind::kProject:
        out.cols = ApplySetRestriction(in1.cols, params[0]);
        switch (params[0].kind) {
          case AbsParam::Kind::kKnown: {
            std::erase_if(out.must_cols.elems, [&](Symbol a) {
              return !params[0].elems.contains(a);
            });
            bool any_may_match = in1.cols.top;
            for (Symbol a : params[0].elems) {
              any_may_match |= in1.cols.MayContain(a);
            }
            out.col_card = any_may_match
                               ? CardInterval::AtMost(in1.col_card.hi)
                               : CardInterval::Exact(0);
            break;
          }
          case AbsParam::Kind::kUniverseMinus:
            for (Symbol a : params[0].elems) out.must_cols.Erase(a);
            out.col_card = CardInterval::AtMost(in1.col_card.hi);
            break;
          case AbsParam::Kind::kUnknown:
            out.must_cols = MustSet::Top();
            out.col_card = CardInterval::AtMost(in1.col_card.hi);
            break;
        }
        break;  // data rows pass through untouched
      case OpKind::kSelect:
        // SELECT_{A=A} keeps every row (weak equality is reflexive);
        // otherwise a row subset with the column layout preserved.
        if (params[0].Singleton().has_value() &&
            params[0].Singleton() == params[1].Singleton()) {
          break;
        }
        out.must_rows = MustSet::Top();
        out.row_card = CardInterval::AtMost(in1.row_card.hi);
        break;
      case OpKind::kSelectConst:
        out.must_rows = MustSet::Top();
        out.row_card = CardInterval::AtMost(in1.row_card.hi);
        break;
      case OpKind::kGroup:
        // by-attrs leave the columns and become row attributes; the
        // ℬ-column block is replicated once per input data row.
        if (params[0].known()) {
          for (Symbol a : params[0].elems) out.cols.Erase(a);
          for (Symbol a : params[0].elems) out.rows.Insert(a);
          // One leading row per by-attr plus one sparse row per input row.
          out.must_rows = MustSet::Of(params[0].elems);
          out.row_card = in1.row_card.PlusConst(params[0].elems.size());
        } else {
          out.rows = AttrSet::Top();
          out.must_rows = MustSet::Top();
          out.row_card = in1.row_card.Plus(CardInterval{1, CardInterval::kInf});
        }
        if (params[0].known() && params[1].known()) {
          std::erase_if(out.must_cols.elems, [&](Symbol a) {
            return params[0].elems.contains(a) || params[1].elems.contains(a);
          });
          if (in1.row_card.lo >= 1) {
            // At least one block exists, carrying every present ℬ-attr.
            for (Symbol b : params[1].elems) {
              if (in1.must_cols.CertainlyContains(b)) out.must_cols.Insert(b);
            }
          }
        } else {
          out.must_cols = MustSet::Top();
        }
        out.col_card = CardInterval::AtMost(CardInterval::SatAdd(
            in1.col_card.hi,
            CardInterval::SatMul(in1.row_card.hi, in1.col_card.hi)));
        break;
      case OpKind::kMerge:
        // by-attrs' rows are consumed and become columns; every column
        // attribute survives (kept outright or re-emitted in the block).
        if (params[1].known()) {
          for (Symbol a : params[1].elems) out.rows.Erase(a);
          for (Symbol a : params[1].elems) out.cols.Insert(a);
        } else {
          out.cols = AttrSet::Top();
        }
        if (params[0].known() && params[1].known()) {
          // Rows survive only if at least one block forms, i.e. some
          // 'on' attribute certainly labels a column.
          bool block_certain = false;
          for (Symbol b : params[0].elems) {
            block_certain |= in1.must_cols.CertainlyContains(b);
          }
          if (block_certain) {
            for (Symbol a : params[1].elems) out.must_rows.Erase(a);
          } else {
            out.must_rows = MustSet::Top();
          }
          out.col_card = CardInterval::AtMost(CardInterval::SatAdd(
              CardInterval::SatAdd(in1.col_card.hi, in1.col_card.hi),
              params[1].elems.size()));
        } else {
          out.must_rows = MustSet::Top();
          out.col_card = CardInterval::Top();
        }
        out.row_card = in1.row_card.hi == 0 ? CardInterval::Exact(0)
                                            : CardInterval::Top();
        break;
      case OpKind::kSplit:
        // on-attrs' columns are dropped; one leading row per attribute,
        // then at least one matching data row per produced table.
        if (params[0].known()) {
          for (Symbol a : params[0].elems) out.cols.Erase(a);
          for (Symbol a : params[0].elems) out.rows.Insert(a);
          std::erase_if(out.must_cols.elems, [&](Symbol a) {
            return params[0].elems.contains(a);
          });
          out.must_rows = MustSet::Of(params[0].elems);
          out.row_card = CardInterval::Range(
              CardInterval::SatAdd(params[0].elems.size(), 1),
              CardInterval::SatAdd(params[0].elems.size(),
                                   in1.row_card.hi));
        } else {
          out.rows = AttrSet::Top();
          out.must_cols = MustSet::Top();
          out.must_rows = MustSet::Top();
          out.row_card = CardInterval::AtMost(
              CardInterval::SatAdd(in1.row_card.hi, in1.col_card.hi));
        }
        out.col_card = CardInterval::AtMost(in1.col_card.hi);
        break;
      case OpKind::kCollapse:
        // Inverse of split: the by-rows are consumed, re-adding columns;
        // implemented as a merge-on-everything per carrier plus a union.
        if (params[0].known()) {
          for (Symbol a : params[0].elems) out.rows.Erase(a);
          for (Symbol a : params[0].elems) out.cols.Insert(a);
        } else {
          out.cols = AttrSet::Top();
        }
        out.must_rows = MustSet::Top();
        out.row_card = in1.row_card.hi == 0 ? CardInterval::Exact(0)
                                            : CardInterval::Top();
        out.col_card = CardInterval::Top();
        break;
      case OpKind::kTranspose:
        std::swap(out.cols, out.rows);
        std::swap(out.must_cols, out.must_rows);
        std::swap(out.row_card, out.col_card);
        break;
      case OpKind::kSwitch:
        // Row 0 and column 0 swap with the promoted entry's position: any
        // entry may become an attribute, but both dimensions are exact.
        out.cols = AttrSet::Top();
        out.rows = AttrSet::Top();
        out.must_cols = MustSet::Top();
        out.must_rows = MustSet::Top();
        break;
      case OpKind::kCleanUp:
        // Row-redundancy removal: groups merge into a subsumer that keeps
        // the group's row attribute, so attribute regions and the column
        // layout survive; only the data-row count can shrink.
        out.row_card = CardInterval::AtMost(in1.row_card.hi);
        break;
      case OpKind::kPurge:
        out.col_card = CardInterval::AtMost(in1.col_card.hi);
        break;
      case OpKind::kTupleNew:
      case OpKind::kSetNew: {
        std::optional<Symbol> a = params[0].Singleton();
        if (a.has_value()) {
          out.cols.Insert(*a);
          out.must_cols.Insert(*a);
        } else {
          out.cols = AttrSet::Top();
          out.must_cols = MustSet::Top();
        }
        out.col_card = in1.col_card.PlusConst(1);
        if (op == OpKind::kSetNew) {
          // Every input row reappears (tagged) in its singleton subset,
          // but the data-row count explodes to m·2^(m-1). A saturated
          // lower bound clamps at kInf-1 (∞ is upper-bound-only).
          uint64_t lo = SetNewRows(in1.row_card.lo);
          if (lo == CardInterval::kInf) lo = CardInterval::kInf - 1;
          out.row_card = CardInterval{lo, SetNewRows(in1.row_card.hi)};
        }
        break;
      }
    }
    // Every attribute certainly present labels at least one column/names
    // at least one row, so the must-sets bound the dimensions from below.
    const uint64_t col_floor = out.must_cols.elems.size();
    if (out.col_card.lo < col_floor) {
      out.col_card.lo = col_floor < out.col_card.hi ? col_floor
                                                    : out.col_card.hi;
    }
    const uint64_t row_floor = out.must_rows.elems.size();
    if (out.row_card.lo < row_floor) {
      out.row_card.lo = row_floor < out.row_card.hi ? row_floor
                                                    : out.row_card.hi;
    }
    return out;
  }

  /// PROJECT's column restriction under the three parameter shapes.
  static AttrSet ApplySetRestriction(const AttrSet& cols, const AbsParam& p) {
    switch (p.kind) {
      case AbsParam::Kind::kKnown: {
        if (cols.top) return AttrSet::Of(p.elems);
        SymbolSet kept;
        for (Symbol a : cols.elems) {
          if (p.elems.contains(a)) kept.insert(a);
        }
        return AttrSet::Of(std::move(kept));
      }
      case AbsParam::Kind::kUniverseMinus: {
        AttrSet out = cols;
        for (Symbol a : p.elems) out.Erase(a);
        return out;
      }
      case AbsParam::Kind::kUnknown:
        return cols;  // a subset of the input columns either way
    }
    return cols;
  }

  const AnalyzerOptions options_;
  std::vector<Diagnostic>* sink_;
};

/// Dead-store warnings over the top-level statement list.
void DiagnoseDeadStores(const Program& program,
                        std::vector<Diagnostic>* sink) {
  std::vector<bool> keep = DeadStoreKeepMask(program, AllTableNames(program));
  for (size_t i = 0; i < program.statements.size(); ++i) {
    if (keep[i]) continue;
    const auto* a = std::get_if<Assignment>(&program.statements[i].node);
    if (a == nullptr) continue;
    SymbolSet writes;
    bool universal = false;
    CollectParamNames(a->target, &writes, &universal);
    if (universal || writes.size() != 1) continue;
    Symbol target = *writes.begin();
    // The killing statement (a full reassignment or a drop), for the
    // message. The mask guarantees one exists.
    size_t killer = 0;
    bool killed_by_drop = false;
    for (size_t j = i + 1; j < program.statements.size() && killer == 0;
         ++j) {
      SymbolSet w2;
      bool u2 = false;
      if (const auto* b = std::get_if<Assignment>(&program.statements[j].node)) {
        CollectParamNames(b->target, &w2, &u2);
        if (!u2 && w2.size() == 1 && *w2.begin() == target) killer = j + 1;
      } else if (const auto* d =
                     std::get_if<DropStatement>(&program.statements[j].node)) {
        CollectParamNames(d->target, &w2, &u2);
        if (!u2 && w2.contains(target)) {
          killer = j + 1;
          killed_by_drop = true;
        }
      }
    }
    if (killer == 0) continue;
    Diagnostic d;
    d.severity = Severity::kWarning;
    d.path = std::to_string(i + 1);
    d.message = "store to " + Quoted(target) + " is dead: " +
                (killed_by_drop ? "dropped" : "overwritten") +
                " at statement " + std::to_string(killer) +
                " before any read";
    sink->push_back(std::move(d));
  }
}

}  // namespace

AnalysisResult AnalyzeProgram(const Program& program, AbstractDatabase initial,
                              const AnalyzerOptions& options) {
  AnalysisResult result;
  result.final_state = std::move(initial);
  Analyzer analyzer(options, &result.diagnostics);
  analyzer.AnalyzeStatements(program.statements, "", &result.final_state,
                             /*certain_context=*/true, &result.before);
  if (options.check_dead_stores) {
    DiagnoseDeadStores(program, &result.diagnostics);
  }
  // Deterministic order: by statement path (numeric, dotted), then by
  // insertion. Dead-store diagnostics land after the dataflow pass, so a
  // stable sort interleaves them at their statement positions.
  std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return PathLess(a.path, b.path);
                   });
  return result;
}

AnalysisResult AnalyzeCompleteRun(const std::vector<Statement>& statements,
                                  AbstractDatabase entry) {
  AnalysisResult result;
  result.final_state = std::move(entry);
  Analyzer(AnalyzerOptions{}, /*sink=*/nullptr)
      .AnalyzeStatements(statements, "", &result.final_state,
                         /*certain_context=*/true, &result.before);
  return result;
}

const AbstractDatabase& SplicedRun::After(const AnalysisResult& base,
                                          size_t k) const {
  if (k <= index) return base.After(k);
  if (k - index <= span.size()) return span[k - index - 1];
  return base.After(BaseIndex(k));
}

SplicedRun AnalyzeSplice(const std::vector<Statement>& base_statements,
                         const AnalysisResult& base, size_t index,
                         size_t consumed,
                         const std::vector<Statement>& replacement) {
  SplicedRun run;
  run.index = index;
  run.consumed = consumed;
  run.inserted = replacement.size();
  Analyzer analyzer(AnalyzerOptions{}, /*sink=*/nullptr);
  // The running state is the last span entry; until a statement runs it
  // is the base's entry state, read in place.
  auto state = [&]() -> const AbstractDatabase& {
    return run.span.empty() ? base.After(index) : run.span.back();
  };
  auto analyze = [&](const Statement& s) {
    AbstractDatabase next = state();
    analyzer.AnalyzeStatement(s, std::to_string(index + run.analyzed + 1),
                              &next, /*certain_context=*/true);
    ++run.analyzed;
    run.span.push_back(std::move(next));
  };
  for (const Statement& s : replacement) analyze(s);
  // Past the replacement every statement is the base's own, so the first
  // state equal to the base's aligned one is the sync point.
  for (size_t q = index + consumed;; ++q) {
    if (state() == base.After(q)) {
      // The synced state is the base's: leave it out of the span so that
      // `After` hands out the base's own object from here on.
      if (!run.span.empty()) run.span.pop_back();
      break;
    }
    if (q == base_statements.size()) break;  // differs through exit
    analyze(base_statements[q]);
  }
  return run;
}

AnalysisResult ApplySplice(AnalysisResult base, SplicedRun run) {
  const size_t n = base.before.size() - run.consumed + run.inserted;
  AnalysisResult out;
  out.before.reserve(n);
  auto take = [&](size_t k) -> AbstractDatabase& {
    if (k <= run.index) return k < base.before.size() ? base.before[k]
                                                       : base.final_state;
    if (k - run.index <= run.span.size()) return run.span[k - run.index - 1];
    const size_t q = run.BaseIndex(k);
    return q < base.before.size() ? base.before[q] : base.final_state;
  };
  for (size_t k = 0; k < n; ++k) out.before.push_back(std::move(take(k)));
  out.final_state = std::move(take(n));
  return out;
}

AbstractDatabase LoopInvariant(const std::vector<Statement>& body,
                               const AbstractDatabase& entry) {
  return Analyzer(AnalyzerOptions{}, /*sink=*/nullptr)
      .LoopInvariant(body, "", entry, BodyRun::kComplete);
}

// -- Guard facts -------------------------------------------------------------

bool GuardDefinitelyFalse(const AbstractDatabase& state,
                          const SymbolSet& guard, bool guard_universal) {
  if (guard_universal || guard.empty()) return false;
  for (Symbol g : guard) {
    if (state.DefinitelyAbsent(g)) continue;
    TableShape shape = state.ShapeOf(g);
    if (shape.count.DefinitelyZero() || shape.row_card.DefinitelyZero()) {
      continue;
    }
    return false;  // this name may have a data row
  }
  return true;
}

bool GuardCertainlyTrue(const AbstractDatabase& state,
                        const SymbolSet& guard) {
  for (Symbol g : guard) {
    if (!state.CertainlyExists(g)) continue;
    TableShape shape = state.ShapeOf(g);
    if (shape.count.DefinitelyPositive() &&
        shape.row_card.DefinitelyPositive()) {
      return true;
    }
  }
  return false;
}

// -- Name-flow facts ---------------------------------------------------------

void CollectParamNames(const Param& p, SymbolSet* out, bool* universal) {
  for (const ParamItem& it : p.positive) {
    switch (it.kind) {
      case ParamItem::Kind::kSymbol:
        out->insert(it.symbol);
        break;
      case ParamItem::Kind::kNull:
        out->insert(Symbol::Null());
        break;
      case ParamItem::Kind::kWildcard:
      case ParamItem::Kind::kPair:
        *universal = true;
        break;
    }
  }
}

void CollectStatementReads(const Statement& s, SymbolSet* out,
                           bool* universal) {
  if (const auto* a = std::get_if<Assignment>(&s.node)) {
    for (const Param& arg : a->args) CollectParamNames(arg, out, universal);
  } else if (const auto* w = std::get_if<WhileLoop>(&s.node)) {
    CollectParamNames(w->condition, out, universal);
    for (const Statement& inner : w->body) {
      CollectStatementReads(inner, out, universal);
    }
  }
  // Drop reads nothing.
}

void CollectStatementNames(const Statement& s, SymbolSet* out,
                           bool* universal) {
  CollectStatementReads(s, out, universal);
  if (const auto* a = std::get_if<Assignment>(&s.node)) {
    CollectParamNames(a->target, out, universal);
  } else if (const auto* d = std::get_if<DropStatement>(&s.node)) {
    CollectParamNames(d->target, out, universal);
  } else if (const auto* w = std::get_if<WhileLoop>(&s.node)) {
    for (const Statement& inner : w->body) {
      CollectStatementNames(inner, out, universal);
    }
  }
}

SymbolSet AllTableNames(const Program& program) {
  SymbolSet out;
  bool universal = false;
  for (const Statement& s : program.statements) {
    CollectStatementNames(s, &out, &universal);
  }
  return out;
}

std::vector<bool> DeadStoreKeepMask(const Program& program,
                                    const SymbolSet& live_out) {
  SymbolSet live = live_out;
  bool universal_live = false;
  std::vector<bool> keep(program.statements.size(), true);

  for (size_t idx = program.statements.size(); idx-- > 0;) {
    const Statement& s = program.statements[idx];
    if (const auto* a = std::get_if<Assignment>(&s.node)) {
      SymbolSet writes;
      bool universal_write = false;
      CollectParamNames(a->target, &writes, &universal_write);
      const bool single_literal_write =
          !universal_write && writes.size() == 1;
      if (!universal_live && single_literal_write &&
          !live.contains(*writes.begin())) {
        keep[idx] = false;
        continue;  // dead: no kill, no new reads
      }
      // Replacement semantics: a literal write fully overwrites its name.
      if (single_literal_write) live.erase(*writes.begin());
      CollectStatementReads(s, &live, &universal_live);
    } else if (const auto* d = std::get_if<DropStatement>(&s.node)) {
      SymbolSet dropped;
      bool universal_drop = false;
      CollectParamNames(d->target, &dropped, &universal_drop);
      if (!universal_drop) {
        for (Symbol nm : dropped) live.erase(nm);
      }
    } else {
      // While loops: everything read inside stays live across the loop;
      // bodies are left untouched (iteration makes in-body stores
      // observable by earlier body statements).
      CollectStatementReads(s, &live, &universal_live);
    }
  }
  return keep;
}

}  // namespace tabular::analysis
