#include "lang/interpreter.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/ops.h"
#include "analysis/analyzer.h"
#include "analysis/cost.h"
#include "exec/parallel.h"
#include "obs/trace.h"

namespace tabular::lang {

using algebra::FreshValueGenerator;
using tabular::Result;
using core::Symbol;
using core::SymbolSet;
using core::SymbolVec;
using core::Table;

namespace {

SymbolVec ToVec(const SymbolSet& set) {
  return SymbolVec(set.begin(), set.end());
}

/// A single wildcard-only parameter (the common case for table names).
const ParamItem* SoleWildcard(const Param& p) {
  if (p.positive.size() == 1 && p.negative.empty() &&
      p.positive[0].kind == ParamItem::Kind::kWildcard) {
    return &p.positive[0];
  }
  return nullptr;
}

/// Enumerates, over the database's table names, every binding of the
/// argument parameters to concrete table names.
struct NameCombo {
  std::vector<Symbol> names;  // one per argument
  Bindings bindings;
};

Status EnumerateArgNames(const std::vector<Param>& args,
                         const SymbolSet& table_names,
                         std::vector<NameCombo>* out) {
  std::vector<NameCombo> partial{NameCombo{}};
  for (const Param& arg : args) {
    std::vector<NameCombo> next;
    for (const NameCombo& combo : partial) {
      const ParamItem* star = SoleWildcard(arg);
      if (star != nullptr && !combo.bindings.contains(star->wildcard_id)) {
        // Unbound wildcard: ranges over every table name.
        for (Symbol nm : table_names) {
          NameCombo extended = combo;
          extended.names.push_back(nm);
          extended.bindings[star->wildcard_id] = nm;
          next.push_back(std::move(extended));
        }
        continue;
      }
      // Evaluable (possibly via existing bindings): each denoted symbol
      // that names a table yields a combination.
      Result<SymbolSet> denoted = EvalParam(arg, combo.bindings, nullptr);
      if (!denoted.ok()) return denoted.status();
      for (Symbol nm : *denoted) {
        if (!table_names.contains(nm)) continue;
        NameCombo extended = combo;
        extended.names.push_back(nm);
        next.push_back(std::move(extended));
      }
    }
    partial = std::move(next);
  }
  *out = std::move(partial);
  return Status::OK();
}

/// One staged result of an assignment instantiation.
struct Staged {
  Symbol target;
  Table table;
};

/// `[<path>] <statement text>`; while loops render condensed (their
/// multi-line body is the node's children).
std::string StatementLabel(const Statement& s, const std::string& path) {
  std::string text;
  if (const auto* w = std::get_if<WhileLoop>(&s.node)) {
    text = "while " + w->condition.ToString() + " do ...";
  } else {
    text = s.ToString();
  }
  return "[" + path + "] " + text;
}

Status AnnotateStatement(const Status& st, const std::string& path) {
  return Status(st.code(), "statement " + path + ": " + st.message());
}

using analysis::CardInterval;

/// The symbol handles a table stores: its (height+1)·(width+1) cells.
uint64_t StoredHandles(const Table& t) {
  return static_cast<uint64_t>(t.height() + 1) * (t.width() + 1);
}

/// The handles of a kernel's output of size `size`, saturating: known
/// before the kernel allocates it.
uint64_t OutputHandles(algebra::OutputSize size) {
  return CardInterval::SatMul(CardInterval::SatAdd(size.rows, 1),
                              CardInterval::SatAdd(size.cols, 1));
}

/// The size of `CartesianProduct(r, s)`'s output.
algebra::OutputSize ProductSize(const Table& r, const Table& s) {
  return algebra::OutputSize{CardInterval::SatMul(r.height(), s.height()),
                             r.width() + s.width()};
}

/// The handles of the tables named `name`.
uint64_t HandlesNamed(const TabularDatabase& db, Symbol name) {
  uint64_t total = 0;
  for (size_t i : db.IndicesNamed(name)) total += StoredHandles(db.tables()[i]);
  return total;
}

}  // namespace

Status Interpreter::CheckHandleBudget(uint64_t staged) const {
  if (CardInterval::SatAdd(stored_handles_, staged) <=
      options_.max_stored_handles) {
    return Status::OK();
  }
  return Status::ResourceExhausted(
      "database would grow past " +
      std::to_string(options_.max_stored_handles) + " stored handles");
}

Status Interpreter::Run(const Program& program, TabularDatabase* db) {
  TABULAR_TRACE_SPAN("interpreter.run", "lang");
  steps_ = 0;
  stored_handles_ = 0;
  for (const Table& t : db->tables()) stored_handles_ += StoredHandles(t);
  last_commit_path_.clear();
  optimize_stats_ = OptimizeStats{};
  profile_root_ = obs::ProfileNode{};
  profile_root_.label = "program";

  // One abstract image of the database and one analysis serve both the
  // error gate and the rewrite engine.
  analysis::AbstractDatabase initial;
  if (options_.analyze_first || options_.optimize) {
    initial = analysis::AbstractDatabase::FromDatabase(*db);
  }
  std::optional<analysis::AnalysisResult> analyzed;
  if (options_.analyze_first) {
    analyzed = analysis::AnalyzeProgram(program, initial);
    if (options_.on_diagnostic) {
      for (const analysis::Diagnostic& d : analyzed->diagnostics) {
        options_.on_diagnostic(d);
      }
    }
    if (const analysis::Diagnostic* err =
            analysis::FirstError(analyzed->diagnostics)) {
      // Rejected before any mutation: the database is untouched.
      return Status::InvalidArgument("statement " + err->path + ": " +
                                     err->message);
    }
  }

  // The rewrite engine runs on the analyzed original (gating above sees
  // the user's statement numbering); the rewritten program is what
  // executes. Each kept rewrite is validator-certified.
  const Program* to_run = &program;
  Program optimized;
  if (options_.optimize) {
    optimized = analyzed ? OptimizeProgram(program, initial,
                                           std::move(*analyzed), {},
                                           &optimize_stats_)
                         : OptimizeProgram(program, initial, {},
                                           &optimize_stats_);
    to_run = &optimized;
  }

  obs::ProfileNode* root = options_.profile ? &profile_root_ : nullptr;
  const uint64_t t0 = obs::TraceNowNs();
  Status st = RunStatements(to_run->statements, db, "", root);
  if (root != nullptr) {
    root->wall_ns = obs::TraceNowNs() - t0;
    root->invocations = 1;
    root->threads = exec::Threads();
  }
  if (!st.ok() && !last_commit_path_.empty()) {
    st = Status(st.code(),
                st.message() + " (partial results committed through "
                "statement " + last_commit_path_ + ")");
  }
  return st;
}

Status Interpreter::RunStatements(const std::vector<Statement>& statements,
                                  TabularDatabase* db,
                                  const std::string& path_prefix,
                                  obs::ProfileNode* parent) {
  // One child per statement; while-loop iterations re-enter with the same
  // parent and accumulate into the same nodes.
  if (parent != nullptr && parent->children.size() != statements.size()) {
    parent->children.resize(statements.size());
  }
  for (size_t i = 0; i < statements.size(); ++i) {
    const Statement& s = statements[i];
    const std::string path = path_prefix + std::to_string(i + 1);
    obs::ProfileNode* node =
        parent == nullptr ? nullptr : &parent->children[i];
    if (node != nullptr && node->label.empty()) {
      node->label = StatementLabel(s, path);
    }
    if (const auto* a = std::get_if<Assignment>(&s.node)) {
      Status st = RunAssignment(*a, path, db, node);
      if (!st.ok()) return AnnotateStatement(st, path);
    } else if (const auto* d = std::get_if<DropStatement>(&s.node)) {
      // Drops resolve literal names only (a wildcard drop would need a
      // binding context it does not have).
      const uint64_t t0 = obs::TraceNowNs();
      Result<SymbolSet> names = EvalParam(d->target, Bindings{}, nullptr);
      if (!names.ok()) return AnnotateStatement(names.status(), path);
      for (Symbol nm : *names) {
        if (!db->IndicesNamed(nm).empty()) last_commit_path_ = path;
        stored_handles_ -= HandlesNamed(*db, nm);
        db->RemoveNamed(nm);
      }
      if (node != nullptr) {
        ++node->invocations;
        node->wall_ns += obs::TraceNowNs() - t0;
      }
    } else {
      // While errors are annotated at the failing inner statement (or by
      // RunWhile itself for condition/limit errors), not re-wrapped here.
      TABULAR_RETURN_NOT_OK(
          RunWhile(std::get<WhileLoop>(s.node), db, path, node));
    }
  }
  return Status::OK();
}

Status Interpreter::RunWhile(const WhileLoop& loop, TabularDatabase* db,
                             const std::string& path,
                             obs::ProfileNode* node) {
  TABULAR_TRACE_SPAN("while", "lang");
  const uint64_t t0 = obs::TraceNowNs();
  for (size_t iter = 0;; ++iter) {
    if (iter >= options_.max_while_iterations) {
      return AnnotateStatement(
          Status::ResourceExhausted(
              "while loop exceeded " +
              std::to_string(options_.max_while_iterations) + " iterations"),
          path);
    }
    // Condition: some table whose name matches the parameter has data rows.
    Result<SymbolSet> names = EvalParam(loop.condition, Bindings{}, nullptr);
    if (!names.ok()) return AnnotateStatement(names.status(), path);
    bool nonempty = std::any_of(names->begin(), names->end(), [&](Symbol nm) {
      return db->NameHasDataRows(nm);
    });
    if (!nonempty) break;
    if (node != nullptr) ++node->iterations;
    TABULAR_RETURN_NOT_OK(RunStatements(loop.body, db, path + ".", node));
  }
  if (node != nullptr) {
    ++node->invocations;
    node->wall_ns += obs::TraceNowNs() - t0;
  }
  return Status::OK();
}

Status Interpreter::RunAssignment(const Assignment& stmt,
                                  const std::string& path,
                                  TabularDatabase* db,
                                  obs::ProfileNode* node) {
  // OpKindToString returns the static keyword table entry, which satisfies
  // TraceSpan's static-storage requirement.
  obs::TraceSpan span(OpKindToString(stmt.op), "lang");
  const uint64_t t0 = obs::TraceNowNs();
  uint64_t insts = 0, rows_in = 0, cols_in = 0;
  if (stmt.params.size() != ExpectedParamCount(stmt.op)) {
    return Status::InvalidArgument(
        std::string(OpKindToString(stmt.op)) + " expects " +
        std::to_string(ExpectedParamCount(stmt.op)) + " parameter(s)");
  }
  if (stmt.args.size() != ExpectedArgCount(stmt.op)) {
    return Status::InvalidArgument(
        std::string(OpKindToString(stmt.op)) + " expects " +
        std::to_string(ExpectedArgCount(stmt.op)) + " argument(s)");
  }

  std::vector<NameCombo> combos;
  TABULAR_RETURN_NOT_OK(
      EnumerateArgNames(stmt.args, db->TableNames(), &combos));

  // Snapshot: all statements of one instantiation read the pre-statement
  // database state.
  std::vector<Staged> staged;
  uint64_t staged_handles = 0;
  // Building the generator scans every symbol in the database; only the
  // tagging operations need it.
  std::optional<FreshValueGenerator> gen;
  if (stmt.op == OpKind::kTupleNew || stmt.op == OpKind::kSetNew) {
    gen.emplace(db->AllSymbols());
  }

  for (const NameCombo& combo : combos) {
    // COLLAPSE consumes *all* tables with the matched name at once.
    if (stmt.op == OpKind::kCollapse) {
      if (++steps_ > options_.max_steps) {
        return Status::ResourceExhausted("program step limit exceeded");
      }
      std::vector<Table> group = db->Named(combo.names[0]);
      const Table* context = group.empty() ? nullptr : &group[0];
      ++insts;
      for (const Table& g : group) rows_in += g.height();
      if (!group.empty()) cols_in += group[0].width();
      TABULAR_ASSIGN_OR_RETURN(
          SymbolSet by, EvalParam(stmt.params[0], combo.bindings, context));
      TABULAR_ASSIGN_OR_RETURN(
          Symbol target,
          EvalSingleton(stmt.target, combo.bindings, context));
      TABULAR_ASSIGN_OR_RETURN(
          Table result, algebra::Collapse(group, ToVec(by), target));
      staged_handles += StoredHandles(result);
      TABULAR_RETURN_NOT_OK(CheckHandleBudget(staged_handles));
      staged.push_back(Staged{target, std::move(result)});
      continue;
    }

    // Cross product over the concrete tables carrying each matched name
    // (pointers into the database: it is not mutated until staging ends).
    std::vector<std::vector<const Table*>> pools;
    for (Symbol nm : combo.names) {
      std::vector<const Table*> pool;
      for (size_t ti : db->IndicesNamed(nm)) {
        pool.push_back(&db->tables()[ti]);
      }
      pools.push_back(std::move(pool));
    }
    std::vector<size_t> idx(pools.size(), 0);
    bool done = pools.empty() ||
                std::any_of(pools.begin(), pools.end(),
                            [](const auto& p) { return p.empty(); });
    while (!done) {
      if (++steps_ > options_.max_steps) {
        return Status::ResourceExhausted("program step limit exceeded");
      }
      const Table& first = *pools[0][idx[0]];
      const Table* second =
          pools.size() > 1 ? pools[1][idx[1]] : nullptr;
      const Table* context = &first;
      const size_t staged_before = staged.size();
      ++insts;
      rows_in += first.height();
      cols_in += first.width();
      TABULAR_ASSIGN_OR_RETURN(
          Symbol target,
          EvalSingleton(stmt.target, combo.bindings, context));

      auto set_param = [&](size_t i) -> Result<SymbolVec> {
        TABULAR_ASSIGN_OR_RETURN(
            SymbolSet s, EvalParam(stmt.params[i], combo.bindings, context));
        return ToVec(s);
      };
      auto one_param = [&](size_t i) -> Result<Symbol> {
        return EvalSingleton(stmt.params[i], combo.bindings, context);
      };
      // Fails before a kernel allocates an output of `size`, given by the
      // kernel's own formula. An output with no data rows is left to the
      // check after the kernel: a call the kernel refuses has 0 rows, so
      // it still reports the kernel's own error.
      auto check_output = [&](algebra::OutputSize size) -> Status {
        if (size.rows == 0) return Status::OK();
        return CheckHandleBudget(
            CardInterval::SatAdd(staged_handles, OutputHandles(size)));
      };

      switch (stmt.op) {
        case OpKind::kUnion: {
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::Union(first, *second, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kDifference: {
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::Difference(first, *second, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kIntersection: {
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::Intersection(first, *second, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kProduct: {
          TABULAR_RETURN_NOT_OK(check_output(ProductSize(first, *second)));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::CartesianProduct(first, *second, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kRename: {
          TABULAR_ASSIGN_OR_RETURN(Symbol to, one_param(0));
          TABULAR_ASSIGN_OR_RETURN(Symbol from, one_param(1));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::Rename(first, from, to, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kProject: {
          TABULAR_ASSIGN_OR_RETURN(
              SymbolSet attrs,
              EvalParam(stmt.params[0], combo.bindings, context));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::Project(first, attrs, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kSelect: {
          TABULAR_ASSIGN_OR_RETURN(Symbol a, one_param(0));
          TABULAR_ASSIGN_OR_RETURN(Symbol b, one_param(1));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::Select(first, a, b, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kSelectConst: {
          TABULAR_ASSIGN_OR_RETURN(Symbol a, one_param(0));
          TABULAR_ASSIGN_OR_RETURN(Symbol v, one_param(1));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::SelectConstant(first, a, v, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kGroup: {
          TABULAR_ASSIGN_OR_RETURN(SymbolVec by, set_param(0));
          TABULAR_ASSIGN_OR_RETURN(SymbolVec on, set_param(1));
          TABULAR_RETURN_NOT_OK(
              check_output(algebra::GroupOutputSize(first, by, on)));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::Group(first, by, on, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kMerge: {
          TABULAR_ASSIGN_OR_RETURN(SymbolVec on, set_param(0));
          TABULAR_ASSIGN_OR_RETURN(SymbolVec by, set_param(1));
          TABULAR_RETURN_NOT_OK(
              check_output(algebra::MergeOutputSize(first, on, by)));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::Merge(first, on, by, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kSplit: {
          TABULAR_ASSIGN_OR_RETURN(SymbolVec on, set_param(0));
          TABULAR_ASSIGN_OR_RETURN(
              std::vector<Table> rs, algebra::Split(first, on, target));
          for (Table& r : rs) staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kCollapse:
          return Status::Internal("collapse handled above");
        case OpKind::kTranspose: {
          TABULAR_ASSIGN_OR_RETURN(Table r,
                                   algebra::Transpose(first, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kSwitch: {
          TABULAR_ASSIGN_OR_RETURN(Symbol v, one_param(0));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::Switch(first, v, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kCleanUp: {
          TABULAR_ASSIGN_OR_RETURN(SymbolVec by, set_param(0));
          TABULAR_ASSIGN_OR_RETURN(SymbolVec on, set_param(1));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::CleanUp(first, by, on, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kPurge: {
          TABULAR_ASSIGN_OR_RETURN(SymbolVec on, set_param(0));
          TABULAR_ASSIGN_OR_RETURN(SymbolVec by, set_param(1));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::Purge(first, on, by, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kTupleNew: {
          TABULAR_ASSIGN_OR_RETURN(Symbol a, one_param(0));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::TupleNew(first, a, &*gen, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
        case OpKind::kSetNew: {
          TABULAR_ASSIGN_OR_RETURN(Symbol a, one_param(0));
          TABULAR_RETURN_NOT_OK(
              check_output(algebra::SetNewOutputSize(first)));
          TABULAR_ASSIGN_OR_RETURN(
              Table r, algebra::SetNew(first, a, &*gen, target));
          staged.push_back(Staged{target, std::move(r)});
          break;
        }
      }

      for (size_t i = staged_before; i < staged.size(); ++i) {
        staged_handles += StoredHandles(staged[i].table);
      }
      TABULAR_RETURN_NOT_OK(CheckHandleBudget(staged_handles));

      // Advance the cross-product indices.
      size_t p = 0;
      for (; p < pools.size(); ++p) {
        if (++idx[p] < pools[p].size()) break;
        idx[p] = 0;
      }
      done = (p == pools.size());
    }
  }

  // Replacement semantics: drop previous carriers of each produced name.
  SymbolSet produced;
  for (const Staged& s : staged) produced.insert(s.target);
  if (!staged.empty()) last_commit_path_ = path;
  for (Symbol nm : produced) {
    stored_handles_ -= HandlesNamed(*db, nm);
    db->RemoveNamed(nm);
  }
  if (node != nullptr) {
    node->invocations += insts;
    node->rows_in += rows_in;
    node->cols_in += cols_in;
    for (const Staged& s : staged) {
      node->rows_out += s.table.height();
      node->cols_out += s.table.width();
    }
    node->threads = exec::Threads();
    node->wall_ns += obs::TraceNowNs() - t0;
  }
  for (Staged& s : staged) db->Add(std::move(s.table));
  stored_handles_ += staged_handles;
  return Status::OK();
}

Status RunProgram(const Program& program, TabularDatabase* db) {
  Interpreter interp;
  return interp.Run(program, db);
}

namespace {

void BuildExplain(const std::vector<Statement>& statements,
                  const std::string& path_prefix, obs::ProfileNode* parent) {
  parent->children.resize(statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    const std::string path = path_prefix + std::to_string(i + 1);
    obs::ProfileNode& node = parent->children[i];
    node.label = StatementLabel(statements[i], path);
    if (const auto* w = std::get_if<WhileLoop>(&statements[i].node)) {
      BuildExplain(w->body, path + ".", &node);
    }
  }
}

}  // namespace

obs::ProfileNode Explain(const Program& program) {
  obs::ProfileNode root;
  root.label = "program";
  BuildExplain(program.statements, "", &root);
  return root;
}

namespace {

/// Resolves a dotted statement path ("2", "2.1") to its EXPLAIN node.
obs::ProfileNode* NodeAtPath(obs::ProfileNode* root, const std::string& path) {
  obs::ProfileNode* node = root;
  size_t pos = 0;
  while (pos < path.size()) {
    const size_t dot = path.find('.', pos);
    const size_t end = dot == std::string::npos ? path.size() : dot;
    const size_t index =
        static_cast<size_t>(std::stoull(path.substr(pos, end - pos)));
    if (index == 0 || index > node->children.size()) return nullptr;
    node = &node->children[index - 1];
    pos = dot == std::string::npos ? path.size() : dot + 1;
  }
  return node;
}

}  // namespace

obs::ProfileNode Explain(const Program& program,
                         const analysis::AbstractDatabase& initial) {
  obs::ProfileNode root = Explain(program);
  const analysis::CostReport cost = analysis::EstimateCost(program, initial);
  for (const analysis::StatementCost& c : cost.statements) {
    obs::ProfileNode* node = NodeAtPath(&root, c.path);
    if (node == nullptr) continue;
    if (c.is_drop) {
      node->label += "  est work<=" + analysis::FormatCost(c.work);
    } else {
      node->label += "  est rows<=" + analysis::FormatCost(c.out_rows) +
                     " bytes<=" + analysis::FormatCost(c.out_bytes) +
                     " work<=" + analysis::FormatCost(c.work);
    }
  }
  root.label += "  est work<=" + analysis::FormatCost(cost.total_work) +
                " peak rows<=" + analysis::FormatCost(cost.peak_rows) +
                " peak bytes<=" + analysis::FormatCost(cost.peak_bytes);
  if (cost.unbounded()) {
    root.label += "  UNBOUNDED at [" + cost.unbounded_path + "]";
  }
  return root;
}

}  // namespace tabular::lang
