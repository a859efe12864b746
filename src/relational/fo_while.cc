#include "relational/fo_while.h"

#include <initializer_list>
#include <string>
#include <utility>

#include "algebra/tagging.h"

namespace tabular::rel {

RelExprPtr RelExpr::Rel(Symbol name) {
  auto e = std::make_shared<RelExpr>();
  e->kind = Kind::kRelation;
  e->name = name;
  return e;
}

RelExprPtr RelExpr::Const(SymbolVec attrs, SymbolVec tuple) {
  auto e = std::make_shared<RelExpr>();
  e->kind = Kind::kConstRel;
  e->attrs = std::move(attrs);
  e->tuple = std::move(tuple);
  return e;
}

RelExprPtr RelExpr::Sel(RelExprPtr sub, Symbol a, Symbol b) {
  auto e = std::make_shared<RelExpr>();
  e->kind = Kind::kSelect;
  e->left = std::move(sub);
  e->a = a;
  e->b = b;
  return e;
}

RelExprPtr RelExpr::SelConst(RelExprPtr sub, Symbol a, Symbol v) {
  auto e = std::make_shared<RelExpr>();
  e->kind = Kind::kSelectConst;
  e->left = std::move(sub);
  e->a = a;
  e->v = v;
  return e;
}

RelExprPtr RelExpr::Proj(RelExprPtr sub, SymbolVec attrs) {
  auto e = std::make_shared<RelExpr>();
  e->kind = Kind::kProject;
  e->left = std::move(sub);
  e->attrs = std::move(attrs);
  return e;
}

RelExprPtr RelExpr::Ren(RelExprPtr sub, Symbol from, Symbol to) {
  auto e = std::make_shared<RelExpr>();
  e->kind = Kind::kRename;
  e->left = std::move(sub);
  e->a = from;
  e->b = to;
  return e;
}

RelExprPtr RelExpr::Un(RelExprPtr l, RelExprPtr r) {
  auto e = std::make_shared<RelExpr>();
  e->kind = Kind::kUnion;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

RelExprPtr RelExpr::Diff(RelExprPtr l, RelExprPtr r) {
  auto e = std::make_shared<RelExpr>();
  e->kind = Kind::kDifference;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

RelExprPtr RelExpr::Prod(RelExprPtr l, RelExprPtr r) {
  auto e = std::make_shared<RelExpr>();
  e->kind = Kind::kProduct;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

FoStatement FoStatement::Assign(Symbol target, RelExprPtr e) {
  FoStatement s;
  s.kind = Kind::kAssign;
  s.target = target;
  s.expr = std::move(e);
  return s;
}

FoStatement FoStatement::New(Symbol target, RelExprPtr e, Symbol attr) {
  FoStatement s;
  s.kind = Kind::kNew;
  s.target = target;
  s.expr = std::move(e);
  s.new_attr = attr;
  return s;
}

FoStatement FoStatement::While(Symbol condition,
                               std::vector<FoStatement> body) {
  FoStatement s;
  s.kind = Kind::kWhile;
  s.condition = condition;
  s.body = std::move(body);
  return s;
}

Result<Relation> EvalRelExpr(const RelExpr& e, const RelationalDatabase& db,
                             Symbol result_name) {
  switch (e.kind) {
    case RelExpr::Kind::kRelation: {
      TABULAR_ASSIGN_OR_RETURN(Relation r, db.Get(e.name));
      r.set_name(result_name);
      return r;
    }
    case RelExpr::Kind::kConstRel: {
      Relation r(result_name, e.attrs);
      TABULAR_RETURN_NOT_OK(r.Validate());
      TABULAR_RETURN_NOT_OK(r.Insert(e.tuple));
      return r;
    }
    case RelExpr::Kind::kSelect: {
      TABULAR_ASSIGN_OR_RETURN(Relation l,
                               EvalRelExpr(*e.left, db, result_name));
      return Select(l, e.a, e.b, result_name);
    }
    case RelExpr::Kind::kSelectConst: {
      TABULAR_ASSIGN_OR_RETURN(Relation l,
                               EvalRelExpr(*e.left, db, result_name));
      return SelectConst(l, e.a, e.v, result_name);
    }
    case RelExpr::Kind::kProject: {
      TABULAR_ASSIGN_OR_RETURN(Relation l,
                               EvalRelExpr(*e.left, db, result_name));
      return Project(l, e.attrs, result_name);
    }
    case RelExpr::Kind::kRename: {
      TABULAR_ASSIGN_OR_RETURN(Relation l,
                               EvalRelExpr(*e.left, db, result_name));
      return Rename(l, e.a, e.b, result_name);
    }
    case RelExpr::Kind::kUnion: {
      TABULAR_ASSIGN_OR_RETURN(Relation l,
                               EvalRelExpr(*e.left, db, result_name));
      TABULAR_ASSIGN_OR_RETURN(Relation r,
                               EvalRelExpr(*e.right, db, result_name));
      return Union(l, r, result_name);
    }
    case RelExpr::Kind::kDifference: {
      TABULAR_ASSIGN_OR_RETURN(Relation l,
                               EvalRelExpr(*e.left, db, result_name));
      TABULAR_ASSIGN_OR_RETURN(Relation r,
                               EvalRelExpr(*e.right, db, result_name));
      return Difference(l, r, result_name);
    }
    case RelExpr::Kind::kProduct: {
      TABULAR_ASSIGN_OR_RETURN(Relation l,
                               EvalRelExpr(*e.left, db, result_name));
      TABULAR_ASSIGN_OR_RETURN(Relation r,
                               EvalRelExpr(*e.right, db, result_name));
      return Product(l, r, result_name);
    }
  }
  return Status::Internal("unknown expression kind");
}

namespace {

Status RunStatements(const std::vector<FoStatement>& statements,
                     RelationalDatabase* db,
                     algebra::FreshValueGenerator* gen,
                     const FoOptions& options, size_t* steps) {
  for (const FoStatement& s : statements) {
    if (++*steps > options.max_steps) {
      return Status::ResourceExhausted("FO program step limit exceeded");
    }
    switch (s.kind) {
      case FoStatement::Kind::kAssign: {
        TABULAR_ASSIGN_OR_RETURN(Relation r,
                                 EvalRelExpr(*s.expr, *db, s.target));
        db->Put(std::move(r));
        break;
      }
      case FoStatement::Kind::kNew: {
        TABULAR_ASSIGN_OR_RETURN(Relation base,
                                 EvalRelExpr(*s.expr, *db, s.target));
        gen->Reserve(db->AllSymbols());
        SymbolVec attrs = base.attributes();
        attrs.push_back(s.new_attr);
        Relation tagged(s.target, std::move(attrs));
        TABULAR_RETURN_NOT_OK(tagged.Validate());
        for (const SymbolVec& t : base.tuples()) {
          SymbolVec extended = t;
          extended.push_back(gen->Fresh());
          TABULAR_RETURN_NOT_OK(tagged.Insert(std::move(extended)));
        }
        db->Put(std::move(tagged));
        break;
      }
      case FoStatement::Kind::kWhile: {
        for (size_t iter = 0;; ++iter) {
          if (iter >= options.max_while_iterations) {
            return Status::ResourceExhausted(
                "FO while loop exceeded " +
                std::to_string(options.max_while_iterations) +
                " iterations");
          }
          const Relation* cond = db->Find(s.condition);
          if (cond == nullptr || cond->empty()) break;
          TABULAR_RETURN_NOT_OK(
              RunStatements(s.body, db, gen, options, steps));
        }
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status RunFoProgram(const FoProgram& program, RelationalDatabase* db,
                    const FoOptions& options) {
  algebra::FreshValueGenerator gen(db->AllSymbols());
  size_t steps = 0;
  return RunStatements(program.statements, db, &gen, options, &steps);
}

// ---------------------------------------------------------------------------
// Theorem 4.1: FO + while + new  ⟶  tabular algebra
// ---------------------------------------------------------------------------

namespace {

using lang::Assignment;
using lang::OpKind;
using lang::Param;
using lang::Statement;

/// Emits tabular statements computing `e` into a table named `out`, and
/// drops every table it introduces once nothing reads it again, so a run
/// leaves exactly the relations the FO program computes.
class FoTranslator {
 public:
  Symbol FreshScratch() {
    return Symbol::Name("fo_tmp" + std::to_string(counter_++));
  }

  void Emit(Assignment a, std::vector<Statement>* sink) {
    Statement s;
    s.node = std::move(a);
    sink->push_back(std::move(s));
  }

  /// Emits `a`, then drops the scratch tables it reads. Each `fo_tmp` has
  /// exactly one reader, `a`; inside a while body the body rewrites it
  /// before that read on every pass, so the drop is safe there too.
  void EmitReading(Assignment a, std::initializer_list<Symbol> scratch,
                   std::vector<Statement>* sink) {
    Emit(std::move(a), sink);
    for (Symbol t : scratch) EmitDrop(t, sink);
  }

  void EmitDrop(Symbol t, std::vector<Statement>* sink) {
    lang::DropStatement d;
    d.target = Param::Literal(t);
    Statement s;
    s.node = std::move(d);
    sink->push_back(std::move(s));
  }

  /// Appends `T <- cleanup by {*9} on {_} (T);` — generic duplicate-row
  /// elimination (the unbound set-star reads "all column attributes").
  void EmitDedup(Symbol t, std::vector<Statement>* sink) {
    Assignment a;
    a.op = OpKind::kCleanUp;
    a.target = Param::Literal(t);
    a.params.push_back(Param::Wildcard(9));
    a.params.push_back(Param::Null());
    a.args.push_back(Param::Literal(t));
    Emit(std::move(a), sink);
  }

  /// Appends `T <- purge on {*9} by {} (T);` — merges the duplicated
  /// column copies a tabular union introduces.
  void EmitColumnPurge(Symbol t, std::vector<Statement>* sink) {
    Assignment a;
    a.op = OpKind::kPurge;
    a.target = Param::Literal(t);
    a.params.push_back(Param::Wildcard(9));
    a.params.push_back(Param{});  // empty 'by': key columns by attribute
    a.args.push_back(Param::Literal(t));
    Emit(std::move(a), sink);
  }

  Status Translate(const RelExpr& e, Symbol out,
                   std::vector<Statement>* sink) {
    switch (e.kind) {
      case RelExpr::Kind::kRelation: {
        // Copy via an all-attributes projection (also renames).
        Assignment a;
        a.op = OpKind::kProject;
        a.target = Param::Literal(out);
        a.params.push_back(Param::Wildcard(9));
        a.args.push_back(Param::Literal(e.name));
        Emit(std::move(a), sink);
        return Status::OK();
      }
      case RelExpr::Kind::kConstRel: {
        // Materialize the constant tuple as a prelude table and copy it.
        Symbol cname =
            Symbol::Name("fo_const" + std::to_string(prelude_.size()));
        core::Table t(1, 1 + e.attrs.size());
        t.set_name(cname);
        for (size_t j = 0; j < e.attrs.size(); ++j) {
          t.set(0, j + 1, e.attrs[j]);
        }
        core::SymbolVec row;
        row.push_back(Symbol::Null());
        row.insert(row.end(), e.tuple.begin(), e.tuple.end());
        t.AppendRow(row);
        prelude_.push_back(std::move(t));
        Assignment a;
        a.op = OpKind::kProject;
        a.target = Param::Literal(out);
        a.params.push_back(Param::Wildcard(9));
        a.args.push_back(Param::Literal(cname));
        Emit(std::move(a), sink);
        // A copy in a loop body runs on every pass: the prelude table
        // must outlive the enclosing top-level while.
        if (loop_depth_ == 0) {
          EmitDrop(cname, sink);
        } else {
          loop_consts_.push_back(cname);
        }
        return Status::OK();
      }
      case RelExpr::Kind::kSelect: {
        Symbol sub = FreshScratch();
        TABULAR_RETURN_NOT_OK(Translate(*e.left, sub, sink));
        Assignment a;
        a.op = OpKind::kSelect;
        a.target = Param::Literal(out);
        a.params.push_back(Param::Literal(e.a));
        a.params.push_back(Param::Literal(e.b));
        a.args.push_back(Param::Literal(sub));
        EmitReading(std::move(a), {sub}, sink);
        return Status::OK();
      }
      case RelExpr::Kind::kSelectConst: {
        Symbol sub = FreshScratch();
        TABULAR_RETURN_NOT_OK(Translate(*e.left, sub, sink));
        Assignment a;
        a.op = OpKind::kSelectConst;
        a.target = Param::Literal(out);
        a.params.push_back(Param::Literal(e.a));
        a.params.push_back(Param::Literal(e.v));
        a.args.push_back(Param::Literal(sub));
        EmitReading(std::move(a), {sub}, sink);
        return Status::OK();
      }
      case RelExpr::Kind::kProject: {
        Symbol sub = FreshScratch();
        TABULAR_RETURN_NOT_OK(Translate(*e.left, sub, sink));
        Assignment a;
        a.op = OpKind::kProject;
        a.target = Param::Literal(out);
        Param attrs;
        for (Symbol s : e.attrs) {
          lang::ParamItem item;
          item.kind = lang::ParamItem::Kind::kSymbol;
          item.symbol = s;
          attrs.positive.push_back(item);
        }
        a.params.push_back(std::move(attrs));
        a.args.push_back(Param::Literal(sub));
        EmitReading(std::move(a), {sub}, sink);
        EmitDedup(out, sink);  // projection may collapse tuples
        return Status::OK();
      }
      case RelExpr::Kind::kRename: {
        Symbol sub = FreshScratch();
        TABULAR_RETURN_NOT_OK(Translate(*e.left, sub, sink));
        Assignment a;
        a.op = OpKind::kRename;
        a.target = Param::Literal(out);
        a.params.push_back(Param::Literal(e.b));  // to
        a.params.push_back(Param::Literal(e.a));  // from
        a.args.push_back(Param::Literal(sub));
        EmitReading(std::move(a), {sub}, sink);
        return Status::OK();
      }
      case RelExpr::Kind::kUnion: {
        Symbol l = FreshScratch();
        Symbol r = FreshScratch();
        TABULAR_RETURN_NOT_OK(Translate(*e.left, l, sink));
        TABULAR_RETURN_NOT_OK(Translate(*e.right, r, sink));
        Assignment a;
        a.op = OpKind::kUnion;
        a.target = Param::Literal(out);
        a.args.push_back(Param::Literal(l));
        a.args.push_back(Param::Literal(r));
        EmitReading(std::move(a), {l, r}, sink);
        // Classical union = tabular union + column purge + dedup (§3.4).
        EmitColumnPurge(out, sink);
        EmitDedup(out, sink);
        return Status::OK();
      }
      case RelExpr::Kind::kDifference: {
        Symbol l = FreshScratch();
        Symbol r = FreshScratch();
        TABULAR_RETURN_NOT_OK(Translate(*e.left, l, sink));
        TABULAR_RETURN_NOT_OK(Translate(*e.right, r, sink));
        Assignment a;
        a.op = OpKind::kDifference;
        a.target = Param::Literal(out);
        a.args.push_back(Param::Literal(l));
        a.args.push_back(Param::Literal(r));
        EmitReading(std::move(a), {l, r}, sink);
        return Status::OK();
      }
      case RelExpr::Kind::kProduct: {
        Symbol l = FreshScratch();
        Symbol r = FreshScratch();
        TABULAR_RETURN_NOT_OK(Translate(*e.left, l, sink));
        TABULAR_RETURN_NOT_OK(Translate(*e.right, r, sink));
        Assignment a;
        a.op = OpKind::kProduct;
        a.target = Param::Literal(out);
        a.args.push_back(Param::Literal(l));
        a.args.push_back(Param::Literal(r));
        EmitReading(std::move(a), {l, r}, sink);
        return Status::OK();
      }
    }
    return Status::Internal("unknown expression kind");
  }

  Status TranslateStatements(const std::vector<FoStatement>& statements,
                             std::vector<Statement>* sink) {
    for (const FoStatement& s : statements) {
      switch (s.kind) {
        case FoStatement::Kind::kAssign:
          TABULAR_RETURN_NOT_OK(Translate(*s.expr, s.target, sink));
          break;
        case FoStatement::Kind::kNew: {
          Symbol sub = FreshScratch();
          TABULAR_RETURN_NOT_OK(Translate(*s.expr, sub, sink));
          Assignment a;
          a.op = OpKind::kTupleNew;
          a.target = Param::Literal(s.target);
          a.params.push_back(Param::Literal(s.new_attr));
          a.args.push_back(Param::Literal(sub));
          EmitReading(std::move(a), {sub}, sink);
          break;
        }
        case FoStatement::Kind::kWhile: {
          lang::WhileLoop loop;
          loop.condition = Param::Literal(s.condition);
          ++loop_depth_;
          TABULAR_RETURN_NOT_OK(TranslateStatements(s.body, &loop.body));
          --loop_depth_;
          Statement st;
          st.node = std::move(loop);
          sink->push_back(std::move(st));
          if (loop_depth_ == 0) {
            for (Symbol c : loop_consts_) EmitDrop(c, sink);
            loop_consts_.clear();
          }
          break;
        }
      }
    }
    return Status::OK();
  }

 public:
  std::vector<core::Table> TakePrelude() { return std::move(prelude_); }

 private:
  size_t counter_ = 0;
  std::vector<core::Table> prelude_;
  size_t loop_depth_ = 0;
  /// Prelude tables copied inside the current top-level while, dropped
  /// after it.
  std::vector<Symbol> loop_consts_;
};

}  // namespace

Result<FoTranslation> TranslateFoToTabular(const FoProgram& program) {
  FoTranslator translator;
  FoTranslation out;
  TABULAR_RETURN_NOT_OK(translator.TranslateStatements(
      program.statements, &out.program.statements));
  out.prelude_tables = translator.TakePrelude();
  return out;
}

}  // namespace tabular::rel
