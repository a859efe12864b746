#ifndef TABULAR_RELATIONAL_FO_WHILE_H_
#define TABULAR_RELATIONAL_FO_WHILE_H_

#include <memory>
#include <vector>

#include "lang/ast.h"
#include "relational/relation.h"

namespace tabular::rel {

/// The relational language FO + while + new of Van den Bussche et al. [3],
/// which the paper simulates inside the tabular algebra (Theorem 4.1) to
/// establish completeness. Expressions are classical relational algebra;
/// statements assign, invent values ("new"), and loop.

struct RelExpr;
using RelExprPtr = std::shared_ptr<RelExpr>;

/// A relational-algebra expression tree.
struct RelExpr {
  enum class Kind {
    kRelation,     // a database relation by name
    kConstRel,     // a literal single-tuple relation (program constants)
    kSelect,       // σ_{a=b}
    kSelectConst,  // σ_{a=v}
    kProject,      // π_attrs
    kRename,       // ρ_{b<-a}
    kUnion,
    kDifference,
    kProduct,
  };

  Kind kind = Kind::kRelation;
  Symbol name;      // kRelation
  Symbol a;         // select / rename "from"
  Symbol b;         // select other attr / rename "to"
  Symbol v;         // selectconst constant
  SymbolVec attrs;  // project / kConstRel schema
  SymbolVec tuple;  // kConstRel single tuple
  RelExprPtr left;
  RelExprPtr right;

  static RelExprPtr Rel(Symbol name);
  /// {(tuple)} over `attrs`: injects program constants. Mentioning value
  /// constants makes the expressed transformation C-generic (generic
  /// modulo those constants), the standard relaxation.
  static RelExprPtr Const(SymbolVec attrs, SymbolVec tuple);
  static RelExprPtr Sel(RelExprPtr e, Symbol a, Symbol b);
  static RelExprPtr SelConst(RelExprPtr e, Symbol a, Symbol v);
  static RelExprPtr Proj(RelExprPtr e, SymbolVec attrs);
  static RelExprPtr Ren(RelExprPtr e, Symbol from, Symbol to);
  static RelExprPtr Un(RelExprPtr l, RelExprPtr r);
  static RelExprPtr Diff(RelExprPtr l, RelExprPtr r);
  static RelExprPtr Prod(RelExprPtr l, RelExprPtr r);
};

/// One FO+while+new statement.
struct FoStatement {
  enum class Kind {
    kAssign,  // R := E
    kNew,     // R := new_A(E): E extended with a column A of fresh values
    kWhile,   // while C ≠ ∅ do body
  };

  Kind kind = Kind::kAssign;
  Symbol target;     // kAssign / kNew
  RelExprPtr expr;   // kAssign / kNew
  Symbol new_attr;   // kNew
  Symbol condition;  // kWhile
  std::vector<FoStatement> body;

  static FoStatement Assign(Symbol target, RelExprPtr e);
  static FoStatement New(Symbol target, RelExprPtr e, Symbol attr);
  static FoStatement While(Symbol condition, std::vector<FoStatement> body);
};

struct FoProgram {
  std::vector<FoStatement> statements;
};

/// Guards for FO+while+new runs (the language is computationally complete).
struct FoOptions {
  size_t max_while_iterations = 10000;
  size_t max_steps = 1000000;
};

/// Evaluates an expression against a database.
Result<Relation> EvalRelExpr(const RelExpr& e, const RelationalDatabase& db,
                             Symbol result_name);

/// Runs an FO+while+new program, updating `db` in place. Fresh values are
/// drawn deterministically, avoiding every symbol in the database
/// (determinacy makes the choice immaterial up to isomorphism).
Status RunFoProgram(const FoProgram& program, RelationalDatabase* db,
                    const FoOptions& options = FoOptions());

/// A compiled FO+while+new program: the tabular program plus the constant
/// tables it references (to be added to the database before running).
struct FoTranslation {
  lang::Program program;
  std::vector<core::Table> prelude_tables;  // names "fo_const<k>"
};

/// Theorem 4.1: compiles an FO+while+new program into an equivalent
/// tabular-algebra program operating on the tabular images of the
/// relations (see rel::RelationalToTabular). The translation introduces
/// scratch tables named "fo_tmp<k>" (and constant tables "fo_const<k>")
/// and drops each once nothing reads it again: a `fo_tmp` right after its
/// one reader, a `fo_const` after its copy, or after the enclosing
/// top-level while when the copy sits in a loop body. After the run, each
/// FO variable R holds, as a table named R, the relation the FO program
/// would compute, and the database holds no other table the translation
/// introduced.
Result<FoTranslation> TranslateFoToTabular(const FoProgram& program);

}  // namespace tabular::rel

#endif  // TABULAR_RELATIONAL_FO_WHILE_H_
