#ifndef TABULAR_LANG_AST_H_
#define TABULAR_LANG_AST_H_

#include <cstddef>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "lang/param.h"

namespace tabular::lang {

/// The tabular-algebra operations available in assignment statements
/// (paper §3.1–3.5).
enum class OpKind {
  kUnion,
  kDifference,
  kIntersection,
  kProduct,
  kRename,
  kProject,
  kSelect,
  kSelectConst,
  kGroup,
  kMerge,
  kSplit,
  kCollapse,
  kTranspose,
  kSwitch,
  kCleanUp,
  kPurge,
  kTupleNew,
  kSetNew,
};

// The helpers below are inline so the analysis library, which links
// against lang's headers only, shares them with the interpreter.

/// Lower-case surface keyword for `op` ("group", "cleanup", ...).
constexpr const char* OpKindToString(OpKind op) {
  switch (op) {
    case OpKind::kUnion: return "union";
    case OpKind::kDifference: return "difference";
    case OpKind::kIntersection: return "intersection";
    case OpKind::kProduct: return "product";
    case OpKind::kRename: return "rename";
    case OpKind::kProject: return "project";
    case OpKind::kSelect: return "select";
    case OpKind::kSelectConst: return "selectconst";
    case OpKind::kGroup: return "group";
    case OpKind::kMerge: return "merge";
    case OpKind::kSplit: return "split";
    case OpKind::kCollapse: return "collapse";
    case OpKind::kTranspose: return "transpose";
    case OpKind::kSwitch: return "switch";
    case OpKind::kCleanUp: return "cleanup";
    case OpKind::kPurge: return "purge";
    case OpKind::kTupleNew: return "tuplenew";
    case OpKind::kSetNew: return "setnew";
  }
  return "?";
}

/// Arity contracts: the number of parameters and of argument tables `op`
/// takes. The interpreter checks them before enumerating argument
/// combinations; the analyzer reports violations as errors.
constexpr size_t ExpectedParamCount(OpKind op) {
  switch (op) {
    case OpKind::kUnion:
    case OpKind::kDifference:
    case OpKind::kIntersection:
    case OpKind::kProduct:
    case OpKind::kTranspose:
      return 0;
    case OpKind::kProject:
    case OpKind::kSplit:
    case OpKind::kCollapse:
    case OpKind::kSwitch:
    case OpKind::kTupleNew:
    case OpKind::kSetNew:
      return 1;
    default:
      return 2;
  }
}

constexpr size_t ExpectedArgCount(OpKind op) {
  switch (op) {
    case OpKind::kUnion:
    case OpKind::kDifference:
    case OpKind::kIntersection:
    case OpKind::kProduct:
      return 2;
    default:
      return 1;
  }
}

/// `T <- (operation)(parameter list)(argument list)` (paper §3).
///
/// `params` is op-specific, in the order of the operation's surface
/// syntax:
///   rename      {to, from}            — RENAME_{B<-A}
///   project     {attr-set}
///   select      {A, B}                — σ_{A=B}
///   selectconst {A, V}                — σ_{A='V'}
///   group       {by-set, on-set}
///   merge       {on-set, by-set}
///   split       {on-set}
///   collapse    {by-set}
///   switch      {V}
///   cleanup     {by-set, on-set}
///   purge       {on-set, by-set}
///   tuplenew    {A}
///   setnew      {A}
/// and empty for union/difference/intersection/product/transpose.
struct Assignment {
  OpKind op = OpKind::kUnion;
  Param target;
  std::vector<Param> params;
  std::vector<Param> args;  // table-name parameters

  std::string ToString() const;
};

struct Statement;

/// `drop T;` — removes every table named T from the database. Not part of
/// the paper's algebra (results there are replaced by reassignment); an
/// extension used by the optimizer to reclaim scratch tables of generated
/// programs.
struct DropStatement {
  Param target;
  std::string ToString() const;
};

/// `while R ≠ ∅ do P` (paper §3.5): repeats `body` as long as some table
/// matching `condition` has at least one data row.
struct WhileLoop {
  Param condition;
  std::vector<Statement> body;

  std::string ToString() const;
};

/// One program statement.
struct Statement {
  std::variant<Assignment, WhileLoop, DropStatement> node;

  std::string ToString() const;
};

/// A tabular-algebra program: a statement sequence (paper §3.6).
struct Program {
  std::vector<Statement> statements;

  std::string ToString() const;
};

}  // namespace tabular::lang

#endif  // TABULAR_LANG_AST_H_
