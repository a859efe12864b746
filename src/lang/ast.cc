#include "lang/ast.h"

#include <sstream>

namespace tabular::lang {

namespace {

std::string Set(const Param& p) { return "{" + p.ToString() + "}"; }

std::string ArgList(const std::vector<Param>& args) {
  std::string out = "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i) out += ", ";
    out += args[i].ToString();
  }
  return out + ")";
}

}  // namespace

std::string Assignment::ToString() const {
  std::ostringstream out;
  out << target.ToString() << " <- ";
  switch (op) {
    case OpKind::kUnion:
    case OpKind::kDifference:
    case OpKind::kIntersection:
    case OpKind::kProduct:
    case OpKind::kTranspose:
      out << OpKindToString(op) << " ";
      break;
    case OpKind::kRename:
      out << "rename " << params[0].ToString() << " / "
          << params[1].ToString() << " ";
      break;
    case OpKind::kProject:
      out << "project " << Set(params[0]) << " ";
      break;
    case OpKind::kSelect:
      out << "select " << params[0].ToString() << " = "
          << params[1].ToString() << " ";
      break;
    case OpKind::kSelectConst:
      out << "selectconst " << params[0].ToString() << " = "
          << params[1].ToString() << " ";
      break;
    case OpKind::kGroup:
      out << "group by " << Set(params[0]) << " on " << Set(params[1]) << " ";
      break;
    case OpKind::kMerge:
      out << "merge on " << Set(params[0]) << " by " << Set(params[1]) << " ";
      break;
    case OpKind::kSplit:
      out << "split on " << Set(params[0]) << " ";
      break;
    case OpKind::kCollapse:
      out << "collapse by " << Set(params[0]) << " ";
      break;
    case OpKind::kSwitch:
      out << "switch " << params[0].ToString() << " ";
      break;
    case OpKind::kCleanUp:
      out << "cleanup by " << Set(params[0]) << " on " << Set(params[1])
          << " ";
      break;
    case OpKind::kPurge:
      out << "purge on " << Set(params[0]) << " by " << Set(params[1]) << " ";
      break;
    case OpKind::kTupleNew:
      out << "tuplenew " << params[0].ToString() << " ";
      break;
    case OpKind::kSetNew:
      out << "setnew " << params[0].ToString() << " ";
      break;
  }
  out << ArgList(args) << ";";
  return out.str();
}

std::string WhileLoop::ToString() const {
  std::ostringstream out;
  out << "while " << condition.ToString() << " do {\n";
  for (const Statement& s : body) out << "  " << s.ToString() << "\n";
  out << "}";
  return out.str();
}

std::string DropStatement::ToString() const {
  return "drop " + target.ToString() + ";";
}

std::string Statement::ToString() const {
  if (const auto* a = std::get_if<Assignment>(&node)) return a->ToString();
  if (const auto* d = std::get_if<DropStatement>(&node)) return d->ToString();
  return std::get<WhileLoop>(node).ToString();
}

std::string Program::ToString() const {
  std::ostringstream out;
  for (const Statement& s : statements) out << s.ToString() << "\n";
  return out.str();
}

}  // namespace tabular::lang
