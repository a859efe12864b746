#include "core/database.h"

#include <algorithm>

namespace tabular::core {

const SymbolSet& TabularDatabase::RowAttributeSet(size_t i) const {
  const Entry& e = *tables_[i];
  std::call_once(e.row_attrs_once, [&e] {
    const SymbolVec& attrs = e.table.RowAttrs();
    e.row_attrs.insert(attrs.begin(), attrs.end());
  });
  return e.row_attrs;
}

std::vector<size_t> TabularDatabase::IndicesNamed(Symbol name) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < size(); ++i) {
    if (tables()[i].name() == name) out.push_back(i);
  }
  return out;
}

std::vector<Table> TabularDatabase::Named(Symbol name) const {
  std::vector<Table> out;
  for (const Table& t : tables()) {
    if (t.name() == name) out.push_back(t);
  }
  return out;
}

bool TabularDatabase::HasTableNamed(Symbol name) const {
  return std::ranges::any_of(
      tables(), [&](const Table& t) { return t.name() == name; });
}

size_t TabularDatabase::RemoveNamed(Symbol name) {
  return std::erase_if(tables_, [&](const std::shared_ptr<const Entry>& e) {
    return e->table.name() == name;
  });
}

SymbolSet TabularDatabase::TableNames() const {
  SymbolSet out;
  for (const Table& t : tables()) out.insert(t.name());
  return out;
}

SymbolSet TabularDatabase::AllSymbols() const {
  SymbolSet out;
  for (const Table& t : tables()) {
    SymbolSet s = t.AllSymbols();
    out.insert(s.begin(), s.end());
  }
  return out;
}

bool TabularDatabase::NameHasDataRows(Symbol name) const {
  return std::ranges::any_of(tables(), [&](const Table& t) {
    return t.name() == name && t.HasDataRows();
  });
}

}  // namespace tabular::core
