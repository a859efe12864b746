// The soundness oracle of the static analyzer, shared by the tests that
// execute programs: a concrete database must lie within the abstract state
// the analyzer derived for it.

#ifndef TABULAR_TESTS_SOUNDNESS_H_
#define TABULAR_TESTS_SOUNDNESS_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <sstream>

#include "analysis/shape.h"
#include "core/database.h"
#include "core/symbol.h"
#include "core/table.h"

namespace tabular::testing {

/// Success when `db` lies within `state`: per table name, the attribute
/// may-sets contain the concrete column and row attributes, the must-sets
/// are contained in them, the three cardinalities lie inside their
/// intervals, and every name the state claims certain is present. The
/// failure message lists every violation.
inline ::testing::AssertionResult WithinAbstractState(
    const core::TabularDatabase& db, const analysis::AbstractDatabase& state) {
  std::ostringstream bad;
  std::map<core::Symbol, size_t, core::SymbolLess> counts;
  for (const core::Table& t : db.tables()) {
    const std::string name = t.name().ToString();
    const analysis::TableShape shape = state.ShapeOf(t.name());
    ++counts[t.name()];
    for (size_t j = 1; j <= t.width(); ++j) {
      if (!shape.cols.MayContain(t.ColumnAttribute(j))) {
        bad << name << " col " << j << " outside the may-set\n";
      }
    }
    for (size_t i = 1; i <= t.height(); ++i) {
      if (!shape.rows.MayContain(t.RowAttribute(i))) {
        bad << name << " row " << i << " outside the may-set\n";
      }
    }
    for (core::Symbol a : shape.must_cols.elems) {
      bool found = false;
      for (size_t j = 1; j <= t.width(); ++j) {
        found |= t.ColumnAttribute(j) == a;
      }
      if (!found) bad << name << " lacks must col " << a.ToString() << "\n";
    }
    for (core::Symbol a : shape.must_rows.elems) {
      bool found = false;
      for (size_t i = 1; i <= t.height(); ++i) {
        found |= t.RowAttribute(i) == a;
      }
      if (!found) bad << name << " lacks must row " << a.ToString() << "\n";
    }
    if (!shape.row_card.Contains(t.height())) {
      bad << name << " height " << t.height() << " outside "
          << shape.row_card.ToString() << "\n";
    }
    if (!shape.col_card.Contains(t.width())) {
      bad << name << " width " << t.width() << " outside "
          << shape.col_card.ToString() << "\n";
    }
  }
  for (const auto& [name, n] : counts) {
    if (!state.ShapeOf(name).count.Contains(n)) {
      bad << name.ToString() << " carried by " << n << " tables, outside "
          << state.ShapeOf(name).count.ToString() << "\n";
    }
  }
  for (const auto& [name, shape] : state.tables) {
    if (shape.certain && !counts.contains(name)) {
      bad << name.ToString() << " claimed certain but absent\n";
    }
  }
  if (bad.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << bad.str();
}

}  // namespace tabular::testing

#endif  // TABULAR_TESTS_SOUNDNESS_H_
