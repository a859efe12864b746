#ifndef TABULAR_TESTS_TEST_UTIL_H_
#define TABULAR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/compare.h"
#include "core/database.h"
#include "core/symbol.h"
#include "core/table.h"
#include "io/grid_format.h"

namespace tabular::testing {

/// Shorthand constructors used across the test suites.
inline core::Symbol N(const char* s) { return core::Symbol::Name(s); }
inline core::Symbol V(const char* s) { return core::Symbol::Value(s); }
inline core::Symbol NUL() { return core::Symbol::Null(); }

/// gtest predicate: tables equal up to permutations of non-attribute rows
/// and columns (the paper's isomorphism on table contents).
inline ::testing::AssertionResult TablesEquivalent(const core::Table& a,
                                                   const core::Table& b) {
  if (core::EquivalentUpToPermutation(a, b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "tables differ beyond row/column permutation.\nleft:\n"
         << a.ToString() << "right:\n"
         << b.ToString();
}

#define EXPECT_TABLE_EQUIV(a, b) \
  EXPECT_TRUE(::tabular::testing::TablesEquivalent((a), (b)))
#define ASSERT_TABLE_EQUIV(a, b) \
  ASSERT_TRUE(::tabular::testing::TablesEquivalent((a), (b)))

/// Each table serialized, in sorted order: the database byte for byte up
/// to table order.
inline std::vector<std::string> TablesUpToOrder(
    const core::TabularDatabase& db) {
  std::vector<std::string> out;
  for (const core::Table& t : db.tables()) out.push_back(io::Serialize(t));
  std::sort(out.begin(), out.end());
  return out;
}

#define EXPECT_TABLE_EXACT(a, b)                                         \
  EXPECT_TRUE((a) == (b)) << "exact table mismatch.\nleft:\n"            \
                          << (a).ToString() << "right:\n" << (b).ToString()

}  // namespace tabular::testing

#endif  // TABULAR_TESTS_TEST_UTIL_H_
