#include "core/compare.h"

#include <gtest/gtest.h>

#include "core/sales_data.h"
#include "tests/test_util.h"

namespace tabular::core {
namespace {

using ::tabular::testing::N;
using ::tabular::testing::V;

TEST(NormalizeTest, NormalizationIsIdempotent) {
  Table t = fixtures::SalesInfo2Table(true);
  Table n1 = NormalizeTable(t);
  Table n2 = NormalizeTable(n1);
  EXPECT_TRUE(n1 == n2);
}

TEST(NormalizeTest, PermutedTablesNormalizeIdentically) {
  Table t = fixtures::SalesFlat();
  // Reverse the data rows manually.
  Table rev(1, t.num_cols());
  rev.set_name(t.name());
  for (size_t j = 1; j < t.num_cols(); ++j) rev.set(0, j, t.at(0, j));
  for (size_t i = t.height(); i >= 1; --i) rev.AppendRow(t.Row(i));
  EXPECT_TRUE(NormalizeTable(t) == NormalizeTable(rev));
}

TEST(EquivalenceTest, ExactEqualImpliesEquivalent) {
  EXPECT_TRUE(EquivalentUpToPermutation(fixtures::SalesFlat(),
                                        fixtures::SalesFlat()));
}

TEST(EquivalenceTest, RowPermutationIsEquivalent) {
  Table t = fixtures::SalesFlat();
  Table rev(1, t.num_cols());
  rev.set_name(t.name());
  for (size_t j = 1; j < t.num_cols(); ++j) rev.set(0, j, t.at(0, j));
  for (size_t i = t.height(); i >= 1; --i) rev.AppendRow(t.Row(i));
  EXPECT_TRUE(EquivalentUpToPermutation(t, rev));
}

TEST(EquivalenceTest, ColumnPermutationIsEquivalent) {
  Table a = Table::Parse({{"!T", "!A", "!B"}, {"#", "1", "2"}});
  Table b = Table::Parse({{"!T", "!B", "!A"}, {"#", "2", "1"}});
  EXPECT_TRUE(EquivalentUpToPermutation(a, b));
}

TEST(EquivalenceTest, AttributeRowDoesNotPermuteIndependently) {
  // Moving attributes without moving their columns is NOT an equivalence.
  Table a = Table::Parse({{"!T", "!A", "!B"}, {"#", "1", "2"}});
  Table b = Table::Parse({{"!T", "!B", "!A"}, {"#", "1", "2"}});
  EXPECT_FALSE(EquivalentUpToPermutation(a, b));
}

TEST(EquivalenceTest, DifferentNamesAreNotEquivalent) {
  Table a = Table::Parse({{"!T", "!A"}, {"#", "1"}});
  Table b = Table::Parse({{"!U", "!A"}, {"#", "1"}});
  EXPECT_FALSE(EquivalentUpToPermutation(a, b));
}

TEST(EquivalenceTest, DifferentDimensionsAreNotEquivalent) {
  Table a = Table::Parse({{"!T", "!A"}, {"#", "1"}});
  Table b = Table::Parse({{"!T", "!A"}});
  EXPECT_FALSE(EquivalentUpToPermutation(a, b));
}

TEST(EquivalenceTest, SymmetricTableWithRepeatedColumns) {
  // Identical column attributes with swapped contents: needs the exact
  // matcher, normalization alone suffices here but must not misreport.
  Table a = Table::Parse({{"!T", "!S", "!S"},
                          {"#", "1", "2"},
                          {"#", "2", "1"}});
  Table b = Table::Parse({{"!T", "!S", "!S"},
                          {"#", "2", "1"},
                          {"#", "1", "2"}});
  EXPECT_TRUE(EquivalentUpToPermutation(a, b));
}

TEST(EquivalenceTest, SubtleNonEquivalence) {
  Table a = Table::Parse({{"!T", "!S", "!S"},
                          {"#", "1", "2"},
                          {"#", "1", "2"}});
  Table b = Table::Parse({{"!T", "!S", "!S"},
                          {"#", "1", "2"},
                          {"#", "2", "1"}});
  EXPECT_FALSE(EquivalentUpToPermutation(a, b));
}

TEST(EquivalentDatabasesTest, MatchesTablesInAnyOrder) {
  TabularDatabase a = fixtures::SalesInfo4(false);
  TabularDatabase b;
  for (size_t i = a.size(); i-- > 0;) b.Add(a.tables()[i]);
  EXPECT_TRUE(EquivalentDatabases(a, b));
}

TEST(EquivalentDatabasesTest, SizeMismatch) {
  TabularDatabase a = fixtures::SalesInfo4(false);
  TabularDatabase b = fixtures::SalesInfo4(true);
  EXPECT_FALSE(EquivalentDatabases(a, b));
}

TEST(EquivalentDatabasesTest, ContentMismatch) {
  TabularDatabase a = fixtures::SalesInfo1(false);
  TabularDatabase b;
  b.Add(fixtures::SalesInfo2Table(false));
  EXPECT_FALSE(EquivalentDatabases(a, b));
}

TEST(MapSymbolsTest, ValuePermutationPreservesStructure) {
  // Genericity morphism: permute values, fix names and ⊥.
  auto f = [](Symbol s) {
    if (!s.is_value()) return s;
    return Symbol::Value("perm_" + s.text());
  };
  TabularDatabase d = fixtures::SalesInfo2(false);
  TabularDatabase d2 = MapSymbols(d, f);
  EXPECT_EQ(d2.tables()[0].name(), N("Sales"));  // name fixed
  EXPECT_EQ(d2.tables()[0].Data(1, 2), V("perm_east"));
  EXPECT_EQ(d2.tables()[0].num_cols(), d.tables()[0].num_cols());
}

}  // namespace
}  // namespace tabular::core
