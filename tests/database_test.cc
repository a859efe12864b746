#include "core/database.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "core/sales_data.h"
#include "io/grid_format.h"
#include "tests/test_util.h"

namespace tabular::core {
namespace {

using ::tabular::testing::N;
using ::tabular::testing::V;

TEST(DatabaseTest, StartsEmpty) {
  TabularDatabase db;
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.size(), 0u);
  EXPECT_TRUE(db.TableNames().empty());
}

TEST(DatabaseTest, MultisetSemanticsAllowDuplicateNames) {
  // Figure 1's SalesInfo4: several tables named Sales.
  TabularDatabase db = fixtures::SalesInfo4(false);
  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(db.Named(N("Sales")).size(), 4u);
  EXPECT_EQ(db.TableNames().size(), 1u);
}

TEST(DatabaseTest, IndicesNamedTracksInsertionOrder) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!A", "!X"}}));
  db.Add(Table::Parse({{"!B", "!X"}}));
  db.Add(Table::Parse({{"!A", "!Y"}}));
  std::vector<size_t> idx = db.IndicesNamed(N("A"));
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 2u);
}

TEST(DatabaseTest, RemoveNamedReturnsCount) {
  TabularDatabase db = fixtures::SalesInfo4(true);
  EXPECT_EQ(db.RemoveNamed(N("Sales")), 5u);
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.RemoveNamed(N("Sales")), 0u);
}

TEST(DatabaseTest, HasTableNamed) {
  TabularDatabase db = fixtures::SalesInfo1(true);
  EXPECT_TRUE(db.HasTableNamed(N("GrandTotal")));
  EXPECT_FALSE(db.HasTableNamed(N("Nope")));
}

TEST(DatabaseTest, AllSymbolsSpansEveryTable) {
  TabularDatabase db = fixtures::SalesInfo1(true);
  SymbolSet s = db.AllSymbols();
  EXPECT_TRUE(s.contains(N("GrandTotal")));
  EXPECT_TRUE(s.contains(V("nuts")));
  EXPECT_TRUE(s.contains(V("420")));
}

TEST(DatabaseTest, NameHasDataRows) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!Empty", "!A"}}));
  db.Add(Table::Parse({{"!Full", "!A"}, {"#", "1"}}));
  EXPECT_FALSE(db.NameHasDataRows(N("Empty")));
  EXPECT_TRUE(db.NameHasDataRows(N("Full")));
  EXPECT_FALSE(db.NameHasDataRows(N("Missing")));
  // A second empty table under a full name changes nothing.
  db.Add(Table::Parse({{"!Empty", "!B"}, {"#", "x"}}));
  EXPECT_TRUE(db.NameHasDataRows(N("Empty")));
}

TEST(DatabaseTest, TablesMayBeNamedNull) {
  // Attributes are optional everywhere, including the name cell.
  TabularDatabase db;
  Table anonymous;
  db.Add(anonymous);
  EXPECT_TRUE(db.HasTableNamed(Symbol::Null()));
  EXPECT_EQ(db.Named(Symbol::Null()).size(), 1u);
}

// -- Table sharing ------------------------------------------------------------

static_assert(
    std::random_access_iterator<TabularDatabase::TableView::iterator>);

TEST(DatabaseSharingTest, CopySharesTableStorage) {
  const TabularDatabase orig = fixtures::SalesInfo4(true);
  const TabularDatabase copy = orig;
  ASSERT_EQ(copy.size(), orig.size());
  for (size_t i = 0; i < orig.size(); ++i) {
    EXPECT_EQ(&copy.tables()[i], &orig.tables()[i]) << "table " << i;
  }
}

TEST(DatabaseSharingTest, EditingACopyLeavesTheOriginalAlone) {
  const TabularDatabase orig = fixtures::SalesInfo1(true);
  const std::string before = io::SerializeDatabase(orig);
  TabularDatabase copy = orig;
  copy.Add(Table::Parse({{"!Extra", "!A"}, {"#", "1"}}));
  EXPECT_EQ(copy.RemoveNamed(N("Sales")), 1u);
  EXPECT_EQ(io::SerializeDatabase(orig), before);
  EXPECT_TRUE(orig.HasTableNamed(N("Sales")));
  EXPECT_FALSE(orig.HasTableNamed(N("Extra")));
  // The untouched table is still the original's storage.
  ASSERT_EQ(copy.IndicesNamed(N("GrandTotal")).size(), 1u);
  EXPECT_EQ(&copy.tables()[copy.IndicesNamed(N("GrandTotal"))[0]],
            &orig.tables()[orig.IndicesNamed(N("GrandTotal"))[0]]);
}

/// The row-attribute set by a scan of every row: the reference the memo
/// must match.
SymbolSet ScanRowAttributes(const Table& t) {
  SymbolSet out;
  for (size_t i = 1; i <= t.height(); ++i) out.insert(t.RowAttribute(i));
  return out;
}

TEST(DatabaseSharingTest, MemoizedRowAttributesMatchADirectScan) {
  // SalesInfo1..4 cover duplicate table names (SalesInfo4) and data values
  // in row-attribute cells (SalesInfo3); the empty table has height 0.
  std::vector<TabularDatabase> dbs;
  for (bool summaries : {false, true}) {
    dbs.push_back(fixtures::SalesInfo1(summaries));
    dbs.push_back(fixtures::SalesInfo2(summaries));
    dbs.push_back(fixtures::SalesInfo3(summaries));
    dbs.push_back(fixtures::SalesInfo4(summaries));
  }
  TabularDatabase empty;
  empty.Add(Table::Parse({{"!Empty", "!A", "!B"}}));
  dbs.push_back(empty);
  for (const TabularDatabase& db : dbs) {
    const TabularDatabase copy = db;
    for (size_t i = 0; i < db.size(); ++i) {
      const SymbolSet want = ScanRowAttributes(db.tables()[i]);
      EXPECT_EQ(db.RowAttributeSet(i), want);
      // The copy reads the same memo, not a second scan.
      EXPECT_EQ(&copy.RowAttributeSet(i), &db.RowAttributeSet(i));
    }
  }
  EXPECT_TRUE(empty.RowAttributeSet(0).empty());
}

}  // namespace
}  // namespace tabular::core
