// Storage sharing between kernel inputs and outputs: the operators that
// pass their input's data region through (PROJECT, RENAME, identity
// SELECT, UNION's left operand, `TabularDatabase::Named`) return tables
// holding the input's very chunks and row attributes, and every caller that
// copies a table and then edits the copy leaves the shared source as it was.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/ops.h"
#include "core/compare.h"
#include "core/database.h"
#include "core/sales_data.h"
#include "core/table.h"
#include "io/grid_format.h"
#include "olap/summarize.h"
#include "tests/test_util.h"

namespace tabular {
namespace {

using core::Column;
using core::Symbol;
using core::SymbolVec;
using core::Table;
using ::tabular::testing::N;
using ::tabular::testing::V;

constexpr size_t kC = Column::kChunkSize;

/// A flat Sales table spanning two chunks, the second one partial.
Table Big() { return fixtures::SyntheticSales(1100, 8); }

/// Expects `got` to hold exactly `want`'s chunk buffers, in order.
void ExpectSharesChunks(const Column& got, const Column& want,
                        size_t chunks) {
  ASSERT_GE(got.num_chunks(), chunks);
  ASSERT_GE(want.num_chunks(), chunks);
  for (size_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(got.ChunkData(c), want.ChunkData(c)) << "chunk " << c;
  }
}

void ExpectSharesStorage(const Table& got, const Table& want) {
  ASSERT_EQ(got.width(), want.width());
  EXPECT_EQ(&got.RowAttrs(), &want.RowAttrs());
  for (size_t j = 1; j <= want.width(); ++j) {
    const Column& col = want.DataColumn(j);
    ExpectSharesChunks(got.DataColumn(j), col, col.num_chunks());
  }
}

TEST(KernelSharingTest, BigFixtureSpansTwoMaterializedChunks) {
  // The address checks below are only meaningful on materialized chunks.
  const Table rho = Big();
  ASSERT_GT(rho.height(), kC);
  ASSERT_LT(rho.height(), 2 * kC);
  for (size_t j = 1; j <= rho.width(); ++j) {
    EXPECT_NE(rho.DataColumn(j).ChunkData(0), nullptr);
    EXPECT_NE(rho.DataColumn(j).ChunkData(1), nullptr);
  }
}

TEST(KernelSharingTest, ProjectSharesKeptColumnsAndRowAttributes) {
  const Table rho = Big();
  auto out = algebra::Project(rho, {N("Part"), N("Sold")}, N("P"));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->width(), 2u);
  EXPECT_EQ(out->name(), N("P"));
  EXPECT_EQ(&out->RowAttrs(), &rho.RowAttrs());
  ExpectSharesChunks(out->DataColumn(1), rho.DataColumn(1),
                     rho.DataColumn(1).num_chunks());
  ExpectSharesChunks(out->DataColumn(2), rho.DataColumn(3),
                     rho.DataColumn(3).num_chunks());
}

TEST(KernelSharingTest, RenameSharesEveryColumn) {
  const Table rho = Big();
  auto out = algebra::Rename(rho, N("Part"), N("Item"), N("R"));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->ColumnAttribute(1), N("Item"));
  EXPECT_EQ(rho.ColumnAttribute(1), N("Part"));
  ExpectSharesStorage(*out, rho);
}

TEST(KernelSharingTest, IdentitySelectionsShareTheirInput) {
  // One region: every row's Region is r0.
  const Table rho = fixtures::SyntheticSales(5000, 1);
  ASSERT_GT(rho.height(), kC);
  auto constant = algebra::SelectConstant(rho, N("Region"), V("r0"), N("S"));
  ASSERT_TRUE(constant.ok()) << constant.status().ToString();
  EXPECT_EQ(constant->name(), N("S"));
  ExpectSharesStorage(*constant, rho);
  auto self = algebra::Select(rho, N("Part"), N("Part"), N("S"));
  ASSERT_TRUE(self.ok()) << self.status().ToString();
  ExpectSharesStorage(*self, rho);
}

TEST(KernelSharingTest, PartialSelectionGathersFreshStorage) {
  const Table rho = Big();
  auto out = algebra::SelectConstant(rho, N("Region"), V("r3"), N("S"));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_GT(out->height(), 0u);
  ASSERT_LT(out->height(), rho.height());
  EXPECT_NE(out->DataColumn(1).ChunkData(0), rho.DataColumn(1).ChunkData(0));
  for (size_t i = 1; i <= out->height(); ++i) {
    EXPECT_EQ(out->Data(i, 2), V("r3"));
  }
}

TEST(KernelSharingTest, UnionSharesTheLeftOperandsWholeChunks) {
  const Table sigma = fixtures::SalesFlat();
  // Partial tail: every chunk but the tail is shared; the tail takes the
  // ⊥ padding, so it is copied.
  const Table rho = Big();
  auto out = algebra::Union(rho, sigma, N("U"));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (size_t j = 1; j <= rho.width(); ++j) {
    const Column& col = rho.DataColumn(j);
    ExpectSharesChunks(out->DataColumn(j), col, col.num_chunks() - 1);
    EXPECT_NE(out->DataColumn(j).ChunkData(col.num_chunks() - 1),
              col.ChunkData(col.num_chunks() - 1));
  }
  // A chunk-aligned left operand is shared whole.
  Column values;
  for (size_t i = 0; i < 2 * kC; ++i) {
    values.Append(Symbol::Value("x" + std::to_string(i % 97)));
  }
  const Table aligned = Table::FromColumns(N("A"), {N("Part")},
                                           SymbolVec(2 * kC), {values});
  auto whole = algebra::Union(aligned, sigma, N("U"));
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ExpectSharesChunks(whole->DataColumn(1), values, 2);
  EXPECT_EQ(whole->height(), 2 * kC + sigma.height());
  EXPECT_EQ(whole->Data(2 * kC + 1, 1), Symbol::Null());
}

TEST(KernelSharingTest, NamedSharesTheStoredTables) {
  core::TabularDatabase db;
  db.Add(Big());
  db.Add(fixtures::SalesFlat());
  const std::vector<Table> named = db.Named(N("Sales"));
  ASSERT_EQ(named.size(), 2u);
  ExpectSharesStorage(named[0], db.tables()[0]);
  ExpectSharesStorage(named[1], db.tables()[1]);
}

// -- Copy-then-edit callers leave the shared source alone --------------------

/// Runs `op` on `src` while `src` and a second holder share storage, and
/// expects both byte-identical afterwards.
template <typename Op>
void ExpectSourceUntouched(const Table& src, Op op) {
  const Table other = src;  // Another live holder of the same storage.
  const std::string before = io::Serialize(src);
  op(src);
  EXPECT_EQ(io::Serialize(src), before);
  EXPECT_EQ(io::Serialize(other), before);
  ExpectSharesStorage(other, src);
}

TEST(CopyThenEditTest, SwitchLeavesTheSourceAlone) {
  Table src = Big();
  src.set(kC + 5, 2, V("unique"));  // SWITCH needs a single occurrence.
  ExpectSourceUntouched(src, [](const Table& t) {
    auto out = algebra::Switch(t, V("unique"), N("W"));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->at(kC + 5, 2), t.at(0, 0));
  });
}

TEST(CopyThenEditTest, TupleNewLeavesTheSourceAlone) {
  ExpectSourceUntouched(Big(), [](const Table& t) {
    algebra::FreshValueGenerator gen(t.AllSymbols());
    auto out = algebra::TupleNew(t, N("Id"), &gen, N("T"));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->width(), t.width() + 1);
  });
}

TEST(CopyThenEditTest, SummaryRowAndColumnLeaveTheSourceAlone) {
  ExpectSourceUntouched(Big(), [](const Table& t) {
    auto row = olap::AddSummaryRow(t, olap::AggFn::kSum, N("Total"));
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(row->height(), t.height() + 1);
    EXPECT_EQ(row->RowAttribute(row->height()), N("Total"));
    auto col = olap::AddSummaryColumn(t, olap::AggFn::kSum, N("Total"),
                                      N("Sum"));
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    EXPECT_EQ(col->width(), t.width() + 1);
  });
}

TEST(CopyThenEditTest, NaturalJoinsRenameChainLeavesTheSourceAlone) {
  const Table managers = Table::Parse({{"!Managers", "!Region", "!Manager"},
                                       {"#", "r0", "ann"},
                                       {"#", "r1", "bob"}});
  ExpectSourceUntouched(managers, [](const Table& sigma) {
    auto out = algebra::NaturalJoinTables(fixtures::SyntheticSales(40, 2),
                                          sigma, N("J"));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_GT(out->height(), 0u);
  });
}

TEST(CopyThenEditTest, NormalizeTableLeavesTheSourceAlone) {
  ExpectSourceUntouched(fixtures::SalesInfo2Table(true), [](const Table& t) {
    const Table normalized = core::NormalizeTable(t);
    EXPECT_TRUE(core::EquivalentUpToPermutation(normalized, t));
  });
}

}  // namespace
}  // namespace tabular
