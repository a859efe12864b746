#include "core/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tests/test_util.h"

namespace tabular::core {
namespace {

using ::tabular::testing::N;
using ::tabular::testing::NUL;
using ::tabular::testing::V;

constexpr size_t kC = Column::kChunkSize;

/// Column sizes on both sides of the chunk edges.
const std::vector<size_t> kSizes = {kC - 1, kC, kC + 1, 2 * kC + 1};

/// The test pattern: distinct values with every 7th cell ⊥. Long enough for
/// the longest slice a case takes (AppendGather's 2 × (2 × kC + 1) cells).
const SymbolVec& Pattern() {
  static const SymbolVec cells = [] {
    SymbolVec v(5 * kC);
    for (size_t i = 0; i < v.size(); ++i) {
      if (i % 7 != 3) v[i] = Symbol::Value("v" + std::to_string(i));
    }
    return v;
  }();
  return cells;
}

SymbolVec Slice(size_t begin, size_t n) {
  return SymbolVec(Pattern().begin() + begin, Pattern().begin() + begin + n);
}

Column FromCells(const SymbolVec& cells) {
  Column c;
  for (Symbol s : cells) c.Append(s);
  return c;
}

SymbolVec Cells(const Column& c) {
  SymbolVec out(c.size());
  for (size_t i = 0; i < c.size(); ++i) out[i] = c.Get(i);
  return out;
}

std::vector<const Symbol*> ChunkAddresses(const Column& c) {
  std::vector<const Symbol*> out(c.num_chunks());
  for (size_t k = 0; k < c.num_chunks(); ++k) out[k] = c.ChunkData(k);
  return out;
}

/// Checks `col` against the model cell by cell, through both `Get` and the
/// chunk spans (a lazy chunk must stand for an all-⊥ span).
void ExpectCells(const Column& col, const SymbolVec& want,
                 const std::string& what) {
  ASSERT_EQ(col.size(), want.size()) << what;
  ASSERT_EQ(col.num_chunks(), (want.size() + kC - 1) / kC) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(col.Get(i), want[i]) << what << " cell " << i;
  }
  for (size_t k = 0; k < col.num_chunks(); ++k) {
    const size_t len = col.ChunkLen(k);
    ASSERT_EQ(len, std::min(kC, want.size() - k * kC)) << what;
    const Symbol* p = col.ChunkData(k);
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(p == nullptr ? NUL() : p[i], want[k * kC + i])
          << what << " chunk " << k << " cell " << i;
    }
  }
}

/// A named edit of a column (or a table), for table-driven cases.
template <typename Fn>
struct Named {
  std::string name;
  Fn fn;
};

/// Appends `n` cells to `col` and the same cells to `model`.
using Appender = std::function<void(Column& col, size_t n, SymbolVec& model)>;

std::vector<Named<Appender>> Appenders() {
  std::vector<Named<Appender>> out = {
      {"Append",
       [](Column& col, size_t n, SymbolVec& model) {
         for (Symbol s : Slice(11, n)) {
           col.Append(s);
           model.push_back(s);
         }
       }},
      {"AppendNulls",
       [](Column& col, size_t n, SymbolVec& model) {
         col.AppendNulls(n);
         model.insert(model.end(), n, NUL());
       }},
      {"AppendFill",
       [](Column& col, size_t n, SymbolVec& model) {
         col.AppendFill(V("fill"), n);
         model.insert(model.end(), n, V("fill"));
       }},
      {"AppendFill(⊥)",
       [](Column& col, size_t n, SymbolVec& model) {
         col.AppendFill(NUL(), n);
         model.insert(model.end(), n, NUL());
       }},
      {"AppendSpan",
       [](Column& col, size_t n, SymbolVec& model) {
         const SymbolVec cells = Slice(5, n);
         col.AppendSpan(cells.data(), n);
         model.insert(model.end(), cells.begin(), cells.end());
       }},
      {"AppendGather",
       [](Column& col, size_t n, SymbolVec& model) {
         const SymbolVec cells = Slice(0, 2 * n);
         const Column src = FromCells(cells);
         std::vector<size_t> rows(n);
         for (size_t r = 0; r < n; ++r) rows[r] = 2 * n - 1 - 2 * r;
         col.AppendGather(src, rows);
         for (size_t r : rows) model.push_back(cells[r]);
       }},
  };
  for (size_t begin : {size_t{0}, size_t{1}, kC}) {
    const std::string at = "@" + std::to_string(begin);
    out.push_back({"AppendRange" + at,
                   [begin](Column& col, size_t n, SymbolVec& model) {
                     const SymbolVec cells = Slice(0, begin + n + 3);
                     const Column src = FromCells(cells);
                     col.AppendRange(src, begin, n);
                     model.insert(model.end(), cells.begin() + begin,
                                  cells.begin() + begin + n);
                   }});
    // A source whose middle chunk is lazy.
    out.push_back({"AppendRange(lazy)" + at,
                   [begin](Column& col, size_t n, SymbolVec& model) {
                     Column src(begin + n + 3);
                     SymbolVec cells(src.size());
                     for (size_t i = 0; i < src.size(); i += 3) {
                       if (i / kC == 1) continue;
                       src.Set(i, V("s"));
                       cells[i] = V("s");
                     }
                     col.AppendRange(src, begin, n);
                     model.insert(model.end(), cells.begin() + begin,
                                  cells.begin() + begin + n);
                   }});
  }
  return out;
}

TEST(ColumnTest, EveryAppenderAtEveryOffset) {
  // Destination fills before the append: empty, unaligned, one short of a
  // chunk edge and on one — each with a materialized and a lazy tail.
  for (const auto& [name, append] : Appenders()) {
    for (size_t n : kSizes) {
      for (size_t prefix : {size_t{0}, size_t{1}, kC - 1, kC}) {
        for (bool lazy_prefix : {false, true}) {
          Column col;
          SymbolVec model;
          if (lazy_prefix) {
            col.AppendNulls(prefix);
            model.assign(prefix, NUL());
          } else {
            model = Slice(2, prefix);
            col.AppendSpan(model.data(), prefix);
          }
          append(col, n, model);
          ExpectCells(col, model,
                      name + " n=" + std::to_string(n) + " prefix=" +
                          std::to_string(prefix) +
                          (lazy_prefix ? " (lazy)" : ""));
        }
      }
    }
  }
}

TEST(ColumnTest, ResizeNullGrowsAndShrinksAcrossAChunkEdge) {
  SymbolVec model = Slice(0, kC + 10);
  Column col = FromCells(model);
  // Shrink below the edge, then grow past it: the cut cells come back ⊥.
  col.ResizeNull(kC - 5);
  model.resize(kC - 5);
  ExpectCells(col, model, "shrink below the edge");
  col.ResizeNull(2 * kC + 3);
  model.resize(2 * kC + 3, NUL());
  ExpectCells(col, model, "grow past two edges");
  EXPECT_EQ(col.ChunkData(1), nullptr);  // New chunks stay lazy.
  col.ResizeNull(kC);
  model.resize(kC);
  ExpectCells(col, model, "shrink onto the edge");
  col.ResizeNull(kC + 1);
  model.resize(kC + 1, NUL());
  ExpectCells(col, model, "grow one past the edge");
  col.ResizeNull(0);
  ExpectCells(col, {}, "shrink to empty");
  col.ResizeNull(kC + 1);
  ExpectCells(col, SymbolVec(kC + 1), "regrow from empty");
  EXPECT_EQ(col.ChunkData(0), nullptr);
}

TEST(ColumnTest, LazyChunkEqualsMaterializedNullChunk) {
  const Column lazy(2 * kC + 1);
  Column materialized(2 * kC + 1);
  materialized.Materialize();
  for (size_t k = 0; k < lazy.num_chunks(); ++k) {
    EXPECT_EQ(lazy.ChunkData(k), nullptr);
    EXPECT_NE(materialized.ChunkData(k), nullptr);
  }
  EXPECT_TRUE(lazy == materialized);
  EXPECT_TRUE(materialized == lazy);
  ExpectCells(materialized, SymbolVec(2 * kC + 1), "materialized");
  materialized.Set(kC + 1, V("x"));
  EXPECT_FALSE(lazy == materialized);
}

TEST(ColumnTest, SettingNullIntoALazyChunkAllocatesNothing) {
  Column col(3 * kC);
  col.Set(kC + 3, NUL());
  col.Set(3 * kC - 1, NUL());
  for (size_t k = 0; k < col.num_chunks(); ++k) {
    EXPECT_EQ(col.ChunkData(k), nullptr);
  }
  col.Set(kC + 3, V("x"));
  EXPECT_NE(col.ChunkData(1), nullptr);
  EXPECT_EQ(col.ChunkData(2), nullptr);
  EXPECT_EQ(col.Get(kC + 3), V("x"));
  EXPECT_EQ(col.Get(kC + 4), NUL());
}

// -- Copy-on-write -----------------------------------------------------------

/// Three chunks: materialized, lazy, and a materialized partial tail.
Column Mixed() {
  Column col;
  const SymbolVec head = Slice(0, kC);
  col.AppendSpan(head.data(), kC);
  col.AppendNulls(kC);
  const SymbolVec tail = Slice(kC, 5);
  col.AppendSpan(tail.data(), tail.size());
  return col;
}

TEST(ColumnSharingTest, CopySharesEveryChunk) {
  const Column orig = Mixed();
  const Column copy = orig;
  Column assigned;
  assigned = orig;
  EXPECT_EQ(ChunkAddresses(copy), ChunkAddresses(orig));
  EXPECT_EQ(ChunkAddresses(assigned), ChunkAddresses(orig));
  EXPECT_NE(orig.ChunkData(0), nullptr);
  EXPECT_NE(orig.ChunkData(2), nullptr);
}

TEST(ColumnSharingTest, AppendRangeSharesWholeChunksOnABoundary) {
  const Column src = FromCells(Slice(0, 2 * kC + 5));
  Column whole;
  whole.AppendRange(src, 0, src.size());
  EXPECT_EQ(ChunkAddresses(whole), ChunkAddresses(src));

  Column middle;
  middle.AppendRange(src, kC, kC);
  EXPECT_EQ(middle.ChunkData(0), src.ChunkData(1));

  // Unaligned on either side, or a partial chunk: copied, equal cells.
  Column shifted;
  shifted.Append(V("x"));
  shifted.AppendRange(src, 0, kC);
  Column offset;
  offset.AppendRange(src, 1, kC);
  Column partial;
  partial.AppendRange(src, 0, kC - 1);
  for (const Column* c : {&shifted, &offset, &partial}) {
    EXPECT_NE(c->ChunkData(0), src.ChunkData(0));
  }
  SymbolVec want = Slice(0, kC);
  want.insert(want.begin(), V("x"));
  ExpectCells(shifted, want, "shifted");
  ExpectCells(offset, Slice(1, kC), "offset");
  ExpectCells(partial, Slice(0, kC - 1), "partial");
}

/// A named write through one column.
using Writer = std::function<void(Column&)>;

std::vector<Named<Writer>> Writers() {
  return {
      {"Set(head)", [](Column& c) { c.Set(0, V("w")); }},
      {"Set(lazy)", [](Column& c) { c.Set(kC + 9, V("w")); }},
      {"Set(tail)", [](Column& c) { c.Set(2 * kC + 4, V("w")); }},
      {"Set(⊥)", [](Column& c) { c.Set(1, NUL()); }},
      {"MutableChunkData",
       [](Column& c) {
         c.MutableChunkData(0)[7] = V("w");
         c.MutableChunkData(2)[1] = V("w");
       }},
      {"Materialize",
       [](Column& c) {
         c.Materialize();
         c.Set(kC + 2, V("w"));
       }},
      {"Append", [](Column& c) { c.Append(V("w")); }},
      {"Append(⊥)", [](Column& c) { c.Append(NUL()); }},
      {"AppendNulls", [](Column& c) { c.AppendNulls(kC); }},
      {"AppendFill", [](Column& c) { c.AppendFill(V("w"), 9); }},
      {"AppendSpan",
       [](Column& c) {
         const SymbolVec cells = Slice(3, 10);
         c.AppendSpan(cells.data(), cells.size());
       }},
      {"AppendRange",
       [](Column& c) { c.AppendRange(FromCells(Slice(0, kC + 2)), 1, kC); }},
      {"AppendGather",
       [](Column& c) { c.AppendGather(FromCells(Slice(0, 8)), {7, 0, 3}); }},
      {"ResizeNull(shrink, grow)",
       [](Column& c) {
         c.ResizeNull(kC - 3);
         c.ResizeNull(2 * kC + 9);
       }},
      {"ResizeNull(grow)", [](Column& c) { c.ResizeNull(3 * kC); }},
  };
}

TEST(ColumnSharingTest, EveryWriterLeavesTheOtherHolderUnchanged) {
  for (const auto& [name, write] : Writers()) {
    Column reference = Mixed();  // Never shared: the writer's intended result.
    write(reference);
    for (bool write_copy : {false, true}) {
      Column orig = Mixed();
      Column copy = orig;
      Column& target = write_copy ? copy : orig;
      const Column& other = write_copy ? orig : copy;
      const SymbolVec other_cells = Cells(other);
      const std::vector<const Symbol*> other_chunks = ChunkAddresses(other);
      write(target);
      const std::string what =
          name + (write_copy ? " on the copy" : " on the original");
      ExpectCells(other, other_cells, what + ": other side");
      EXPECT_EQ(ChunkAddresses(other), other_chunks) << what;
      ExpectCells(target, Cells(reference), what + ": written side");
    }
  }
}

/// Every cell of `t`, physical row by physical row.
std::vector<SymbolVec> TableCells(const Table& t) {
  std::vector<SymbolVec> out;
  for (size_t i = 0; i < t.num_rows(); ++i) out.push_back(t.Row(i));
  return out;
}

/// A four-column table over Mixed() columns, with distinct row attributes.
Table MixedTable() {
  const Column col = Mixed();
  SymbolVec row_attrs(col.size());
  for (size_t i = 0; i < row_attrs.size(); i += 5) row_attrs[i] = N("r");
  return Table::FromColumns(N("T"), {N("A"), N("B"), N("A"), N("C")},
                            std::move(row_attrs), {col, col, col, col});
}

using TableWriter = std::function<void(Table&)>;

std::vector<Named<TableWriter>> TableWriters() {
  return {
      {"set(data)", [](Table& t) { t.set(3, 2, V("w")); }},
      {"set(row attribute)", [](Table& t) { t.set(4, 0, N("w")); }},
      {"set(column attribute)", [](Table& t) { t.set(0, 1, N("w")); }},
      {"set_name", [](Table& t) { t.set_name(N("W")); }},
      {"AppendRow",
       [](Table& t) {
         SymbolVec row(t.num_cols(), V("w"));
         row[0] = N("w");
         t.AppendRow(row);
       }},
      {"AppendColumn",
       [](Table& t) { t.AppendColumn(SymbolVec(t.num_rows(), V("w"))); }},
      {"MutableRowAttrs", [](Table& t) { t.MutableRowAttrs()[2] = N("w"); }},
      {"MutableDataColumn",
       [](Table& t) { t.MutableDataColumn(4).Set(kC + 1, V("w")); }},
      {"MaterializeAll",
       [](Table& t) {
         t.MaterializeAll();
         t.set(kC + 2, 1, V("w"));
       }},
  };
}

TEST(ColumnSharingTest, TableCopySharesColumnsAndRowAttributes) {
  const Table orig = MixedTable();
  const Table copy = orig;
  EXPECT_EQ(&copy.RowAttrs(), &orig.RowAttrs());
  for (size_t j = 1; j <= orig.width(); ++j) {
    EXPECT_EQ(ChunkAddresses(copy.DataColumn(j)),
              ChunkAddresses(orig.DataColumn(j)));
  }
}

TEST(ColumnSharingTest, EveryTableWriterLeavesTheOtherHolderUnchanged) {
  for (const auto& [name, write] : TableWriters()) {
    Table reference = MixedTable();
    write(reference);
    for (bool write_copy : {false, true}) {
      Table orig = MixedTable();
      Table copy = orig;
      Table& target = write_copy ? copy : orig;
      const Table& other = write_copy ? orig : copy;
      const std::vector<SymbolVec> other_cells = TableCells(other);
      const SymbolVec* other_row_attrs = &other.RowAttrs();
      write(target);
      const std::string what =
          name + (write_copy ? " on the copy" : " on the original");
      EXPECT_EQ(TableCells(other), other_cells) << what;
      EXPECT_EQ(&other.RowAttrs(), other_row_attrs) << what;
      EXPECT_EQ(TableCells(target), TableCells(reference)) << what;
    }
  }
}

// -- Concurrency (run under TSan in CI) ---------------------------------------

/// FNV-1a over every cell, read chunk by chunk like the kernels do.
uint64_t Hash(const Table& t) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](Symbol s) {
    h = (h ^ s.raw_id()) * 1099511628211ULL;
  };
  mix(t.name());
  for (Symbol s : t.ColAttrs()) mix(s);
  for (Symbol s : t.RowAttrs()) mix(s);
  for (size_t j = 1; j <= t.width(); ++j) {
    const Column& col = t.DataColumn(j);
    for (size_t k = 0; k < col.num_chunks(); ++k) {
      const Symbol* p = col.ChunkData(k);
      for (size_t i = 0; i < col.ChunkLen(k); ++i) {
        mix(p == nullptr ? NUL() : p[i]);
      }
    }
  }
  return h;
}

TEST(ColumnConcurrencyTest, CopiesWriteAndDropWhileOthersHashTheSource) {
  const Table base = MixedTable();
  const uint64_t want = Hash(base);
  constexpr int kRounds = 25;
  std::latch start(5);
  std::vector<std::thread> threads;
  for (int h = 0; h < 2; ++h) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) EXPECT_EQ(Hash(base), want);
    });
  }
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      start.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) {
        Table t = base;
        const size_t row = 1 + (r * 977 + w * 131) % base.height();
        t.set(row, 1 + r % base.width(), V("w"));
        t.MutableRowAttrs()[row - 1] = N("w");
        t.AppendRow(SymbolVec(t.num_cols(), V("w")));
        Column col = base.DataColumn(1 + w);
        col.Append(V("w"));
        col.Set(0, V("w"));
        EXPECT_EQ(t.at(row, 1 + r % base.width()), V("w"));
        EXPECT_EQ(t.RowAttribute(row), N("w"));
        EXPECT_EQ(col.Get(0), V("w"));
        EXPECT_EQ(base.at(1, 1 + w), Pattern()[0]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Hash(base), want);
}

TEST(ColumnConcurrencyTest, EitherThreadMayDropTheLastReference) {
  // Two threads race to drop the two references to chunks the main thread
  // allocated; whichever drops last recycles them, then both allocate and
  // write fresh chunks (possibly the recycled ones).
  for (int round = 0; round < 50; ++round) {
    Column a = Mixed();
    Column b = a;
    std::latch start(2);
    auto drop_then_write = [&start](Column col) {
      start.arrive_and_wait();
      const Symbol s = col.Get(kC - 1);
      col = Column();
      Column fresh;
      fresh.AppendFill(s, 2 * kC);
      EXPECT_EQ(fresh.Get(2 * kC - 1), s);
    };
    std::thread t1(drop_then_write, std::move(a));
    std::thread t2(drop_then_write, std::move(b));
    t1.join();
    t2.join();
  }
}

TEST(ColumnConcurrencyTest, LastDropRecyclesIntoTheDroppingThreadsFreelist) {
  Column handoff;
  std::thread allocator([&handoff] {
    const Column col = FromCells(Slice(0, 10));
    handoff = col;  // `col` drops first, on this thread.
  });
  allocator.join();
  const Symbol* chunk = handoff.ChunkData(0);
  std::thread dropper([&handoff, chunk] {
    { const Column last = std::move(handoff); }
    Column fresh;
    fresh.Append(V("z"));
    EXPECT_EQ(fresh.ChunkData(0), chunk);
    EXPECT_EQ(fresh.Get(0), V("z"));
  });
  dropper.join();
}

}  // namespace
}  // namespace tabular::core
