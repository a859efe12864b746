#include "exec/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "algebra/ops.h"
#include "core/compare.h"
#include "core/sales_data.h"
#include "core/table.h"
#include "io/grid_format.h"
#include "relational/canonical.h"
#include "tests/test_util.h"

namespace tabular::exec {
namespace {

using core::Symbol;
using core::Table;
using core::TabularDatabase;

Symbol S(const char* s) { return Symbol::Name(s); }

TEST(ParallelTest, ScopedThreadsOverridesAndRestores) {
  const size_t base = Threads();
  {
    ScopedThreads st(3);
    EXPECT_EQ(Threads(), 3u);
    {
      ScopedThreads inner(1);
      EXPECT_EQ(Threads(), 1u);
    }
    EXPECT_EQ(Threads(), 3u);
  }
  EXPECT_EQ(Threads(), base);
}

TEST(ParallelTest, ThreadCountParsesOnlyWholePositiveNumbers) {
  size_t n = 0;
  EXPECT_TRUE(ParseThreadCount("4", &n));
  EXPECT_EQ(n, 4u);
  for (const char* bad : {"4x", "0", "-2", "many", "", " 4", "+4", "4 "}) {
    size_t out = 7;
    EXPECT_FALSE(ParseThreadCount(bad, &out)) << "'" << bad << "'";
    EXPECT_EQ(out, 7u) << "'" << bad << "'";
  }
}

TEST(ParallelTest, ParallelForCoversRangeExactlyOnce) {
  ScopedThreads st(4);
  const size_t n = 100001;
  std::vector<int> hits(n, 0);
  ParallelFor(n, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelTest, SplitPointIsOverflowSafeNearSizeMax) {
  // The naive boundary `n * i / parts` wraps once n exceeds
  // SIZE_MAX / parts, collapsing or inverting ranges; SplitPoint must hand
  // back a monotone, balanced partition for any n up to SIZE_MAX.
  for (size_t n : {SIZE_MAX, SIZE_MAX - 7, SIZE_MAX / 2 + 3}) {
    for (size_t parts : {size_t{1}, size_t{3}, size_t{7}, size_t{64}}) {
      EXPECT_EQ(SplitPoint(n, parts, 0), 0u);
      EXPECT_EQ(SplitPoint(n, parts, parts), n);
      size_t prev = 0;
      for (size_t i = 1; i <= parts; ++i) {
        const size_t b = SplitPoint(n, parts, i);
        ASSERT_GT(b, prev) << "n=" << n << " parts=" << parts << " i=" << i;
        const size_t len = b - prev;
        EXPECT_TRUE(len == n / parts || len == n / parts + 1)
            << "n=" << n << " parts=" << parts << " i=" << i;
        prev = b;
      }
    }
  }
}

TEST(ParallelTest, ParallelForNearSizeMaxProducesExactCover) {
  // Only the handed-out ranges are recorded (nobody iterates SIZE_MAX
  // cells); they must form a contiguous exact cover of [0, n) with no
  // wrapped or inverted bounds.
  ScopedThreads st(4);
  const size_t n = SIZE_MAX - 3;
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> ranges;
  ParallelFor(n, 1, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(begin, end);
  });
  std::sort(ranges.begin(), ranges.end());
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, n);
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_LT(ranges[i].first, ranges[i].second);
    if (i > 0) EXPECT_EQ(ranges[i].first, ranges[i - 1].second);
  }
}

TEST(ParallelTest, SmallInputStaysSerial) {
  ScopedThreads st(4);
  std::vector<std::pair<size_t, size_t>> ranges;
  ParallelFor(10, 100, [&](size_t begin, size_t end) {
    ranges.emplace_back(begin, end);  // safe: must run inline on this thread
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<size_t, size_t>{0, 10}));
}

TEST(ParallelTest, NestedParallelForRunsSerially) {
  ScopedThreads st(4);
  std::vector<int> hits(1 << 12, 0);
  ParallelFor(4, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      // The nested call must not deadlock and must cover its range inline.
      ParallelFor(1 << 10, 1, [&](size_t b2, size_t e2) {
        for (size_t i = b2; i < e2; ++i) ++hits[c * (1 << 10) + i];
      });
    }
  });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelTest, ParallelSortMatchesStdSort) {
  // Deterministic LCG fill, large enough to cross kDefaultSerialCutoff.
  std::vector<uint64_t> v(1 << 16);
  uint64_t x = 88172645463325252ull;
  for (auto& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = x;
  }
  std::vector<uint64_t> want = v;
  std::sort(want.begin(), want.end());
  ScopedThreads st(8);
  ParallelSort(v.begin(), v.end(), std::less<uint64_t>());
  EXPECT_EQ(v, want);
}

// -- Byte-identical kernel outputs across thread counts ----------------------

TEST(ParallelKernelTest, GroupIsByteIdenticalAcrossThreadCounts) {
  Table flat = fixtures::SyntheticSales(96, 8);
  ScopedThreads serial(1);
  auto want = algebra::Group(flat, {S("Region")}, {S("Sold")}, S("Sales"));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (size_t threads : {2, 4, 8}) {
    ScopedThreads st(threads);
    auto got = algebra::Group(flat, {S("Region")}, {S("Sold")}, S("Sales"));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TABLE_EXACT(*got, *want);
  }
}

TEST(ParallelKernelTest, MergeIsByteIdenticalAcrossThreadCounts) {
  Table flat = fixtures::SyntheticSales(64, 8);
  auto grouped = algebra::Group(flat, {S("Region")}, {S("Sold")}, S("Sales"));
  ASSERT_TRUE(grouped.ok());
  ScopedThreads serial(1);
  auto want = algebra::Merge(*grouped, {S("Sold")}, {S("Region")}, S("Sales"));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (size_t threads : {2, 4, 8}) {
    ScopedThreads st(threads);
    auto got =
        algebra::Merge(*grouped, {S("Sold")}, {S("Region")}, S("Sales"));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TABLE_EXACT(*got, *want);
  }
}

TEST(ParallelKernelTest, CartesianProductIsByteIdenticalAcrossThreadCounts) {
  Table r = fixtures::SyntheticSales(48, 8);
  Table s = fixtures::SyntheticSales(24, 4);
  s.set_name(S("Sales2"));
  ScopedThreads serial(1);
  auto want = algebra::CartesianProduct(r, s, S("RS"));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (size_t threads : {2, 4, 8}) {
    ScopedThreads st(threads);
    auto got = algebra::CartesianProduct(r, s, S("RS"));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TABLE_EXACT(*got, *want);
  }
}

Table Ok(Result<Table> r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : Table();
}

TEST(ParallelKernelTest, KernelsOverSharedChunksMatchAcrossThreadCounts) {
  // Every kernel input shares its chunks with a live table. Workers read
  // those chunks, and the product's workers take references to the tall
  // table's chunks (each tile lands on a chunk boundary) all at once.
  const size_t kC = core::Column::kChunkSize;
  const Table flat_live = fixtures::SyntheticSales(96, 8);
  const Table grouped_live =
      Ok(algebra::Group(flat_live, {S("Region")}, {S("Sold")}, S("Sales")));
  core::Column items;
  core::Column qty;
  for (size_t i = 0; i < kC; ++i) {
    items.Append(Symbol::Value("i" + std::to_string(i % 61)));
    qty.Append(i % 5 == 0 ? Symbol::Null()
                          : Symbol::Number(static_cast<int64_t>(i)));
  }
  const Table tall_live = Table::FromColumns(
      S("Tall"), {S("Item"), S("Qty")}, core::SymbolVec(kC), {items, qty});
  const Table small = fixtures::SyntheticSales(3, 2);
  const std::vector<const Table*> lives = {&flat_live, &grouped_live,
                                           &tall_live};
  std::vector<std::string> before;
  for (const Table* t : lives) before.push_back(io::Serialize(*t));

  auto run = [&] {
    const Table flat = flat_live;
    const Table grouped = grouped_live;
    const Table tall = tall_live;
    std::vector<Table> out;
    out.push_back(
        Ok(algebra::Group(flat, {S("Region")}, {S("Sold")}, S("Sales"))));
    out.push_back(
        Ok(algebra::Merge(grouped, {S("Sold")}, {S("Region")}, S("Sales"))));
    out.push_back(Ok(algebra::CartesianProduct(small, tall, S("RS"))));
    return out;
  };
  std::vector<Table> want;
  {
    ScopedThreads serial(1);
    want = run();
  }
  EXPECT_EQ(want[2].DataColumn(small.width() + 1).ChunkData(1),
            tall_live.DataColumn(1).ChunkData(0));
  for (size_t threads : {2, 4, 8}) {
    ScopedThreads st(threads);
    std::vector<Table> got = run();
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_TABLE_EXACT(got[k], want[k]);
      // Writing an output detaches whatever it shares.
      got[k].MaterializeAll();
      got[k].set(1, 1, S("w"));
    }
  }
  for (size_t k = 0; k < lives.size(); ++k) {
    EXPECT_EQ(io::Serialize(*lives[k]), before[k]) << "live table " << k;
  }
}

TEST(ParallelKernelTest, CanonicalRepIsIdenticalAcrossThreadCounts) {
  TabularDatabase db;
  db.Add(fixtures::SyntheticSales(64, 8));
  Table second = fixtures::SyntheticSales(32, 4);
  second.set_name(S("Sales2"));
  db.Add(second);

  ScopedThreads serial(1);
  auto want_rep = rel::CanonicalEncode(db);
  ASSERT_TRUE(want_rep.ok()) << want_rep.status().ToString();
  auto want_back = rel::CanonicalDecode(*want_rep);
  ASSERT_TRUE(want_back.ok()) << want_back.status().ToString();

  for (size_t threads : {2, 4, 8}) {
    ScopedThreads st(threads);
    auto rep = rel::CanonicalEncode(db);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_TRUE(*rep == *want_rep);
    auto back = rel::CanonicalDecode(*rep);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->size(), want_back->size());
    for (size_t i = 0; i < back->size(); ++i) {
      EXPECT_TABLE_EXACT(back->tables()[i], want_back->tables()[i]);
    }
    EXPECT_TRUE(core::EquivalentDatabases(db, *back));
  }
}

}  // namespace
}  // namespace tabular::exec
