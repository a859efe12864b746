// The executed oracle of the rewrite engine: every program of the shared
// generator (tests/program_gen.h) runs on the Sales + Tags grid once
// unoptimized and once optimized. Both runs must agree on success, and
// when both succeed every table must be byte-identical. The database's
// table order is free: a removed statement can change where a table is
// re-added (removing A's transpose pair leaves A ahead of B).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "core/status.h"
#include "io/grid_format.h"
#include "lang/interpreter.h"
#include "lang/parser.h"
#include "tests/program_gen.h"

namespace tabular::lang {
namespace {

using core::TabularDatabase;
using testgen::kGrid;
using testgen::ProgramGenerator;

/// Far above what the terminating generated programs store, and small
/// enough that the runaway ones fail within milliseconds.
constexpr size_t kHandleBudget = size_t{1} << 20;

/// Each table serialized, in sorted order: the database up to table order.
std::vector<std::string> TablesUpToOrder(const TabularDatabase& db) {
  std::vector<std::string> out;
  for (const core::Table& t : db.tables()) out.push_back(io::Serialize(t));
  std::sort(out.begin(), out.end());
  return out;
}

Status RunOn(const Program& program, bool optimize, TabularDatabase* db) {
  InterpreterOptions options;
  options.max_stored_handles = kHandleBudget;
  options.optimize = optimize;
  return Interpreter(options).Run(program, db);
}

TEST(OptimizerOracleTest, GeneratedProgramsRunIdenticallyOptimized) {
  auto grid = io::ParseDatabase(kGrid);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  // Programs that grow without bound: a width-0 union, a product that
  // doubles and a self-product that squares on every iteration.
  const std::set<size_t> kRunaway = {290, 820, 927};
  ProgramGenerator gen(0x5EED);
  size_t succeeded = 0;
  size_t reordered = 0;
  for (size_t i = 0; i < 1000; ++i) {
    const std::string text = gen.Program();
    auto program = ParseProgram(text);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    TabularDatabase plain = *grid;
    TabularDatabase optimized = *grid;
    const Status a = RunOn(*program, /*optimize=*/false, &plain);
    const Status b = RunOn(*program, /*optimize=*/true, &optimized);
    ASSERT_EQ(a.ok(), b.ok()) << "program " << i << ": unoptimized "
                              << a.ToString() << ", optimized "
                              << b.ToString() << "\n" << text;
    if (kRunaway.contains(i)) {
      EXPECT_EQ(a.code(), StatusCode::kResourceExhausted)
          << "program " << i << ": " << a.ToString();
      EXPECT_EQ(b.code(), StatusCode::kResourceExhausted)
          << "program " << i << ": " << b.ToString();
    }
    if (!a.ok()) continue;
    ++succeeded;
    EXPECT_EQ(TablesUpToOrder(plain), TablesUpToOrder(optimized))
        << "program " << i << ":\n" << text;
    reordered += io::SerializeDatabase(plain) !=
                 io::SerializeDatabase(optimized);
  }
  // Most programs run to completion, and some optimized runs re-add a
  // table elsewhere — the order freedom is exercised, not vacuous.
  EXPECT_GT(succeeded, 500u);
  EXPECT_GT(reordered, 0u);
}

}  // namespace
}  // namespace tabular::lang
