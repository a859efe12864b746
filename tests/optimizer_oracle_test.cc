// The executed oracles of the static stack: every program of the shared
// generator (tests/program_gen.h) runs on the Sales + Tags grid once
// unoptimized and once optimized. Both runs must agree on success, and
// when both succeed every table must be byte-identical. The database's
// table order is free: a removed statement can change where a table is
// re-added (removing A's transpose pair leaves A ahead of B). Each
// successful run is also checked against the static layers' promises for
// the plan that ran: its exit database lies within the analyzer's final
// state (tests/soundness.h), and its cost peaks bound the rows and bytes
// of the tables the run created, which is what admission control observes
// (`server::CreatedTablePeaks`).

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cost.h"
#include "analysis/shape.h"
#include "core/status.h"
#include "io/grid_format.h"
#include "lang/interpreter.h"
#include "lang/optimizer.h"
#include "lang/parser.h"
#include "server/program_cache.h"
#include "tests/program_gen.h"
#include "tests/soundness.h"
#include "tests/test_util.h"

namespace tabular::lang {
namespace {

using core::TabularDatabase;
using testgen::kGrid;
using testgen::ProgramGenerator;
using testing::TablesUpToOrder;

/// Far above what the terminating generated programs store, and small
/// enough that the runaway ones fail within milliseconds.
constexpr size_t kHandleBudget = size_t{1} << 20;

Status RunOn(const Program& program, bool optimize, TabularDatabase* db,
             OptimizeStats* stats = nullptr) {
  InterpreterOptions options;
  options.max_stored_handles = kHandleBudget;
  options.optimize = optimize;
  Interpreter interpreter(options);
  Status st = interpreter.Run(program, db);
  if (stats != nullptr) *stats = interpreter.optimize_stats();
  return st;
}

std::string RenderRecords(const OptimizeStats& stats) {
  std::string out;
  for (const RewriteRecord& r : stats.records) {
    out += RenderRewriteJson(r, "gen") + "\n";
  }
  return out;
}

/// Admission's premise for one run of `plan` from `before` to `after`: the
/// plan's static peaks bound the rows and bytes of the tables it created.
::testing::AssertionResult CostBoundsTheOutput(
    const Program& plan, const analysis::AbstractDatabase& initial,
    const TabularDatabase& before, const TabularDatabase& after) {
  const analysis::CostReport cost = analysis::EstimateCost(plan, initial);
  const server::OutputPeaks seen = server::CreatedTablePeaks(before, after);
  if (seen.rows <= cost.peak_rows && seen.bytes <= cost.peak_bytes) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "created " << seen.rows << " rows, " << seen.bytes
         << " bytes; static peaks " << analysis::FormatCost(cost.peak_rows)
         << " rows, " << analysis::FormatCost(cost.peak_bytes) << " bytes";
}

TEST(OptimizerOracleTest, GeneratedProgramsRunIdenticallyOptimized) {
  auto grid = io::ParseDatabase(kGrid);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  const analysis::AbstractDatabase initial =
      analysis::AbstractDatabase::FromDatabase(*grid);
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
    OptimizeStats ran;
    const Status a = RunOn(*program, /*optimize=*/false, &plain);
    const Status b = RunOn(*program, /*optimize=*/true, &optimized, &ran);
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

    // The plan the optimized run executed: the same records mean the same
    // rewrites, applied in the same order.
    OptimizeStats stats;
    const Program plan = OptimizeProgram(*program, initial, {}, &stats);
    ASSERT_EQ(RenderRecords(stats), RenderRecords(ran)) << "program " << i;
    auto check = [&](const Program& executed, const TabularDatabase& after,
                     const char* which) {
      EXPECT_TRUE(testing::WithinAbstractState(
          after, analysis::AnalyzeProgram(executed, initial).final_state))
          << "program " << i << " (" << which << "):\n" << text;
      EXPECT_TRUE(CostBoundsTheOutput(executed, initial, *grid, after))
          << "program " << i << " (" << which << "):\n" << text;
    };
    check(*program, plain, "unoptimized");
    check(plan, optimized, "optimized");
  }
  // Most programs run to completion, and some optimized runs re-add a
  // table elsewhere — the order freedom is exercised, not vacuous.
  EXPECT_GT(succeeded, 500u);
  EXPECT_GT(reordered, 0u);
}

}  // namespace
}  // namespace tabular::lang
