// OPTIMIZER: cost and payoff of the translation-validated rewrite engine
// (PR 5). Measures (a) the pure analysis + per-rewrite validation cost of
// OptimizeProgram as the candidate count grows, (b) the validator's share
// of that cost, and (c) the end-to-end interpreter win on the Figure 1 /
// Figure 4 workloads when redundant restructuring is certified away versus
// executed on the data.

#include <benchmark/benchmark.h>

#include <string>
#include <variant>

#include "analysis/cost.h"
#include "analysis/shape.h"
#include "bench_util.h"
#include "core/sales_data.h"
#include "lang/interpreter.h"
#include "lang/optimizer.h"
#include "lang/parser.h"

namespace {

using tabular::core::Symbol;
using tabular::core::Table;
using tabular::core::TabularDatabase;

/// The Figure 1 grouping, preceded by `copies` blocks of provably
/// redundant restructuring (a transpose involution, an identity select,
/// and a superset projection — every rule certifiable from the Sales
/// schema). The unoptimized interpreter executes all of it on the data.
std::string RedundantFig1Program(int64_t copies) {
  std::string src;
  for (int64_t i = 0; i < copies; ++i) {
    src += "Sales <- transpose (Sales);\n";
    src += "Sales <- transpose (Sales);\n";
    src += "Sales <- select Part = Part (Sales);\n";
    src += "Sales <- project {Part, Region, Sold} (Sales);\n";
  }
  src += "Info2 <- group by {Region} on {Sold} (Sales);\n";
  return src;
}

/// The Figure 4 grouping behind a while loop the cardinality domain
/// proves runs exactly once (rename keeps the row count exact; a
/// single-carrier self-difference provably drains it).
constexpr const char* kFig4UnrollProgram = R"(
Wide <- rename Qty / Sold (Sales);
while Wide do {
  Wide <- difference (Wide, Wide);
}
Grouped <- group by {Region} on {Sold} (Sales);
)";

tabular::lang::Program MustParse(const std::string& src) {
  auto p = tabular::lang::ParseProgram(src);
  if (!p.ok()) std::abort();
  return std::move(*p);
}

TabularDatabase SalesDb(size_t parts, size_t regions) {
  TabularDatabase db;
  db.Add(tabular::fixtures::SyntheticSales(parts, regions));
  return db;
}

/// Static analysis + per-rewrite translation validation: the full
/// OptimizeProgram pass, data-independent (abstract states only).
void BM_OptimizePass(benchmark::State& state) {
  tabular::bench::CounterDeltas deltas(
      state, {{"ta_applied", "optimizer.rewrites_applied"},
              {"ta_rejected", "optimizer.rewrites_rejected"},
              {"ta_analyzed_stmts", "optimizer.statements_analyzed"}});
  const tabular::lang::Program program =
      MustParse(RedundantFig1Program(state.range(0)));
  const tabular::analysis::AbstractDatabase initial =
      tabular::analysis::AbstractDatabase::FromDatabase(SalesDb(8, 4));
  for (auto _ : state) {
    tabular::lang::OptimizeStats stats;
    tabular::lang::Program opt =
        tabular::lang::OptimizeProgram(program, initial, {}, &stats);
    benchmark::DoNotOptimize(opt);
  }
  state.SetItemsProcessed(state.iterations() * (state.range(0) * 4 + 1));
}
BENCHMARK(BM_OptimizePass)->Arg(1)->Arg(4)->Arg(16);

/// The same pass with validation off isolates the validator's share:
/// (BM_OptimizePass - BM_OptimizePassUnvalidated) is the cost of the
/// per-rewrite equivalence proofs.
void BM_OptimizePassUnvalidated(benchmark::State& state) {
  const tabular::lang::Program program =
      MustParse(RedundantFig1Program(state.range(0)));
  const tabular::analysis::AbstractDatabase initial =
      tabular::analysis::AbstractDatabase::FromDatabase(SalesDb(8, 4));
  tabular::lang::OptimizerOptions options;
  options.validate_rewrites = false;
  for (auto _ : state) {
    tabular::lang::OptimizeStats stats;
    tabular::lang::Program opt =
        tabular::lang::OptimizeProgram(program, initial, options, &stats);
    benchmark::DoNotOptimize(opt);
  }
  state.SetItemsProcessed(state.iterations() * (state.range(0) * 4 + 1));
}
BENCHMARK(BM_OptimizePassUnvalidated)->Arg(1)->Arg(4)->Arg(16);

void RunFig1(benchmark::State& state, bool optimize) {
  const TabularDatabase base =
      SalesDb(static_cast<size_t>(state.range(0)), 8);
  const tabular::lang::Program program = MustParse(RedundantFig1Program(4));
  tabular::lang::InterpreterOptions options;
  options.optimize = optimize;
  for (auto _ : state) {
    TabularDatabase db = base;
    tabular::lang::Interpreter interp(options);
    tabular::Status st = interp.Run(program, &db);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 8);
}

/// Figure 1 workload, redundancy executed on the data.
void BM_Fig1RedundantInterp(benchmark::State& state) {
  RunFig1(state, /*optimize=*/false);
}
BENCHMARK(BM_Fig1RedundantInterp)->Arg(8)->Arg(64)->Arg(512);

/// Figure 1 workload, redundancy certified away first; includes the full
/// analysis + validation cost, so small inputs show the overhead and
/// large inputs the win.
void BM_Fig1RedundantInterpOptimized(benchmark::State& state) {
  RunFig1(state, /*optimize=*/true);
}
BENCHMARK(BM_Fig1RedundantInterpOptimized)->Arg(8)->Arg(64)->Arg(512);

void RunFig4(benchmark::State& state, bool optimize) {
  const TabularDatabase base =
      SalesDb(static_cast<size_t>(state.range(0)), 8);
  const tabular::lang::Program program = MustParse(kFig4UnrollProgram);
  tabular::lang::InterpreterOptions options;
  options.optimize = optimize;
  for (auto _ : state) {
    TabularDatabase db = base;
    tabular::lang::Interpreter interp(options);
    tabular::Status st = interp.Run(program, &db);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 8);
}

/// Figure 4 grouping behind the provably-single-iteration while loop.
void BM_Fig4UnrollInterp(benchmark::State& state) {
  RunFig4(state, /*optimize=*/false);
}
BENCHMARK(BM_Fig4UnrollInterp)->Arg(8)->Arg(64)->Arg(512);

void BM_Fig4UnrollInterpOptimized(benchmark::State& state) {
  RunFig4(state, /*optimize=*/true);
}
BENCHMARK(BM_Fig4UnrollInterpOptimized)->Arg(8)->Arg(64)->Arg(512);

/// A plan-selection trap with `copies` independent blocks: each products
/// Sales with a tiny column-disjoint Tags table, then filters the result
/// with an identity select. select-pushdown-product matches first (earlier
/// statement index); applying it would strand a residual `Big <- select
/// Part = Part (Sales)` that identity removal can no longer erase (target
/// != argument). Ranking applies the strictly cheaper identity removal
/// instead — Tags having >= 2 rows makes the pushdown plan strictly worse,
/// never a tie.
std::string PushdownTrapProgram(int64_t copies) {
  std::string src;
  for (int64_t i = 0; i < copies; ++i) {
    const std::string big = "Big" + std::to_string(i);
    src += big + " <- product (Sales, Tags);\n";
    src += big + " <- select Part = Part (" + big + ");\n";
  }
  return src;
}

TabularDatabase TrapDb(size_t parts, size_t regions) {
  TabularDatabase db = SalesDb(parts, regions);
  db.Add(Table::Parse(
      {{"!Tags", "!Tag"}, {"#", "hot"}, {"#", "cold"}}));
  return db;
}

/// Times the pass over the trap program and reports the plan it ranks:
/// its static work (`ta_ranked_work`) and the select statements left in
/// it (`ta_residual_selects`), which ctest caps at 0 — a plan that took
/// the pushdown leaves one per block.
void BM_CostRankedPlanSelection(benchmark::State& state) {
  const tabular::lang::Program program =
      MustParse(PushdownTrapProgram(state.range(0)));
  const tabular::analysis::AbstractDatabase initial =
      tabular::analysis::AbstractDatabase::FromDatabase(TrapDb(64, 8));
  for (auto _ : state) {
    tabular::lang::Program plan =
        tabular::lang::OptimizeProgram(program, initial);
    benchmark::DoNotOptimize(plan);
  }
  const tabular::lang::Program plan =
      tabular::lang::OptimizeProgram(program, initial);
  size_t residual_selects = 0;
  for (const tabular::lang::Statement& s : plan.statements) {
    const auto* a = std::get_if<tabular::lang::Assignment>(&s.node);
    residual_selects += a != nullptr && a->op == tabular::lang::OpKind::kSelect;
  }
  state.counters["ta_ranked_work"] = static_cast<double>(
      tabular::analysis::EstimateCost(plan, initial).total_work);
  state.counters["ta_residual_selects"] =
      static_cast<double>(residual_selects);
}
BENCHMARK(BM_CostRankedPlanSelection)->Arg(4)->Arg(16);

}  // namespace

TABULAR_BENCH_MAIN("BENCH_optimizer.json")
