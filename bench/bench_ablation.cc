// ABL: ablations of the implementation's design choices.
//   1. Difference: the subsumption-key hash vs the naive pairwise
//      subsumption scan the definition literally suggests (quadratic).
//   2. Select: the single-column fast path vs the general weak-set
//      comparison.
//   3. Translated programs: with vs without the translator's scratch drops
//      (database growth is what the drops buy back).

#include <benchmark/benchmark.h>

#include <variant>
#include <vector>

#include "algebra/ops.h"
#include "core/sales_data.h"
#include "lang/interpreter.h"
#include "relational/canonical.h"
#include "schemalog/parser.h"
#include "schemalog/translate.h"

namespace {

using tabular::core::Symbol;
using tabular::core::Table;

Symbol S(const char* s) { return Symbol::Name(s); }

// -- 1. Difference: hash vs naive -------------------------------------------

/// The textbook implementation: for each ρ-row scan σ for a mutually
/// subsuming row (what `Difference` did before the subsumption-key hash).
Table NaiveDifference(const Table& rho, const Table& sigma) {
  Table out(1, rho.num_cols());
  out.set_name(rho.name());
  for (size_t j = 1; j < rho.num_cols(); ++j) out.set(0, j, rho.at(0, j));
  for (size_t i = 1; i <= rho.height(); ++i) {
    bool matched = false;
    for (size_t k = 1; k <= sigma.height() && !matched; ++k) {
      matched = Table::RowsSubsumeEachOther(rho, i, sigma, k);
    }
    if (!matched) out.AppendRow(rho.Row(i));
  }
  return out;
}

void BM_DifferenceHashed(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Table a = tabular::fixtures::SyntheticSales(rows / 8, 8, 0);
  Table b = tabular::fixtures::SyntheticSales(rows / 8, 8, 500);
  for (auto _ : state) {
    auto r = tabular::algebra::Difference(a, b, S("T"));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * a.height());
}
BENCHMARK(BM_DifferenceHashed)->Range(64, 4096);

void BM_DifferenceNaive(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Table a = tabular::fixtures::SyntheticSales(rows / 8, 8, 0);
  Table b = tabular::fixtures::SyntheticSales(rows / 8, 8, 500);
  for (auto _ : state) {
    Table r = NaiveDifference(a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * a.height());
}
BENCHMARK(BM_DifferenceNaive)->Range(64, 4096);

// -- 2. Select: fast path vs general weak-set path ---------------------------

void BM_SelectSingleColumnFastPath(benchmark::State& state) {
  Table a = tabular::fixtures::SyntheticSales(
      static_cast<size_t>(state.range(0)) / 8, 8, 0);
  for (auto _ : state) {
    auto r = tabular::algebra::Select(a, S("Part"), S("Region"), S("T"));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * a.height());
}
BENCHMARK(BM_SelectSingleColumnFastPath)->Range(512, 32768);

void BM_SelectGeneralWeakSetPath(benchmark::State& state) {
  // Duplicate one attribute so the general (set-comparison) path runs on
  // the same data volume.
  Table a = tabular::fixtures::SyntheticSales(
      static_cast<size_t>(state.range(0)) / 8, 8, 0);
  tabular::core::SymbolVec extra = a.Column(3);
  extra[0] = S("Part");  // second Part column
  a.AppendColumn(extra);
  for (auto _ : state) {
    auto r = tabular::algebra::Select(a, S("Part"), S("Region"), S("T"));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * a.height());
}
BENCHMARK(BM_SelectGeneralWeakSetPath)->Range(512, 32768);

// -- 3. Translated programs: scratch drops on/off ----------------------------

/// `statements` without its drop statements, inside while bodies too.
std::vector<tabular::lang::Statement> WithoutDrops(
    const std::vector<tabular::lang::Statement>& statements) {
  std::vector<tabular::lang::Statement> out;
  for (const tabular::lang::Statement& s : statements) {
    if (std::holds_alternative<tabular::lang::DropStatement>(s.node)) continue;
    out.push_back(s);
    if (auto* w = std::get_if<tabular::lang::WhileLoop>(&out.back().node)) {
      w->body = WithoutDrops(w->body);
    }
  }
  return out;
}

void RunTranslatedSlog(benchmark::State& state, bool drops) {
  auto slog = tabular::slog::ParseSlogProgram(
      "copy[?T: ?A -> ?V] :- edge[?T: ?A -> ?V].");
  auto ta = tabular::slog::TranslateSlogToTabular(*slog);
  if (!ta.ok()) {
    state.SkipWithError(ta.status().ToString().c_str());
    return;
  }
  tabular::lang::Program program = ta->program;
  if (!drops) program.statements = WithoutDrops(program.statements);
  tabular::rel::RelationalDatabase rdb;
  tabular::rel::Relation edge(S("edge"), {S("from"), S("to")});
  for (int i = 0; i < state.range(0); ++i) {
    tabular::Status st =
        edge.Insert({Symbol::Value("n" + std::to_string(i)),
                     Symbol::Value("n" + std::to_string(i + 1))});
    (void)st;
  }
  rdb.Put(std::move(edge));
  tabular::slog::FactBase edb = tabular::slog::FactsFromRelational(rdb);

  size_t final_tables = 0;
  for (auto _ : state) {
    tabular::core::TabularDatabase db;
    db.Add(tabular::rel::RelationToTable(
        tabular::slog::FactsToRelation(edb)));
    for (const Table& t : ta->prelude_tables) db.Add(t);
    tabular::lang::Interpreter interp;
    tabular::Status st = interp.Run(program, &db);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    final_tables = db.size();
    benchmark::DoNotOptimize(db);
  }
  state.counters["final_tables"] = static_cast<double>(final_tables);
  state.SetItemsProcessed(state.iterations() * edb.size());
}

/// The program as the translator emits it.
void BM_TranslatedSlog(benchmark::State& state) {
  RunTranslatedSlog(state, true);
}
BENCHMARK(BM_TranslatedSlog)->Arg(32)->Arg(128);

/// The same program with every drop stripped: all scratch stays behind.
void BM_TranslatedSlogWithoutDrops(benchmark::State& state) {
  RunTranslatedSlog(state, false);
}
BENCHMARK(BM_TranslatedSlogWithoutDrops)->Arg(32)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
