// SLOG (paper §4.2, Theorem 4.5): SchemaLog_d evaluated natively
// (semi-naive bottom-up) vs through the generated tabular-algebra program.
// Expectation: the native evaluator wins by orders of magnitude — the TA
// embedding is a constructive expressiveness result (every SchemaLog_d
// program *can* be run as TA), not an execution strategy; the gap grows
// with the number of body atoms (the translation joins via full products).

#include <benchmark/benchmark.h>

#include <string>

#include "lang/interpreter.h"
#include "relational/canonical.h"
#include "schemalog/parser.h"
#include "schemalog/translate.h"

namespace {

using tabular::slog::FactBase;

FactBase ChainFacts(size_t n) {
  tabular::rel::RelationalDatabase db;
  tabular::rel::Relation edge(tabular::core::Symbol::Name("edge"),
                              {tabular::core::Symbol::Name("from"),
                               tabular::core::Symbol::Name("to")});
  for (size_t i = 0; i + 1 < n; ++i) {
    tabular::Status st =
        edge.Insert({tabular::core::Symbol::Value("n" + std::to_string(i)),
                     tabular::core::Symbol::Value("n" + std::to_string(i + 1))});
    (void)st;
  }
  db.Put(std::move(edge));
  return tabular::slog::FactsFromRelational(db);
}

const char* kCopyProgram = "copy[?T: ?A -> ?V] :- edge[?T: ?A -> ?V].";
const char* kJoinProgram = R"(
  hop[?T: end -> ?Z] :- edge[?T: to -> ?Y], edge[?U: from -> ?Y],
                        edge[?U: to -> ?Z].
)";

void BM_SlogNativeCopy(benchmark::State& state) {
  FactBase edb = ChainFacts(static_cast<size_t>(state.range(0)));
  auto p = tabular::slog::ParseSlogProgram(kCopyProgram);
  for (auto _ : state) {
    auto r = tabular::slog::Evaluate(*p, edb);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * edb.size());
}
BENCHMARK(BM_SlogNativeCopy)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SlogNativeJoin(benchmark::State& state) {
  FactBase edb = ChainFacts(static_cast<size_t>(state.range(0)));
  auto p = tabular::slog::ParseSlogProgram(kJoinProgram);
  for (auto _ : state) {
    auto r = tabular::slog::Evaluate(*p, edb);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * edb.size());
}
BENCHMARK(BM_SlogNativeJoin)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void RunTranslated(benchmark::State& state, const char* program_text,
                   size_t chain) {
  FactBase edb = ChainFacts(chain);
  auto p = tabular::slog::ParseSlogProgram(program_text);
  auto ta = tabular::slog::TranslateSlogToTabular(*p);
  if (!ta.ok()) {
    state.SkipWithError(ta.status().ToString().c_str());
    return;
  }
  size_t final_tables = 0;
  for (auto _ : state) {
    tabular::core::TabularDatabase tdb;
    tdb.Add(tabular::rel::RelationToTable(
        tabular::slog::FactsToRelation(edb)));
    for (const auto& t : ta->prelude_tables) tdb.Add(t);
    tabular::lang::Interpreter interp;
    tabular::Status st = interp.Run(ta->program, &tdb);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    final_tables = tdb.size();
    benchmark::DoNotOptimize(tdb);
  }
  state.counters["final_tables"] = static_cast<double>(final_tables);
  state.SetItemsProcessed(state.iterations() * edb.size());
}

void BM_SlogTranslatedCopy(benchmark::State& state) {
  RunTranslated(state, kCopyProgram, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_SlogTranslatedCopy)->Arg(16)->Arg(64)->Arg(256);

void BM_SlogTranslatedJoin(benchmark::State& state) {
  RunTranslated(state, kJoinProgram, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_SlogTranslatedJoin)->Arg(8)->Arg(16)->Arg(24);

}  // namespace

BENCHMARK_MAIN();
