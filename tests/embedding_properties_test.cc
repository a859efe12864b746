// Randomized differential properties of the embedding layers: GOOD
// programs on random graphs agree across native / FO / TA, and the
// SchemaLog evaluator is monotone in its EDB — swept over seeds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "good/operations.h"
#include "lang/interpreter.h"
#include "relational/canonical.h"
#include "schemalog/parser.h"
#include "schemalog/translate.h"
#include "tests/test_util.h"

namespace tabular {
namespace {

using core::Symbol;
using ::tabular::testing::N;
using ::tabular::testing::V;

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 2654435769u + 1) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

class EmbeddingPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<uint64_t>(GetParam() + 101)};
};

// ---------------------------------------------------------------------------
// GOOD: random graph + random edge-manipulation program, three layers
// ---------------------------------------------------------------------------

good::GoodGraph RandomGraph(Rng* rng) {
  good::GoodGraph g;
  const size_t n = 3 + rng->Below(4);
  const char* labels[2] = {"A", "B"};
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddNode(core::Symbol::Value("n" + std::to_string(i)),
                          N(labels[rng->Below(2)]))
                    .ok());
  }
  const size_t edges = rng->Below(2 * n);
  const char* elabels[2] = {"e", "f"};
  for (size_t k = 0; k < edges; ++k) {
    (void)g.AddEdge(core::Symbol::Value("n" + std::to_string(rng->Below(n))),
                    N(elabels[rng->Below(2)]),
                    core::Symbol::Value("n" + std::to_string(rng->Below(n))));
  }
  return g;
}

good::Pattern RandomEdgePattern(Rng* rng) {
  good::Pattern p;
  const char* labels[2] = {"A", "B"};
  p.nodes = {{"x", N(labels[rng->Below(2)])},
             {"y", N(labels[rng->Below(2)])}};
  const char* elabels[2] = {"e", "f"};
  p.edges = {{"x", N(elabels[rng->Below(2)]), "y"}};
  return p;
}

TEST_P(EmbeddingPropertyTest, GoodEdgeProgramsAgreeAcrossLayers) {
  good::GoodGraph start = RandomGraph(&rng_);
  good::GoodProgram prog;
  const size_t ops = 1 + rng_.Below(3);
  const char* new_labels[2] = {"g", "h"};
  for (size_t k = 0; k < ops; ++k) {
    good::Pattern p = RandomEdgePattern(&rng_);
    if (rng_.Below(2) == 0) {
      prog.items.push_back(good::GoodOp::EdgeAddition(
          p, "x", N(new_labels[rng_.Below(2)]), "y"));
    } else {
      prog.items.push_back(good::GoodOp::EdgeDeletion(
          p, "x", p.edges[0].label, "y"));
    }
  }

  good::GoodGraph native = start;
  ASSERT_TRUE(good::RunGoodProgram(prog, &native).ok());

  auto fo = good::TranslateGoodToFo(prog);
  ASSERT_TRUE(fo.ok());
  rel::RelationalDatabase rdb = good::GraphToRelational(start);
  ASSERT_TRUE(rel::RunFoProgram(*fo, &rdb).ok());
  auto fo_graph = good::RelationalToGraph(rdb);
  ASSERT_TRUE(fo_graph.ok());
  EXPECT_TRUE(*fo_graph == native) << "FO layer diverged (seed "
                                   << GetParam() << ")";

  auto ta = good::TranslateGoodToTabular(prog);
  ASSERT_TRUE(ta.ok());
  core::TabularDatabase tdb =
      rel::RelationalToTabular(good::GraphToRelational(start));
  for (const core::Table& t : ta->prelude_tables) tdb.Add(t);
  lang::Interpreter interp;
  ASSERT_TRUE(interp.Run(ta->program, &tdb).ok());
  // The translation drops every table it introduces.
  const core::SymbolVec fo_names = rdb.Names();
  EXPECT_EQ(tdb.TableNames(),
            core::SymbolSet(fo_names.begin(), fo_names.end()))
      << "seed " << GetParam();
  rel::RelationalDatabase out;
  for (Symbol name : {good::GoodNodesName(), good::GoodEdgesName()}) {
    auto r = rel::TableToRelation(tdb.Named(name)[0]);
    ASSERT_TRUE(r.ok());
    auto aligned = rel::Project(
        *r,
        name == good::GoodNodesName()
            ? core::SymbolVec{N("Id"), N("Label")}
            : core::SymbolVec{N("Src"), N("Label"), N("Dst")},
        name);
    ASSERT_TRUE(aligned.ok());
    out.Put(*aligned);
  }
  auto ta_graph = good::RelationalToGraph(out);
  ASSERT_TRUE(ta_graph.ok());
  EXPECT_TRUE(*ta_graph == native) << "TA layer diverged (seed "
                                   << GetParam() << ")";
}

// ---------------------------------------------------------------------------
// SchemaLog: monotonicity and EDB containment
// ---------------------------------------------------------------------------

slog::FactBase RandomFacts(Rng* rng, size_t count) {
  slog::FactBase out;
  for (size_t i = 0; i < count; ++i) {
    out.Insert(slog::Fact{
        N(rng->Below(2) == 0 ? "r" : "s"),
        core::Symbol::Value("t" + std::to_string(rng->Below(4))),
        N(rng->Below(2) == 0 ? "a" : "b"),
        core::Symbol::Value("v" + std::to_string(rng->Below(3)))});
  }
  return out;
}

TEST_P(EmbeddingPropertyTest, SlogFixpointContainsEdb) {
  auto p = slog::ParseSlogProgram(
      "out[?T: ?A -> ?V] :- r[?T: ?A -> ?V], s[?U: ?A -> ?V].");
  ASSERT_TRUE(p.ok());
  slog::FactBase edb = RandomFacts(&rng_, 1 + rng_.Below(10));
  auto fix = slog::Evaluate(*p, edb);
  ASSERT_TRUE(fix.ok());
  for (const slog::Fact& f : edb.facts()) {
    EXPECT_TRUE(fix->Contains(f)) << "fixpoint lost an EDB fact";
  }
}

TEST_P(EmbeddingPropertyTest, SlogEvaluationIsMonotone) {
  auto p = slog::ParseSlogProgram(
      "out[?T: ?A -> ?V] :- r[?T: ?A -> ?V].\n"
      "out[?T: both -> ?V] :- r[?T: ?A -> ?V], s[?U: ?B -> ?V].");
  ASSERT_TRUE(p.ok());
  slog::FactBase small = RandomFacts(&rng_, 1 + rng_.Below(6));
  slog::FactBase big = small;
  // Named, not a temporary: in C++20 a range-for over
  // `RandomFacts(...).facts()` would destroy the FactBase before the loop.
  slog::FactBase extra = RandomFacts(&rng_, 1 + rng_.Below(6));
  for (const slog::Fact& f : extra.facts()) {
    big.Insert(f);
  }
  auto fix_small = slog::Evaluate(*p, small);
  auto fix_big = slog::Evaluate(*p, big);
  ASSERT_TRUE(fix_small.ok());
  ASSERT_TRUE(fix_big.ok());
  for (const slog::Fact& f : fix_small->facts()) {
    EXPECT_TRUE(fix_big->Contains(f))
        << "negation-free evaluation must be monotone";
  }
}

TEST_P(EmbeddingPropertyTest, SlogEvaluationIsIdempotentOnItsOutput) {
  auto p = slog::ParseSlogProgram(
      "copy[?T: ?A -> ?V] :- r[?T: ?A -> ?V].");
  ASSERT_TRUE(p.ok());
  slog::FactBase edb = RandomFacts(&rng_, 1 + rng_.Below(8));
  auto once = slog::Evaluate(*p, edb);
  ASSERT_TRUE(once.ok());
  auto twice = slog::Evaluate(*p, *once);
  ASSERT_TRUE(twice.ok());
  EXPECT_TRUE(*twice == *once);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmbeddingPropertyTest,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace tabular
