#include "schemalog/schemalog.h"

#include <gtest/gtest.h>

#include "core/compare.h"
#include "lang/interpreter.h"
#include "relational/canonical.h"
#include "schemalog/parser.h"
#include "schemalog/translate.h"
#include "tests/test_util.h"

namespace tabular::slog {
namespace {

using rel::RelationalDatabase;
using ::tabular::testing::N;
using ::tabular::testing::V;

FactBase EdgeFacts() {
  RelationalDatabase db;
  db.Put(rel::Relation::Make(
      "edge", {"from", "to"},
      {{"a", "b"}, {"b", "c"}, {"c", "d"}}));
  return FactsFromRelational(db);
}

SlogProgram MustParse(const char* src) {
  auto r = ParseSlogProgram(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

TEST(SlogParserTest, ParsesFactAndRule) {
  SlogProgram p = MustParse(R"(
    -- a ground fact and a copy rule
    edge['e9': from -> 'z'].
    copy[?T: ?A -> ?V] :- edge[?T: ?A -> ?V].
  )");
  ASSERT_EQ(p.rules.size(), 2u);
  EXPECT_TRUE(p.rules[0].body.empty());
  EXPECT_EQ(p.rules[1].body.size(), 1u);
  EXPECT_TRUE(p.rules[1].head.attr.is_var);
}

TEST(SlogParserTest, ParsesBuiltins) {
  SlogProgram p = MustParse(
      "r[?T: x -> ?V] :- s[?T: x -> ?V], ?V != 'a', ?V <= 10, ?V < ?V, "
      "?V = ?V.");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.rules[0].body.size(), 5u);
}

TEST(SlogParserTest, RoundTripThroughToString) {
  SlogProgram p = MustParse(
      "out[?T: dest -> ?V] :- edge[?T: to -> ?V], ?V != 'a'.");
  SlogProgram p2 = MustParse(p.ToString().c_str());
  EXPECT_EQ(p.ToString(), p2.ToString());
}

TEST(SlogParserTest, Errors) {
  EXPECT_FALSE(ParseSlogProgram("edge[x: y -> z]").ok());   // missing '.'
  EXPECT_FALSE(ParseSlogProgram("edge[x: y z].").ok());     // missing ->
  EXPECT_FALSE(ParseSlogProgram("r[?T: a -> ?V] :- .").ok());
}

TEST(SlogValidateTest, RejectsUnsafeRules) {
  SlogProgram p = MustParse("r[?T: a -> ?V].");  // head vars unbound
  EXPECT_FALSE(p.Validate().ok());
  SlogProgram q =
      MustParse("r[?T: a -> ?V] :- s[?T: a -> ?V], ?W != 'x'.");
  EXPECT_FALSE(q.Validate().ok());  // ?W unbound
}

// ---------------------------------------------------------------------------
// Facts and bridges
// ---------------------------------------------------------------------------

TEST(FactBaseTest, FromRelationalQuadruples) {
  FactBase f = EdgeFacts();
  EXPECT_EQ(f.size(), 6u);  // 3 tuples × 2 attributes
}

TEST(FactBaseTest, ToTabularRebuildsVariableWidthTables) {
  FactBase f = EdgeFacts();
  // Add an extra attribute on one tuple only: variable-width relation.
  f.Insert(Fact{N("edge"), V("edge#0"), N("weight"), V("7")});
  core::TabularDatabase db = FactsToTabular(f, /*keep_tids=*/false);
  ASSERT_EQ(db.size(), 1u);
  const core::Table& t = db.tables()[0];
  EXPECT_EQ(t.width(), 3u);
  EXPECT_EQ(t.height(), 3u);
  // Tuples without the weight attribute read ⊥ there.
  size_t nulls = 0;
  for (size_t i = 1; i <= t.height(); ++i) {
    if (t.RowEntries(i, N("weight")).contains(core::Symbol::Null())) ++nulls;
  }
  EXPECT_EQ(nulls, 2u);
}

TEST(FactBaseTest, TidsOptionallyKeptAsRowAttributes) {
  core::TabularDatabase db = FactsToTabular(EdgeFacts(), /*keep_tids=*/true);
  EXPECT_EQ(db.tables()[0].RowAttribute(1), V("edge#0"));
}

TEST(FactBaseTest, RelationRoundTrip) {
  FactBase f = EdgeFacts();
  auto back = RelationToFacts(FactsToRelation(f));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == f);
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

TEST(SlogEvalTest, CopyRule) {
  SlogProgram p = MustParse("copy[?T: ?A -> ?V] :- edge[?T: ?A -> ?V].");
  auto r = Evaluate(p, EdgeFacts());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 12u);  // 6 edb + 6 copies
  EXPECT_TRUE(r->Contains(Fact{N("copy"), V("edge#0"), N("from"), V("a")}));
}

TEST(SlogEvalTest, SchemaVariablesRangeOverAttributes) {
  // Collect the attribute names of edge as data: the higher-order feature.
  SlogProgram p = MustParse("attrs[?A: name -> ?A] :- edge[?T: ?A -> ?V].");
  auto r = Evaluate(p, EdgeFacts());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Contains(Fact{N("attrs"), N("from"), N("name"), N("from")}));
  EXPECT_TRUE(r->Contains(Fact{N("attrs"), N("to"), N("name"), N("to")}));
}

TEST(SlogEvalTest, JoinAcrossAtoms) {
  // path(t1·t2) for consecutive edges.
  SlogProgram p = MustParse(R"(
    path[?T: from -> ?X] :-
      edge[?T: to -> ?Y], edge[?U: from -> ?Y], edge[?T: from -> ?X].
  )");
  auto r = Evaluate(p, EdgeFacts());
  ASSERT_TRUE(r.ok());
  // Edges a->b and b->c chain; path tuples derived for t of a->b and b->c.
  EXPECT_TRUE(r->Contains(Fact{N("path"), V("edge#0"), N("from"), V("a")}));
}

TEST(SlogEvalTest, RecursionReachesFixpoint) {
  SlogProgram p = MustParse(R"(
    tc[?T: ?A -> ?V] :- edge[?T: ?A -> ?V].
    tc[?T: to -> ?Z] :- tc[?T: to -> ?Y], edge[?U: from -> ?Y],
                        edge[?U: to -> ?Z].
  )");
  auto r = Evaluate(p, EdgeFacts());
  ASSERT_TRUE(r.ok());
  // a's tuple eventually points to d.
  EXPECT_TRUE(r->Contains(Fact{N("tc"), V("edge#0"), N("to"), V("d")}));
}

TEST(SlogEvalTest, BuiltinsFilter) {
  SlogProgram p = MustParse(
      "out[?T: to -> ?V] :- edge[?T: to -> ?V], ?V != 'b'.");
  auto r = Evaluate(p, EdgeFacts());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->Contains(Fact{N("out"), V("edge#0"), N("to"), V("b")}));
  EXPECT_TRUE(r->Contains(Fact{N("out"), V("edge#1"), N("to"), V("c")}));
}

TEST(SlogEvalTest, NumericOrderBuiltin) {
  RelationalDatabase db;
  db.Put(rel::Relation::Make("m", {"v"}, {{"2"}, {"10"}, {"30"}}));
  SlogProgram p = MustParse("small[?T: v -> ?V] :- m[?T: v -> ?V], ?V < 10.");
  auto r = Evaluate(p, FactsFromRelational(db));
  ASSERT_TRUE(r.ok());
  // Numeric comparison: 2 < 10 only (lexicographic would also admit "10").
  size_t small = 0;
  for (const Fact& f : r->facts()) {
    if (f[0] == N("small")) ++small;
  }
  EXPECT_EQ(small, 1u);
}

TEST(SlogEvalTest, GroundFactRule) {
  SlogProgram p = MustParse("extra['e0': note -> 'hello'].");
  auto r = Evaluate(p, EdgeFacts());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Contains(Fact{N("extra"), V("e0"), N("note"), V("hello")}));
}

TEST(SlogEvalTest, FactLimitGuard) {
  // A rule that keeps inventing facts by rotating symbols: tid position
  // cycles through all symbols via the val position.
  SlogProgram p = MustParse("gen[?V: a -> ?T] :- gen[?T: a -> ?V].");
  FactBase edb;
  edb.Insert(Fact{N("gen"), V("x"), N("a"), V("y")});
  SlogOptions opts;
  opts.max_iterations = 3;
  auto r = Evaluate(p, edb, opts);
  // Terminates quickly (cycle of length 2) — must succeed.
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

// ---------------------------------------------------------------------------
// Theorem 4.5: SchemaLog_d → FO → tabular algebra, differentially
// ---------------------------------------------------------------------------

void ExpectEmbeddingAgrees(const SlogProgram& p, const FactBase& edb) {
  auto native = Evaluate(p, edb);
  ASSERT_TRUE(native.ok()) << native.status().ToString();

  // Layer 1: FO+while over SL.
  auto fo = TranslateSlogToFo(p);
  ASSERT_TRUE(fo.ok()) << fo.status().ToString();
  RelationalDatabase rdb;
  rdb.Put(FactsToRelation(edb));
  ASSERT_TRUE(rel::RunFoProgram(*fo, &rdb).ok());
  auto fo_facts = RelationToFacts(rdb.Get(SlogFactsName()).value());
  ASSERT_TRUE(fo_facts.ok());
  EXPECT_TRUE(*fo_facts == *native) << "FO layer disagrees with evaluator";

  // Layer 2: the full tabular-algebra program.
  auto ta = TranslateSlogToTabular(p);
  ASSERT_TRUE(ta.ok()) << ta.status().ToString();
  core::TabularDatabase tdb;
  tdb.Add(rel::RelationToTable(FactsToRelation(edb)));
  for (const core::Table& t : ta->prelude_tables) tdb.Add(t);
  lang::Interpreter interp;
  Status st = interp.Run(ta->program, &tdb);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // The translation drops every table it introduces.
  const core::SymbolVec fo_names = rdb.Names();
  EXPECT_EQ(tdb.TableNames(),
            core::SymbolSet(fo_names.begin(), fo_names.end()));
  std::vector<core::Table> sl = tdb.Named(SlogFactsName());
  ASSERT_EQ(sl.size(), 1u);
  auto back = rel::TableToRelation(sl[0]);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  auto aligned = rel::Project(
      *back, {N("Rel"), N("Tid"), N("Attr"), N("Val")}, SlogFactsName());
  ASSERT_TRUE(aligned.ok()) << aligned.status().ToString();
  auto ta_facts = RelationToFacts(*aligned);
  ASSERT_TRUE(ta_facts.ok());
  EXPECT_TRUE(*ta_facts == *native) << "TA layer disagrees with evaluator";
}

TEST(SlogEmbeddingTest, CopyRuleAgrees) {
  ExpectEmbeddingAgrees(
      MustParse("copy[?T: ?A -> ?V] :- edge[?T: ?A -> ?V]."), EdgeFacts());
}

TEST(SlogEmbeddingTest, ConstantsAndBuiltinsAgree) {
  ExpectEmbeddingAgrees(
      MustParse(
          "out[?T: dest -> ?V] :- edge[?T: to -> ?V], ?V != 'b'."),
      EdgeFacts());
}

TEST(SlogEmbeddingTest, JoinAgrees) {
  ExpectEmbeddingAgrees(MustParse(R"(
    hop[?T: end -> ?Z] :- edge[?T: to -> ?Y], edge[?U: from -> ?Y],
                          edge[?U: to -> ?Z].
  )"),
                        EdgeFacts());
}

TEST(SlogEmbeddingTest, RecursionAgrees) {
  ExpectEmbeddingAgrees(MustParse(R"(
    tc[?T: ?A -> ?V] :- edge[?T: ?A -> ?V].
    tc[?T: to -> ?Z] :- tc[?T: to -> ?Y], edge[?U: from -> ?Y],
                        edge[?U: to -> ?Z].
  )"),
                        EdgeFacts());
}

TEST(SlogEmbeddingTest, GroundFactAgrees) {
  ExpectEmbeddingAgrees(MustParse(R"(
    extra['e0': note -> 'hi'].
    copy[?T: ?A -> ?V] :- extra[?T: ?A -> ?V].
  )"),
                        EdgeFacts());
}

TEST(SlogEmbeddingTest, RepeatedHeadVariableAgrees) {
  // The same variable in two head positions exercises the
  // column-duplication construction.
  ExpectEmbeddingAgrees(
      MustParse("loop[?V: ?V -> ?V] :- edge[?T: from -> ?V]."), EdgeFacts());
}

TEST(SlogEmbeddingTest, OrderBuiltinsRejectedByTranslation) {
  SlogProgram p =
      MustParse("small[?T: v -> ?V] :- m[?T: v -> ?V], ?V < 10.");
  EXPECT_FALSE(TranslateSlogToFo(p).ok());
}

}  // namespace
}  // namespace tabular::slog
