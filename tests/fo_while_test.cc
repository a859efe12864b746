#include "relational/fo_while.h"

#include <gtest/gtest.h>

#include "core/compare.h"
#include "lang/interpreter.h"
#include "relational/canonical.h"
#include "tests/test_util.h"

namespace tabular::rel {
namespace {

using core::TabularDatabase;
using ::tabular::testing::N;
using ::tabular::testing::V;

RelationalDatabase EdgeDb() {
  RelationalDatabase db;
  db.Put(Relation::Make("Edge", {"From", "To"},
                        {{"a", "b"}, {"b", "c"}, {"c", "d"}, {"x", "y"}}));
  return db;
}

// ---------------------------------------------------------------------------
// FO + while + new evaluator
// ---------------------------------------------------------------------------

TEST(FoEvalTest, ExpressionEvaluation) {
  RelationalDatabase db = EdgeDb();
  auto e = RelExpr::SelConst(RelExpr::Rel(N("Edge")), N("From"), V("b"));
  auto r = EvalRelExpr(*e, db, N("T"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->Contains({V("b"), V("c")}));
}

TEST(FoEvalTest, AssignPutsResult) {
  RelationalDatabase db = EdgeDb();
  FoProgram p;
  p.statements.push_back(FoStatement::Assign(
      N("Out"), RelExpr::Proj(RelExpr::Rel(N("Edge")), {N("To")})));
  ASSERT_TRUE(RunFoProgram(p, &db).ok());
  ASSERT_TRUE(db.Has(N("Out")));
  EXPECT_EQ(db.Get(N("Out"))->size(), 4u);
}

TEST(FoEvalTest, TransitiveClosureViaWhile) {
  // TC := Edge; Delta := Edge;
  // while Delta ≠ ∅:
  //   Step  := π_{From,To}( ρ(TC) ⋈-style join via product+select )
  //   Delta := Step \ TC
  //   TC    := TC ∪ Delta
  RelationalDatabase db = EdgeDb();
  auto edge = RelExpr::Rel(N("Edge"));
  auto tc = RelExpr::Rel(N("TC"));
  // Join TC(From,To) with Edge(From2,To2) on To = From2.
  auto renamed_edge = RelExpr::Ren(
      RelExpr::Ren(RelExpr::Rel(N("Edge")), N("From"), N("From2")), N("To"),
      N("To2"));
  auto joined = RelExpr::Sel(RelExpr::Prod(tc, renamed_edge), N("To"),
                             N("From2"));
  auto step = RelExpr::Proj(
      RelExpr::Ren(RelExpr::Proj(joined, {N("From"), N("To2")}), N("To2"),
                   N("To")),
      {N("From"), N("To")});

  FoProgram p;
  p.statements.push_back(FoStatement::Assign(N("TC"), edge));
  p.statements.push_back(FoStatement::Assign(N("Delta"), edge));
  std::vector<FoStatement> body;
  body.push_back(FoStatement::Assign(N("Step"), step));
  body.push_back(FoStatement::Assign(
      N("Delta"),
      RelExpr::Diff(RelExpr::Rel(N("Step")), RelExpr::Rel(N("TC")))));
  body.push_back(FoStatement::Assign(
      N("TC"), RelExpr::Un(RelExpr::Rel(N("TC")), RelExpr::Rel(N("Delta")))));
  p.statements.push_back(FoStatement::While(N("Delta"), std::move(body)));

  ASSERT_TRUE(RunFoProgram(p, &db).ok());
  Relation tc_result = db.Get(N("TC")).value();
  // Closure of a→b→c→d plus x→y: 3+2+1+1 = 7 pairs.
  EXPECT_EQ(tc_result.size(), 7u);
  EXPECT_TRUE(tc_result.Contains({V("a"), V("d")}));
  EXPECT_FALSE(tc_result.Contains({V("a"), V("y")}));
}

TEST(FoEvalTest, NewInventsDistinctValues) {
  RelationalDatabase db = EdgeDb();
  FoProgram p;
  p.statements.push_back(
      FoStatement::New(N("Tagged"), RelExpr::Rel(N("Edge")), N("Tid")));
  ASSERT_TRUE(RunFoProgram(p, &db).ok());
  Relation tagged = db.Get(N("Tagged")).value();
  EXPECT_EQ(tagged.arity(), 3u);
  core::SymbolSet tags;
  core::SymbolSet base = EdgeDb().AllSymbols();
  for (const auto& t : tagged.tuples()) {
    EXPECT_TRUE(tags.insert(t[2]).second) << "tags must be distinct";
    EXPECT_FALSE(base.contains(t[2])) << "tags must be fresh";
  }
}

TEST(FoEvalTest, WhileIterationCap) {
  RelationalDatabase db = EdgeDb();
  FoProgram p;
  // Body never empties Edge: must hit the guard.
  std::vector<FoStatement> body;
  body.push_back(
      FoStatement::Assign(N("Copy"), RelExpr::Rel(N("Edge"))));
  p.statements.push_back(FoStatement::While(N("Edge"), std::move(body)));
  FoOptions opts;
  opts.max_while_iterations = 5;
  Status st = RunFoProgram(p, &db, opts);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Theorem 4.1: the translated tabular program computes the same results
// ---------------------------------------------------------------------------

/// Runs `p` both natively and translated-to-TA; expects the named results
/// to agree as relations, and both runs to leave the same table names.
void ExpectSimulationAgrees(const FoProgram& p, RelationalDatabase db,
                            const std::vector<core::Symbol>& outputs) {
  RelationalDatabase native = db;
  ASSERT_TRUE(RunFoProgram(p, &native).ok());

  TabularDatabase tdb = RelationalToTabular(db);
  auto translation = TranslateFoToTabular(p);
  ASSERT_TRUE(translation.ok()) << translation.status().ToString();
  for (const core::Table& t : translation->prelude_tables) tdb.Add(t);
  lang::Interpreter interp;
  Status st = interp.Run(translation->program, &tdb);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // The translation drops every table it introduces.
  const core::SymbolVec fo_names = native.Names();
  EXPECT_EQ(tdb.TableNames(),
            core::SymbolSet(fo_names.begin(), fo_names.end()));

  for (core::Symbol out : outputs) {
    std::vector<core::Table> tables = tdb.Named(out);
    ASSERT_EQ(tables.size(), 1u) << "expected one table named "
                                 << out.ToString();
    auto got = TableToRelation(tables[0]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Relation want = native.Get(out).value();
    // Attribute order may differ; compare projected onto want's order.
    auto aligned = Project(*got, want.attributes(), want.name());
    ASSERT_TRUE(aligned.ok()) << aligned.status().ToString();
    EXPECT_TRUE(*aligned == want)
        << "FO result:\n" << want.ToString() << "TA simulation:\n"
        << aligned->ToString();
  }
}

TEST(FoSimulationTest, SelectProjectRename) {
  FoProgram p;
  p.statements.push_back(FoStatement::Assign(
      N("Out"),
      RelExpr::Ren(
          RelExpr::Proj(RelExpr::SelConst(RelExpr::Rel(N("Edge")), N("From"),
                                          V("b")),
                        {N("To")}),
          N("To"), N("Dest"))));
  ExpectSimulationAgrees(p, EdgeDb(), {N("Out")});
}

TEST(FoSimulationTest, UnionDifferenceProduct) {
  RelationalDatabase db;
  db.Put(Relation::Make("R", {"A"}, {{"1"}, {"2"}}));
  db.Put(Relation::Make("S", {"A"}, {{"2"}, {"3"}}));
  db.Put(Relation::Make("Q", {"B"}, {{"x"}}));
  FoProgram p;
  p.statements.push_back(FoStatement::Assign(
      N("U"), RelExpr::Un(RelExpr::Rel(N("R")), RelExpr::Rel(N("S")))));
  p.statements.push_back(FoStatement::Assign(
      N("D"), RelExpr::Diff(RelExpr::Rel(N("R")), RelExpr::Rel(N("S")))));
  p.statements.push_back(FoStatement::Assign(
      N("P"), RelExpr::Prod(RelExpr::Rel(N("R")), RelExpr::Rel(N("Q")))));
  ExpectSimulationAgrees(p, db, {N("U"), N("D"), N("P")});
}

TEST(FoSimulationTest, TransitiveClosureAgrees) {
  auto renamed_edge = RelExpr::Ren(
      RelExpr::Ren(RelExpr::Rel(N("Edge")), N("From"), N("From2")), N("To"),
      N("To2"));
  auto joined = RelExpr::Sel(
      RelExpr::Prod(RelExpr::Rel(N("TC")), renamed_edge), N("To"),
      N("From2"));
  auto step = RelExpr::Proj(
      RelExpr::Ren(RelExpr::Proj(joined, {N("From"), N("To2")}), N("To2"),
                   N("To")),
      {N("From"), N("To")});
  FoProgram p;
  p.statements.push_back(
      FoStatement::Assign(N("TC"), RelExpr::Rel(N("Edge"))));
  p.statements.push_back(
      FoStatement::Assign(N("Delta"), RelExpr::Rel(N("Edge"))));
  std::vector<FoStatement> body;
  body.push_back(FoStatement::Assign(N("Step"), step));
  body.push_back(FoStatement::Assign(
      N("Delta"),
      RelExpr::Diff(RelExpr::Rel(N("Step")), RelExpr::Rel(N("TC")))));
  body.push_back(FoStatement::Assign(
      N("TC"), RelExpr::Un(RelExpr::Rel(N("TC")), RelExpr::Rel(N("Delta")))));
  p.statements.push_back(FoStatement::While(N("Delta"), std::move(body)));
  ExpectSimulationAgrees(p, EdgeDb(), {N("TC")});
}

TEST(FoSimulationTest, ScratchIsDroppedAfterItsLastReader) {
  FoProgram p;
  p.statements.push_back(FoStatement::Assign(
      N("Out"),
      RelExpr::Proj(RelExpr::SelConst(RelExpr::Rel(N("R")), N("A"), V("1")),
                    {N("B")})));
  std::vector<FoStatement> body;
  body.push_back(FoStatement::Assign(
      N("W"), RelExpr::Diff(RelExpr::Rel(N("W")),
                            RelExpr::Const({N("A")}, {V("x")}))));
  p.statements.push_back(FoStatement::While(N("W"), std::move(body)));

  // Each fo_tmp goes right after its one reader, in the loop body too; the
  // constant the body copies on every pass goes after the loop.
  auto translation = TranslateFoToTabular(p);
  ASSERT_TRUE(translation.ok()) << translation.status().ToString();
  EXPECT_EQ(translation->program.ToString(),
            "fo_tmp1 <- project {*9} (R);\n"
            "fo_tmp0 <- selectconst A = '1' (fo_tmp1);\n"
            "drop fo_tmp1;\n"
            "Out <- project {B} (fo_tmp0);\n"
            "drop fo_tmp0;\n"
            "Out <- cleanup by {*9} on {_} (Out);\n"
            "while W do {\n"
            "  fo_tmp2 <- project {*9} (W);\n"
            "  fo_tmp3 <- project {*9} (fo_const0);\n"
            "  W <- difference (fo_tmp2, fo_tmp3);\n"
            "  drop fo_tmp2;\n"
            "  drop fo_tmp3;\n"
            "}\n"
            "drop fo_const0;\n");

  RelationalDatabase db;
  db.Put(Relation::Make("R", {"A", "B"}, {{"1", "p"}, {"2", "q"}}));
  db.Put(Relation::Make("W", {"A"}, {{"x"}}));
  ExpectSimulationAgrees(p, db, {N("Out"), N("W")});
}

}  // namespace
}  // namespace tabular::rel
