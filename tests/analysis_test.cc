// Tests for the static analyzer's abstract-schema domain and dataflow
// pass: shape inference through every operation, wildcard handling, the
// while-body fixpoint, and the shared name-flow facts.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "analysis/analyzer.h"
#include "analysis/cost.h"
#include "analysis/diagnostics.h"
#include "analysis/shape.h"
#include "core/symbol.h"
#include "io/grid_format.h"
#include "lang/interpreter.h"
#include "lang/parser.h"
#include "tests/soundness.h"

namespace tabular::analysis {
namespace {

using core::Symbol;
using core::SymbolSet;

Symbol N(const char* text) { return Symbol::Name(text); }

// The flat Sales table of Figure 1: columns {Part, Region, Sold}, one
// data row with a ⊥ row attribute.
constexpr std::string_view kSalesFlat =
    "!Sales | !Part  | !Region | !Sold\n"
    "#      | nuts   | east    | 50\n"
    "#      | bolts  | west    | 60\n";

AbstractDatabase StateFor(std::string_view grid) {
  auto db = io::ParseDatabase(grid);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return AbstractDatabase::FromDatabase(*db);
}

AnalysisResult Analyze(std::string_view grid, std::string_view src,
                       AnalyzerOptions options = {}) {
  auto program = lang::ParseProgram(src);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return AnalyzeProgram(*program, StateFor(grid), options);
}

TableShape Shape(const AnalysisResult& r, const char* name) {
  const TableShape* s = r.final_state.Find(N(name));
  EXPECT_NE(s, nullptr) << "no shape for " << name;
  return s == nullptr ? TableShape{} : *s;
}

AttrSet Cols(std::initializer_list<const char*> names) {
  SymbolSet s;
  for (const char* n : names) s.insert(N(n));
  return AttrSet::Of(std::move(s));
}

AttrSet NullRows() { return AttrSet::Of(SymbolSet{Symbol::Null()}); }

// -- Initial state -----------------------------------------------------------

TEST(AnalysisShapeTest, FromDatabaseReadsBothRegions) {
  AbstractDatabase state = StateFor(kSalesFlat);
  EXPECT_FALSE(state.top);
  ASSERT_TRUE(state.CertainlyExists(N("Sales")));
  EXPECT_EQ(state.ShapeOf(N("Sales")).cols, Cols({"Part", "Region", "Sold"}));
  EXPECT_EQ(state.ShapeOf(N("Sales")).rows, NullRows());
  EXPECT_TRUE(state.DefinitelyAbsent(N("Other")));
}

TEST(AnalysisShapeTest, FromDatabaseAgreesOnCopiesBeforeAndAfterTheMemo) {
  // Duplicate names, data values in row-attribute cells, ⊥ row attributes
  // and a height-0 table: every case of the memoized row-attribute set.
  constexpr std::string_view kGrid =
      "!Sales | !Part  | !Sold\n"
      "east   | nuts   | 50\n"
      "west   | bolts  | 60\n"
      "\n"
      "!Sales | !Part  | !Sold\n"
      "#      | screws | 70\n"
      "\n"
      "!Empty | !A\n";
  auto parsed = io::ParseDatabase(kGrid);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const core::TabularDatabase db = std::move(*parsed);
  const core::TabularDatabase copy = db;
  auto fresh = io::ParseDatabase(kGrid);
  ASSERT_TRUE(fresh.ok());

  // The copy fills the memo it shares with `db`; `fresh` fills its own.
  const AbstractDatabase unfilled = AbstractDatabase::FromDatabase(copy);
  const AbstractDatabase shared = AbstractDatabase::FromDatabase(db);
  const AbstractDatabase own = AbstractDatabase::FromDatabase(*fresh);
  EXPECT_EQ(unfilled, shared);
  EXPECT_EQ(unfilled, own);
  // Every memo is filled now; the images must not move.
  EXPECT_EQ(AbstractDatabase::FromDatabase(db), unfilled);
  EXPECT_EQ(AbstractDatabase::FromDatabase(copy), unfilled);
  EXPECT_EQ(AbstractDatabase::FromDatabase(*fresh), unfilled);

  const TableShape& sales = unfilled.tables.at(N("Sales"));
  EXPECT_EQ(sales.rows, AttrSet::Of({Symbol::Value("east"),
                                     Symbol::Value("west"), Symbol::Null()}));
  EXPECT_EQ(sales.count, CardInterval::Exact(2));
  EXPECT_EQ(unfilled.tables.at(N("Empty")).rows, AttrSet::Of({}));
}

// -- Per-operation transfer functions ---------------------------------------

TEST(AnalysisShapeTest, GroupMovesByAttributesIntoRows) {
  auto r = Analyze(kSalesFlat, "Sales <- group by {Region} on {Sold} (Sales);");
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(Shape(r, "Sales").cols, Cols({"Part", "Sold"}));
  AttrSet rows = NullRows();
  rows.Insert(N("Region"));
  EXPECT_EQ(Shape(r, "Sales").rows, rows);
  EXPECT_TRUE(Shape(r, "Sales").certain);
}

TEST(AnalysisShapeTest, MergeMovesByAttributesBackIntoColumns) {
  auto r = Analyze(kSalesFlat,
                   "Sales <- group by {Region} on {Sold} (Sales);\n"
                   "Wide <- merge on {Sold} by {Region} (Sales);");
  EXPECT_TRUE(r.diagnostics.empty()) << RenderAll(r.diagnostics, "t");
  EXPECT_EQ(Shape(r, "Wide").cols, Cols({"Part", "Region", "Sold"}));
  EXPECT_EQ(Shape(r, "Wide").rows, NullRows());
}

TEST(AnalysisShapeTest, SplitResultJoinsWithSurvivingTarget) {
  // SPLIT may stage zero tables, so the old target may survive: the
  // reflexive form joins old and new shapes and stays certain.
  auto r = Analyze(kSalesFlat, "Sales <- split on {Region} (Sales);");
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(Shape(r, "Sales").cols, Cols({"Part", "Region", "Sold"}));
  AttrSet rows = NullRows();
  rows.Insert(N("Region"));
  EXPECT_EQ(Shape(r, "Sales").rows, rows);
  EXPECT_TRUE(Shape(r, "Sales").certain);

  // A fresh target only may-exist.
  auto r2 = Analyze(kSalesFlat, "Pieces <- split on {Region} (Sales);");
  EXPECT_EQ(Shape(r2, "Pieces").cols, Cols({"Part", "Sold"}));
  EXPECT_FALSE(Shape(r2, "Pieces").certain);
}

TEST(AnalysisShapeTest, CollapseConsumesByRows) {
  auto r = Analyze(kSalesFlat,
                   "Sales <- split on {Region} (Sales);\n"
                   "Sales <- collapse by {Region} (Sales);");
  EXPECT_TRUE(r.diagnostics.empty()) << RenderAll(r.diagnostics, "t");
  EXPECT_EQ(Shape(r, "Sales").cols, Cols({"Part", "Region", "Sold"}));
  EXPECT_EQ(Shape(r, "Sales").rows, NullRows());
}

TEST(AnalysisShapeTest, ProjectWithLiteralSetIntersects) {
  auto r = Analyze(kSalesFlat, "P <- project {Part, Sold} (Sales);");
  EXPECT_EQ(Shape(r, "P").cols, Cols({"Part", "Sold"}));
}

TEST(AnalysisShapeTest, ProjectWithNegativeWildcardSubtracts) {
  // `{*1 ~ Sold}` denotes the whole column universe minus Sold.
  auto r = Analyze(kSalesFlat, "P <- project {*1 ~ Sold} (Sales);");
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(Shape(r, "P").cols, Cols({"Part", "Region"}));
}

TEST(AnalysisShapeTest, RenameReplacesTheColumnAttribute) {
  auto r = Analyze(kSalesFlat, "Q <- rename Qty / Sold (Sales);");
  EXPECT_EQ(Shape(r, "Q").cols, Cols({"Part", "Region", "Qty"}));
}

TEST(AnalysisShapeTest, SelectionsPreserveTheShape) {
  auto r = Analyze(kSalesFlat,
                   "A <- select Part = Region (Sales);\n"
                   "B <- selectconst Region = 'east' (Sales);");
  EXPECT_EQ(Shape(r, "A").cols, Cols({"Part", "Region", "Sold"}));
  EXPECT_EQ(Shape(r, "B").cols, Cols({"Part", "Region", "Sold"}));
}

TEST(AnalysisShapeTest, PairParameterDegradesGracefully) {
  // Entry pairs are unknowable statically: no diagnostics, shape kept.
  auto r = Analyze(kSalesFlat,
                   "T <- selectconst Part = (Region, Sold) (Sales);");
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(Shape(r, "T").cols, Cols({"Part", "Region", "Sold"}));
}

TEST(AnalysisShapeTest, TransposeSwapsTheRegions) {
  auto r = Analyze(kSalesFlat, "T <- transpose (Sales);");
  EXPECT_EQ(Shape(r, "T").cols, NullRows());
  EXPECT_EQ(Shape(r, "T").rows, Cols({"Part", "Region", "Sold"}));
}

TEST(AnalysisShapeTest, SwitchDegradesToTop) {
  // SWITCH promotes a data entry into the attribute position: anything.
  auto r = Analyze(kSalesFlat, "T <- switch 'nuts' (Sales);");
  EXPECT_TRUE(Shape(r, "T").cols.top);
  EXPECT_TRUE(Shape(r, "T").rows.top);
}

TEST(AnalysisShapeTest, ProductJoinsColumnsAndKeepsNullRow) {
  constexpr std::string_view kTwo =
      "!A | !X\n#  | 1\n\n!B | !Y\n#  | 2\n";
  auto r = Analyze(kTwo, "T <- product (A, B);");
  EXPECT_EQ(Shape(r, "T").cols, Cols({"X", "Y"}));
  EXPECT_EQ(Shape(r, "T").rows, NullRows());
}

TEST(AnalysisShapeTest, UnionJoinsBothSchemes) {
  constexpr std::string_view kTwo =
      "!A | !X | !Z\n#  | 1 | 2\n\n!B | !Y | !Z\n#  | 3 | 4\n";
  auto r = Analyze(kTwo, "T <- union (A, B);");
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(Shape(r, "T").cols, Cols({"X", "Y", "Z"}));
}

TEST(AnalysisShapeTest, DifferenceKeepsTheFirstScheme) {
  constexpr std::string_view kTwo =
      "!A | !X | !Z\n#  | 1 | 2\n\n!B | !Y | !Z\n#  | 3 | 4\n";
  auto r = Analyze(kTwo, "T <- difference (A, B);");
  EXPECT_EQ(Shape(r, "T").cols, Cols({"X", "Z"}));
}

TEST(AnalysisShapeTest, TaggingAddsTheIdAttribute) {
  auto r = Analyze(kSalesFlat,
                   "T <- tuplenew Tid (Sales);\n"
                   "S <- setnew Sid (Sales);");
  EXPECT_EQ(Shape(r, "T").cols, Cols({"Part", "Region", "Sold", "Tid"}));
  EXPECT_EQ(Shape(r, "S").cols, Cols({"Part", "Region", "Sold", "Sid"}));
}

TEST(AnalysisShapeTest, CleanupAndPurgePreserveTheShape) {
  auto r = Analyze(kSalesFlat,
                   "Sales <- cleanup by {Part} on {_} (Sales);\n"
                   "Sales <- purge on {Sold} by {_} (Sales);");
  EXPECT_TRUE(r.diagnostics.empty()) << RenderAll(r.diagnostics, "t");
  EXPECT_EQ(Shape(r, "Sales").cols, Cols({"Part", "Region", "Sold"}));
}

// -- Wildcard targets --------------------------------------------------------

TEST(AnalysisWildcardTest, SelfWildcardAppliesPerName) {
  // `*1 <- transpose (*1)` rewrites every table in place, name-preserving.
  auto r = Analyze(kSalesFlat, "*1 <- transpose (*1);");
  EXPECT_FALSE(r.final_state.top);
  EXPECT_EQ(Shape(r, "Sales").cols, NullRows());
  EXPECT_EQ(Shape(r, "Sales").rows, Cols({"Part", "Region", "Sold"}));
  EXPECT_TRUE(Shape(r, "Sales").certain);
}

TEST(AnalysisWildcardTest, MixedWildcardTargetDegradesToTop) {
  // A wildcard target not tied to the argument may write arbitrary names.
  auto r = Analyze(kSalesFlat, "*1 <- difference (*1, *2);");
  EXPECT_TRUE(r.final_state.top);
  EXPECT_TRUE(r.final_state.MayExist(N("Anything")));
  EXPECT_FALSE(r.final_state.DefinitelyAbsent(N("Sales")));
}

// -- While loops -------------------------------------------------------------

TEST(AnalysisWhileTest, FixpointJoinsAllIterationCounts) {
  auto r = Analyze(kSalesFlat,
                   "while Sales do {\n"
                   "  Sales <- group by {Region} on {Sold} (Sales);\n"
                   "}");
  EXPECT_TRUE(r.diagnostics.empty()) << RenderAll(r.diagnostics, "t");
  // Zero iterations keep {Part, Region, Sold}; one or more drop Region
  // from the columns and add it to the rows. The join covers both — and
  // the loop only exits once no Sales table has a data row, so the exit
  // refinement (PR 5) empties the row-attribute set and pins the
  // data-row count to zero.
  EXPECT_EQ(Shape(r, "Sales").cols, Cols({"Part", "Region", "Sold"}));
  EXPECT_EQ(Shape(r, "Sales").rows, AttrSet::Of({}));
  EXPECT_EQ(Shape(r, "Sales").row_card, CardInterval::Exact(0));
  EXPECT_TRUE(Shape(r, "Sales").certain);
}

TEST(AnalysisWhileTest, BodyWritesOnlyMayHappen) {
  auto r = Analyze(kSalesFlat,
                   "while Sales do {\n"
                   "  Sales <- difference (Sales, Sales);\n"
                   "  Out <- transpose (Sales);\n"
                   "}");
  EXPECT_TRUE(r.diagnostics.empty()) << RenderAll(r.diagnostics, "t");
  EXPECT_TRUE(r.final_state.MayExist(N("Out")));
  EXPECT_FALSE(Shape(r, "Out").certain);  // the loop may not iterate
}

TEST(AnalysisWhileTest, ZeroIterationCapWidensToTop) {
  AnalyzerOptions options;
  options.max_fixpoint_iterations = 0;
  auto r = Analyze(kSalesFlat,
                   "while Sales do {\n"
                   "  Sales <- difference (Sales, Sales);\n"
                   "}",
                   options);
  EXPECT_TRUE(Shape(r, "Sales").cols.top);
}

TEST(AnalysisWhileTest, DeepNestedWhilePathsRenderAndRoundTrip) {
  // Whiles nested ≥3 deep: the diagnostic carries the full dotted path
  // (statement 2, body 1, body 3, body 1 → "2.1.3.1") and the interpreter
  // annotates the matching runtime error with the same path.
  const std::string_view src =
      "Seed <- transpose (Sales);\n"             // 1
      "while Sales do {\n"                       // 2
      "  while Sales do {\n"                     // 2.1
      "    A <- transpose (Sales);\n"            // 2.1.1
      "    B <- transpose (Sales);\n"            // 2.1.2
      "    while Sales do {\n"                   // 2.1.3
      "      X <- group by {} on {Sold} (Sales);\n"  // 2.1.3.1
      "    }\n"
      "  }\n"
      "}\n";
  auto r = Analyze(kSalesFlat, src);
  bool found = false;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.path == "2.1.3.1") {
      found = true;
      EXPECT_EQ(Render(d, "p.ta"),
                "p.ta:2.1.3.1: warning: group 'by' set is empty");
    }
  }
  EXPECT_TRUE(found) << RenderAll(r.diagnostics, "p.ta");

  // Round-trip: the runtime error of the same statement names the same
  // dotted path in the interpreter's "statement <path>:" suffix.
  auto program = lang::ParseProgram(src);
  ASSERT_TRUE(program.ok());
  auto db = io::ParseDatabase(kSalesFlat);
  ASSERT_TRUE(db.ok());
  lang::Interpreter interp;
  Status st = interp.Run(*program, &*db);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("statement 2.1.3.1: "), std::string::npos)
      << st.ToString();
}

// -- State entry points ------------------------------------------------------

TEST(AnalysisStatesTest, ProgramStatesAreOneCompleteRun) {
  auto program = lang::ParseProgram(
      "T <- transpose (Sales);\n"
      "while T do { T <- difference (T, T); }\n"
      "drop Sales;\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const AbstractDatabase initial = StateFor(kSalesFlat);
  const AnalysisResult analyzed = AnalyzeProgram(*program, initial);
  const AnalysisResult run = AnalyzeCompleteRun(program->statements, initial);
  ASSERT_EQ(analyzed.before.size(), 3u);
  EXPECT_TRUE(analyzed.before == run.before);
  EXPECT_EQ(analyzed.final_state, run.final_state);
  EXPECT_TRUE(run.diagnostics.empty());
  // The validator's sync points: entry, after each statement, exit.
  EXPECT_EQ(analyzed.After(0), initial);
  EXPECT_TRUE(analyzed.After(1).CertainlyExists(N("T")));
  EXPECT_TRUE(analyzed.After(2).ShapeOf(N("T")).row_card.DefinitelyZero());
  EXPECT_EQ(&analyzed.After(3), &analyzed.final_state);
  EXPECT_TRUE(analyzed.final_state.DefinitelyAbsent(N("Sales")));
}

TEST(AnalysisStatesTest, LoopInvariantWidensOverCompleteRuns) {
  // Every complete run doubles Sales: the invariant keeps the lower row
  // bound of the entry and widens the upper one to ∞.
  auto program = lang::ParseProgram("Sales <- union (Sales, Sales);");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const AbstractDatabase inv =
      LoopInvariant(program->statements, StateFor(kSalesFlat));
  const TableShape sales = inv.ShapeOf(N("Sales"));
  EXPECT_EQ(sales.row_card, CardInterval::Range(2, CardInterval::kInf));
  EXPECT_EQ(sales.cols, Cols({"Part", "Region", "Sold"}));
  EXPECT_TRUE(sales.certain);
}

// -- Name-flow facts ---------------------------------------------------------

TEST(AnalysisFactsTest, AllTableNamesWalksEveryPosition) {
  auto program = lang::ParseProgram(
      "T <- union (A, B);\n"
      "while C do { drop D; }\n");
  ASSERT_TRUE(program.ok());
  SymbolSet names = AllTableNames(*program);
  EXPECT_EQ(names, (SymbolSet{N("A"), N("B"), N("C"), N("D"), N("T")}));
}

TEST(AnalysisFactsTest, DeadStoreKeepMaskFlagsOverwrites) {
  struct Case {
    const char* program;
    std::vector<bool> keep;
  };
  const Case cases[] = {
      {"X <- transpose (Sales);\n"     // dead: overwritten at 3
       "Y <- transpose (Sales);\n"     // live: read at 3
       "X <- project {Part} (Y);\n"    // live at exit
       "Z <- transpose (Sales);\n",    // live at exit
       {false, true, true, true}},
      // An overwritten store.
      {"Out <- transpose (In);\n"
       "Out <- transpose (Other);\n",
       {false, true}},
      // A read between the two writes keeps both.
      {"Out <- transpose (In);\n"
       "Copy <- transpose (Out);\n"
       "Out <- transpose (Other);\n",
       {true, true, true}},
      // A store dropped before any read is dead; the drop stays.
      {"Tmp <- transpose (In);\n"
       "drop Tmp;\n",
       {false, true}},
      // A wildcard read keeps every earlier store live.
      {"Tmp <- transpose (In);\n"
       "*1 <- transpose (*1);\n"
       "Tmp <- transpose (Other);\n",
       {true, true, true}},
      // So does a read in a while body.
      {"Seed <- transpose (In);\n"
       "while Work do { Work <- difference (Work, Seed); }\n"
       "Seed <- transpose (Other);\n",
       {true, true, true}},
  };
  for (const Case& c : cases) {
    auto program = lang::ParseProgram(c.program);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_EQ(DeadStoreKeepMask(*program), c.keep) << c.program;
  }
}

TEST(AnalysisFactsTest, CollectParamNamesMarksWildcardsUniversal) {
  auto program = lang::ParseProgram("*1 <- transpose (T);");
  ASSERT_TRUE(program.ok());
  const auto& a =
      std::get<lang::Assignment>(program->statements[0].node);
  SymbolSet names;
  bool universal = false;
  CollectParamNames(a.target, &names, &universal);
  EXPECT_TRUE(universal);
  CollectParamNames(a.args[0], &names, &universal);
  EXPECT_TRUE(names.contains(N("T")));
}

// -- Lattice laws for the PR 5 domains ---------------------------------------

TEST(AnalysisLatticeTest, MustSetJoinIsIntersectionAndTopAbsorbs) {
  MustSet ab = MustSet::Of({N("A"), N("B")});
  MustSet bc = MustSet::Of({N("B"), N("C")});
  MustSet j = ab;
  j.Join(bc);
  EXPECT_EQ(j, MustSet::Of({N("B")}));
  // ⊤ (= ∅, no certain knowledge) absorbs any join.
  MustSet top = MustSet::Top();
  top.Join(ab);
  EXPECT_TRUE(top.IsTop());
  MustSet t2 = ab;
  t2.Join(MustSet::Top());
  EXPECT_TRUE(t2.IsTop());
  // Join is an upper bound in the reverse-inclusion order: the result's
  // guarantee is implied by both inputs (Covers runs downward).
  EXPECT_TRUE(ab.Covers(j));
  EXPECT_TRUE(bc.Covers(j));
  // Monotonicity: joining with a weaker fact never strengthens.
  MustSet weaker = MustSet::Of({N("B")});
  MustSet m1 = ab;
  m1.Join(weaker);
  EXPECT_TRUE(ab.Covers(m1));
}

TEST(AnalysisLatticeTest, CardIntervalJoinIsHullWidenJumpsToBounds) {
  CardInterval a = CardInterval::Range(2, 5);
  CardInterval b = CardInterval::Range(4, 9);
  CardInterval j = a;
  j.Join(b);
  EXPECT_EQ(j, CardInterval::Range(2, 9));
  // Join is an upper bound: both inputs are within the hull.
  EXPECT_TRUE(a.WithinOf(j));
  EXPECT_TRUE(b.WithinOf(j));
  // ⊤ absorbs.
  CardInterval top = CardInterval::Top();
  top.Join(a);
  EXPECT_TRUE(top.IsTop());
  CardInterval t2 = a;
  t2.Join(CardInterval::Top());
  EXPECT_TRUE(t2.IsTop());
  // Widen jumps unstable bounds to the lattice ends (and is therefore
  // above the join).
  CardInterval w = a;
  w.Widen(b);
  EXPECT_EQ(w, CardInterval::Range(2, CardInterval::kInf));
  EXPECT_TRUE(j.WithinOf(w));
  // A stable bound widens to itself.
  CardInterval s = CardInterval::Range(2, 9);
  s.Widen(CardInterval::Range(3, 9));
  EXPECT_EQ(s, CardInterval::Range(2, 9));
}

TEST(AnalysisLatticeTest, CardIntervalSaturatingArithmetic) {
  CardInterval inf = CardInterval::Top();
  // 0·∞ = 0: an empty side annihilates the product.
  EXPECT_EQ(CardInterval::Exact(0).Times(inf), CardInterval::Exact(0));
  EXPECT_EQ(CardInterval::Exact(3).Times(CardInterval::Exact(4)),
            CardInterval::Exact(12));
  EXPECT_EQ(CardInterval::Exact(2).Plus(inf).hi, CardInterval::kInf);
  EXPECT_EQ(CardInterval::Exact(CardInterval::kInf - 1).PlusConst(5).hi,
            CardInterval::kInf);
}

// -- Concrete runs stay within the abstract bounds ---------------------------

// Every examples/*.ta program, executed for real, must land inside the
// abstract final state (tests/soundness.h).
TEST(AnalysisSoundnessTest, ExamplesStayWithinAbstractBounds) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(TABULAR_SOURCE_DIR) / "examples";
  auto slurp = [](const fs::path& p) {
    std::ifstream in(p);
    EXPECT_TRUE(in.good()) << p;
    std::stringstream out;
    out << in.rdbuf();
    return out.str();
  };
  size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".ta") continue;
    SCOPED_TRACE(entry.path().filename().string());
    auto program = lang::ParseProgram(slurp(entry.path()));
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    auto db = io::ParseDatabase(slurp(dir / "sales.tdb"));
    ASSERT_TRUE(db.ok());

    AnalysisResult r =
        AnalyzeProgram(*program, AbstractDatabase::FromDatabase(*db));
    lang::Interpreter interp;
    ASSERT_TRUE(interp.Run(*program, &*db).ok());
    ++checked;
    EXPECT_TRUE(testing::WithinAbstractState(*db, r.final_state));
  }
  EXPECT_GE(checked, 3u);
}

// -- CardInterval saturation boundaries --------------------------------------

TEST(CardIntervalSatTest, AddSaturatesExactlyAtTheSentinel) {
  constexpr uint64_t inf = CardInterval::kInf;
  EXPECT_EQ(CardInterval::SatAdd(0, 0), 0u);
  // One below the sentinel is still a finite value...
  EXPECT_EQ(CardInterval::SatAdd(inf - 2, 1), inf - 1);
  // ...but an exact landing on 2^64-1 must read as ∞, not as a finite sum.
  EXPECT_EQ(CardInterval::SatAdd(inf - 1, 1), inf);
  EXPECT_EQ(CardInterval::SatAdd(1, inf - 1), inf);
  EXPECT_EQ(CardInterval::SatAdd(inf - 1, inf - 1), inf);
  EXPECT_EQ(CardInterval::SatAdd(inf, 0), inf);
  EXPECT_EQ(CardInterval::SatAdd(0, inf), inf);
  EXPECT_EQ(CardInterval::SatAdd(inf, inf), inf);
}

TEST(CardIntervalSatTest, MulSaturatesWithoutWrapping) {
  constexpr uint64_t inf = CardInterval::kInf;
  EXPECT_EQ(CardInterval::SatMul(0, inf), 0u);  // 0·∞ = 0 (empty pool)
  EXPECT_EQ(CardInterval::SatMul(inf, 0), 0u);
  EXPECT_EQ(CardInterval::SatMul(1, inf), inf);
  EXPECT_EQ(CardInterval::SatMul(inf, inf), inf);
  // kInf = 2^64-1 = 3 × 6148914691236517205 is composite: an exact landing
  // on the sentinel must saturate, not masquerade as a finite product.
  EXPECT_EQ(CardInterval::SatMul(3, 6148914691236517205ULL), inf);
  EXPECT_EQ(CardInterval::SatMul(6148914691236517205ULL, 3), inf);
  // 2 × 2^63 wraps to 0 in raw uint64 arithmetic; saturation catches it.
  EXPECT_EQ(CardInterval::SatMul(2, uint64_t{1} << 63), inf);
  EXPECT_EQ(CardInterval::SatMul(uint64_t{1} << 32, uint64_t{1} << 32), inf);
  // The largest products strictly below the sentinel stay exact.
  EXPECT_EQ(CardInterval::SatMul((uint64_t{1} << 32) - 1, uint64_t{1} << 32),
            ((uint64_t{1} << 32) - 1) << 32);
}

TEST(CardIntervalSatTest, IntervalOpsKeepInfOutOfLowerBounds) {
  // The ∞ sentinel may only appear as an *upper* bound: a lower bound
  // that would saturate clamps at kInf-1 ("at least astronomically many"),
  // keeping lo <= hi and Exact(kInf) unconstructible via arithmetic.
  const CardInterval big = CardInterval::Exact(CardInterval::kInf - 1);
  const CardInterval sum = big.Plus(CardInterval::Exact(1));
  EXPECT_EQ(sum.lo, CardInterval::kInf - 1);
  EXPECT_EQ(sum.hi, CardInterval::kInf);
  const CardInterval prod = big.Times(CardInterval::Exact(2));
  EXPECT_EQ(prod.lo, CardInterval::kInf - 1);
  EXPECT_EQ(prod.hi, CardInterval::kInf);
  const CardInterval bumped = big.PlusConst(1);
  EXPECT_EQ(bumped.lo, CardInterval::kInf - 1);
  EXPECT_EQ(bumped.hi, CardInterval::kInf);
}

// -- Static cost model --------------------------------------------------------

TEST(CostModelTest, BoundedProgramGetsExactFiniteBounds) {
  auto program = lang::ParseProgram("T <- select Part = Part (Sales);");
  ASSERT_TRUE(program.ok());
  const CostReport r = EstimateCost(*program, StateFor(kSalesFlat));
  EXPECT_FALSE(r.unbounded());
  ASSERT_EQ(r.statements.size(), 1u);
  const StatementCost& c = r.statements[0];
  EXPECT_EQ(c.path, "1");
  // SELECT A=A is the identity transfer: 2 rows in, exactly 2 out.
  EXPECT_EQ(c.out_rows, 2u);
  EXPECT_EQ(c.out_cols, 3u);
  EXPECT_EQ(c.out_bytes, 2u * 3u * kCostHandleBytes);
  EXPECT_EQ(c.work, CostWeight(lang::OpKind::kSelect) * (2 + 2 + 1));
  EXPECT_EQ(r.total_work, c.work);
  EXPECT_EQ(r.peak_rows, 2u);
  EXPECT_EQ(r.peak_rows_path, "1");
  EXPECT_EQ(r.peak_bytes_path, "1");
}

TEST(CostModelTest, UnboundedLoopBodyReportsInfiniteWork) {
  // The guard is never provably drained, so the trip count is unbounded:
  // every body statement's work saturates even though its row bound stays
  // finite (a loop can spin forever over a bounded table).
  auto program =
      lang::ParseProgram("while Sales do { T <- union (Sales, Sales); }");
  ASSERT_TRUE(program.ok());
  const CostReport r = EstimateCost(*program, StateFor(kSalesFlat));
  ASSERT_EQ(r.statements.size(), 1u);
  EXPECT_EQ(r.statements[0].path, "1.1");
  EXPECT_TRUE(r.statements[0].in_unbounded_loop);
  EXPECT_EQ(r.statements[0].work, CardInterval::kInf);
  EXPECT_TRUE(r.unbounded());
  EXPECT_EQ(r.unbounded_path, "1.1");
  EXPECT_EQ(r.total_work, CardInterval::kInf);
}

TEST(CostModelTest, DeadLoopBodyCostsNothing) {
  // The guard names a definitely-absent table: zero iterations, no cost
  // entries at all.
  auto program =
      lang::ParseProgram("while Gone do { T <- product (Sales, Sales); }");
  ASSERT_TRUE(program.ok());
  const CostReport r = EstimateCost(*program, StateFor(kSalesFlat));
  EXPECT_TRUE(r.statements.empty());
  EXPECT_EQ(r.total_work, 0u);
  EXPECT_FALSE(r.unbounded());
}

TEST(CostModelTest, SingleIterationLoopIsCostedOnce) {
  // A single-carrier self-difference provably drains the guard after one
  // abstract pass: the body is costed once, at the entry state, finite.
  auto program =
      lang::ParseProgram("while Sales do { Sales <- difference (Sales, Sales); }");
  ASSERT_TRUE(program.ok());
  const CostReport r = EstimateCost(*program, StateFor(kSalesFlat));
  ASSERT_EQ(r.statements.size(), 1u);
  EXPECT_FALSE(r.statements[0].in_unbounded_loop);
  EXPECT_NE(r.statements[0].work, CardInterval::kInf);
  EXPECT_FALSE(r.unbounded());
}

TEST(CostModelTest, CompareCostIsLexicographic) {
  CostSummary a, b;
  a.total_work = 10;
  b.total_work = 20;
  EXPECT_LT(CompareCost(a, b), 0);
  EXPECT_GT(CompareCost(b, a), 0);
  b.total_work = 10;
  a.peak_bytes = 5;
  b.peak_bytes = 9;
  EXPECT_LT(CompareCost(a, b), 0);
  b.peak_bytes = 5;
  EXPECT_EQ(CompareCost(a, b), 0);
  b.entries = 1;
  EXPECT_LT(CompareCost(a, b), 0);  // fewer statements breaks the tie
  b.entries = 0;
  b.total_work = CardInterval::kInf;
  EXPECT_LT(CompareCost(a, b), 0);  // any bounded plan beats unbounded
}

TEST(CostModelTest, FormatCostRendersInfinitySymbol) {
  EXPECT_EQ(FormatCost(42), "42");
  EXPECT_EQ(FormatCost(CardInterval::kInf), "∞");
}

// -- Diagnostic ordering -----------------------------------------------------

TEST(AnalysisDiagnosticsTest, PathLessOrdersNumericallyAndByDepth) {
  EXPECT_TRUE(PathLess("2", "10"));
  EXPECT_TRUE(PathLess("2.1", "2.2"));
  EXPECT_TRUE(PathLess("2", "2.1"));
  EXPECT_TRUE(PathLess("2.9", "10"));
  EXPECT_FALSE(PathLess("3", "2.1"));
  EXPECT_FALSE(PathLess("2", "2"));
}

TEST(AnalysisDiagnosticsTest, RenderIsClangStyle) {
  Diagnostic d{Severity::kError, "2.1", "something is off", "a note"};
  EXPECT_EQ(Render(d, "prog.ta"),
            "prog.ta:2.1: error: something is off\n  note: a note");
}

}  // namespace
}  // namespace tabular::analysis
