// Tests for the translation validator (analysis/validate) and the
// validated rewrite engine (lang::OptimizeProgram): the refinement
// relation, per-rule positive certification, rejection of unsound
// rewrites, and byte-identity of optimized execution.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "analysis/cost.h"
#include "analysis/shape.h"
#include "analysis/validate.h"
#include "core/sales_data.h"
#include "core/symbol.h"
#include "io/grid_format.h"
#include "lang/interpreter.h"
#include "lang/optimizer.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "tests/program_gen.h"

namespace tabular::analysis {
namespace {

using core::Symbol;
using core::SymbolSet;
using core::TabularDatabase;

Symbol N(const char* text) { return Symbol::Name(text); }

constexpr std::string_view kSalesFlat =
    "!Sales | !Part  | !Region | !Sold\n"
    "#      | nuts   | east    | 50\n"
    "#      | bolts  | west    | 60\n";

TabularDatabase Db(std::string_view grid) {
  auto db = io::ParseDatabase(grid);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

lang::Program Parse(std::string_view src) {
  auto program = lang::ParseProgram(src);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program.ok() ? std::move(*program) : lang::Program{};
}

/// Validates the rewrite of `original` that replaces its statements
/// [index, index + consumed) with the statements of `replacement`.
ValidationReport Validate(std::string_view original, size_t index,
                          size_t consumed, std::string_view replacement,
                          const AbstractDatabase& initial) {
  const lang::Program o = Parse(original);
  const lang::Program r = Parse(replacement);
  const AnalysisResult states = AnalyzeCompleteRun(o.statements, initial);
  return ValidateTranslation(
      o, states, r.statements,
      AnalyzeSplice(o.statements, states, index, consumed, r.statements));
}

// -- The refinement relation -------------------------------------------------

TEST(RefinementTest, EqualShapesRefineAndLostFactsDoNot) {
  AbstractDatabase state =
      AbstractDatabase::FromDatabase(Db(kSalesFlat));
  TableShape o = state.ShapeOf(N("Sales"));

  std::string why;
  EXPECT_TRUE(Refines(o, o, &why)) << why;

  // Gaining a possible column breaks may-set containment.
  TableShape wider = o;
  wider.cols.Insert(N("Extra"));
  EXPECT_FALSE(Refines(wider, o, &why));
  EXPECT_NE(why.find("may-set"), std::string::npos) << why;
  EXPECT_TRUE(Refines(o, wider, &why)) << why;  // narrowing is fine

  // Losing a must-column breaks the guarantee.
  TableShape weaker = o;
  weaker.must_cols.Erase(N("Part"));
  EXPECT_FALSE(Refines(weaker, o, &why));
  EXPECT_NE(why.find("must-columns"), std::string::npos) << why;

  // Losing certainty breaks refinement; losing it on both sides is fine.
  TableShape uncertain = o;
  uncertain.certain = false;
  EXPECT_FALSE(Refines(uncertain, o, &why));
  EXPECT_TRUE(Refines(uncertain, uncertain, &why)) << why;

  // A cardinality escaping the original interval breaks containment.
  TableShape more_rows = o;
  more_rows.row_card = more_rows.row_card.PlusConst(1);
  EXPECT_FALSE(Refines(more_rows, o, &why));
}

TEST(RefinementTest, ProvablyAbsentRefinesAnythingUncertain) {
  TableShape absent;
  absent.count = CardInterval::Exact(0);
  TableShape maybe = TableShape::Top(/*certain=*/false);
  std::string why;
  EXPECT_TRUE(Refines(absent, maybe, &why)) << why;

  TableShape certainly_there = TableShape::Top(/*certain=*/true);
  EXPECT_FALSE(Refines(absent, certainly_there, &why));
}

TEST(RefinementTest, DatabaseLevelTopAndNameUnion) {
  AbstractDatabase concrete =
      AbstractDatabase::FromDatabase(Db(kSalesFlat));
  AbstractDatabase open = AbstractDatabase::Unknown();
  std::string why;
  // Narrow refines open, not vice versa.
  EXPECT_TRUE(Refines(concrete, open, &why)) << why;
  EXPECT_FALSE(Refines(open, concrete, &why));
  EXPECT_NE(why.find("arbitrary names"), std::string::npos) << why;
}

// -- The validator on hand-built rewrites ------------------------------------

TEST(ValidateTranslationTest, CertifiesIdenticalPrograms) {
  AbstractDatabase initial =
      AbstractDatabase::FromDatabase(Db(kSalesFlat));
  // Statement 1 replaced by itself: the plan is unchanged.
  ValidationReport r = Validate(
      "T <- project {Part} (Sales);\n"
      "U <- transpose (T);\n",
      0, 1, "T <- project {Part} (Sales);\n", initial);
  EXPECT_TRUE(r.certified) << r.reason;
  EXPECT_TRUE(r.reason.empty());
}

TEST(ValidateTranslationTest, RejectsDeliberatelyUnsoundRewrite) {
  AbstractDatabase initial =
      AbstractDatabase::FromDatabase(Db(kSalesFlat));
  // Unsound: replacing the projection with a transpose produces a table
  // whose columns ({⊥} from the data-row attributes) escape the
  // original's {Part}.
  ValidationReport r = Validate(
      "T <- project {Part} (Sales);\n"
      "U <- transpose (T);\n",
      0, 1, "T <- transpose (Sales);\n", initial);
  EXPECT_FALSE(r.certified);
  EXPECT_FALSE(r.divergent_path.empty());
  EXPECT_NE(r.reason.find("'T'"), std::string::npos) << r.reason;
}

TEST(ValidateTranslationTest, RejectsDroppedEffect) {
  AbstractDatabase initial =
      AbstractDatabase::FromDatabase(Db(kSalesFlat));
  // Removing a statement whose effect is visible at exit must not verify.
  ValidationReport r =
      Validate("T <- project {Part} (Sales);\n", 0, 1, "", initial);
  EXPECT_FALSE(r.certified);
  EXPECT_EQ(r.divergent_path, "exit");
}

TEST(ValidateTranslationTest, NamesFirstDivergentSyncPoint) {
  AbstractDatabase initial =
      AbstractDatabase::FromDatabase(Db(kSalesFlat));
  // The rewritten first statement diverges, but statements 2 and 3 are an
  // untouched suffix: the report points at the first suffix sync point
  // (one rewritten statement executed), not at program exit.
  ValidationReport r = Validate(
      "T <- project {Part} (Sales);\n"
      "U <- transpose (Sales);\n"
      "V <- transpose (Sales);\n",
      0, 1, "T <- project {Part, Region} (Sales);\n", initial);
  EXPECT_FALSE(r.certified);
  EXPECT_EQ(r.divergent_path, "1");
}

// -- The premises of span-local validation ----------------------------------

/// The analyzer's top-level states of each generated program, from `initial`.
template <typename Visit>
void ForEachGeneratedRun(const AbstractDatabase& initial, Visit visit) {
  testgen::ProgramGenerator gen(0x5EED);
  for (size_t i = 0; i < 1000; ++i) {
    const lang::Program program = Parse(gen.Program());
    visit(i, program, AnalyzeCompleteRun(program.statements, initial));
  }
}

TEST(SpliceExactnessTest, EveryGeneratedStateRefinesItself) {
  // The validator skips every sync point whose rewritten state is the
  // original's own state object; that returns the whole-program verdict
  // only because refinement is reflexive on every state that occurs.
  size_t states = 0;
  for (const AbstractDatabase& initial :
       {AbstractDatabase::FromDatabase(Db(testgen::kGrid)),
        AbstractDatabase::Unknown()}) {
    ForEachGeneratedRun(initial, [&](size_t i, const lang::Program&,
                                     const AnalysisResult& run) {
      for (size_t k = 0; k <= run.before.size(); ++k) {
        std::string why;
        EXPECT_TRUE(Refines(run.After(k), run.After(k), &why))
            << "program " << i << ", state " << k << ": " << why;
        ++states;
      }
    });
  }
  EXPECT_EQ(states, 11762u);
}

TEST(SpliceExactnessTest, SplicedStatesEqualAFreshCompleteRun) {
  // Analysis is a forward function of the state, so a splice analyzed only
  // up to its sync point has exactly the states of the spliced program
  // analyzed from scratch. Windows: each statement deleted, and each
  // statement repeated in place.
  const AbstractDatabase initial =
      AbstractDatabase::FromDatabase(Db(testgen::kGrid));
  size_t synced_early = 0;
  ForEachGeneratedRun(initial, [&](size_t i, const lang::Program& program,
                                   const AnalysisResult& run) {
    const std::vector<lang::Statement>& ss = program.statements;
    for (size_t w = 0; w < ss.size(); ++w) {
      for (const bool repeat : {false, true}) {
        std::vector<lang::Statement> replacement;
        if (repeat) replacement = {ss[w], ss[w]};
        const SplicedRun splice =
            AnalyzeSplice(ss, run, w, 1, replacement);
        lang::Program spliced;
        spliced.statements.assign(ss.begin(), ss.begin() + w);
        spliced.statements.insert(spliced.statements.end(),
                                  replacement.begin(), replacement.end());
        spliced.statements.insert(spliced.statements.end(),
                                  ss.begin() + w + 1, ss.end());
        const AnalysisResult fresh =
            AnalyzeCompleteRun(spliced.statements, initial);
        const size_t n = spliced.statements.size();
        for (size_t k = 0; k <= n; ++k) {
          ASSERT_EQ(splice.After(run, k), fresh.After(k))
              << "program " << i << ", window " << w
              << (repeat ? " repeated" : " deleted") << ", state " << k;
        }
        const AnalysisResult applied = ApplySplice(run, splice);
        ASSERT_EQ(applied.before, fresh.before) << "program " << i;
        ASSERT_EQ(applied.final_state, fresh.final_state) << "program " << i;
        synced_early += splice.analyzed < n - w;
      }
    }
  });
  EXPECT_GT(synced_early, 0u);
}

TEST(SpliceExactnessTest, StatementCostsSumToTheProgramCost) {
  // A candidate's cost is a sum of per-statement summaries, so that sum
  // must be what costing the whole program ranks by.
  ForEachGeneratedRun(
      AbstractDatabase::FromDatabase(Db(testgen::kGrid)),
      [](size_t i, const lang::Program& program, const AnalysisResult& run) {
        CostSummary sum;
        for (size_t k = 0; k < program.statements.size(); ++k) {
          sum = sum + CostOfStatement(program.statements[k], k, run.before[k],
                                      run.After(k + 1));
        }
        const CostReport whole = EstimateCost(program, run);
        EXPECT_EQ(sum.total_work, whole.total_work) << "program " << i;
        EXPECT_EQ(sum.peak_bytes, whole.peak_bytes) << "program " << i;
        EXPECT_EQ(sum.entries, whole.statements.size()) << "program " << i;
      });
}

/// The Figure 1 grouping behind `copies` blocks of certifiably redundant
/// restructuring (bench_optimizer's `BM_OptimizePass` program).
std::string RedundantFig1Program(int copies) {
  std::string src;
  for (int i = 0; i < copies; ++i) {
    src += "Sales <- transpose (Sales);\n";
    src += "Sales <- transpose (Sales);\n";
    src += "Sales <- select Part = Part (Sales);\n";
    src += "Sales <- project {Part, Region, Sold} (Sales);\n";
  }
  src += "Info2 <- group by {Region} on {Sold} (Sales);\n";
  return src;
}

TEST(SpliceExactnessTest, TransfersPerPassStayLinear) {
  // Every candidate re-analyzes only up to its sync point, so one pass
  // over fig1 x 16 (65 statements, 48 rewrites) runs at most one transfer
  // per statement plus one per rewrite, not one per statement for every
  // candidate.
  const lang::Program program = Parse(RedundantFig1Program(16));
  core::TabularDatabase db;
  db.Add(fixtures::SyntheticSales(8, 4));
  const uint64_t before = obs::CounterValue("optimizer.statements_analyzed");
  lang::OptimizeStats stats;
  lang::OptimizeProgram(program, AbstractDatabase::FromDatabase(db), {},
                        &stats);
  const uint64_t analyzed =
      obs::CounterValue("optimizer.statements_analyzed") - before;
  EXPECT_EQ(program.statements.size(), 65u);
  EXPECT_EQ(stats.applied, 48u);
  EXPECT_LE(analyzed, program.statements.size() + stats.applied);
}

// -- The rewrite engine: every rule, positive --------------------------------

struct EngineRun {
  lang::Program optimized;
  lang::OptimizeStats stats;
};

EngineRun Optimize(std::string_view src, std::string_view grid = kSalesFlat) {
  EngineRun run;
  run.optimized = lang::OptimizeProgram(
      Parse(src), AbstractDatabase::FromDatabase(Db(grid)), {}, &run.stats);
  return run;
}

bool Applied(const EngineRun& run, const char* rule) {
  for (const auto& rec : run.stats.records) {
    if (rec.rule == rule && rec.certified) return true;
  }
  return false;
}

/// Runs `src` unoptimized and optimized on the same initial database and
/// expects byte-identical serialized results.
void ExpectByteIdentical(std::string_view src,
                         std::string_view grid = kSalesFlat) {
  lang::Program program = Parse(src);
  TabularDatabase plain = Db(grid);
  TabularDatabase fancy = Db(grid);

  lang::Interpreter unopt;
  ASSERT_TRUE(unopt.Run(program, &plain).ok());

  lang::InterpreterOptions options;
  options.optimize = true;
  lang::Interpreter opt(options);
  ASSERT_TRUE(opt.Run(program, &fancy).ok());

  EXPECT_EQ(io::SerializeDatabase(plain), io::SerializeDatabase(fancy));
}

TEST(RewriteEngineTest, SelectIdentityEliminated) {
  const std::string_view src = "Sales <- select Part = Part (Sales);\n";
  EngineRun run = Optimize(src);
  EXPECT_TRUE(Applied(run, "select-identity"));
  EXPECT_TRUE(run.optimized.statements.empty());
  ExpectByteIdentical(src);
}

TEST(RewriteEngineTest, ProjectSupersetEliminated) {
  const std::string_view src =
      "Sales <- project {Part, Region, Sold, Extra} (Sales);\n";
  EngineRun run = Optimize(src);
  EXPECT_TRUE(Applied(run, "project-superset"));
  EXPECT_TRUE(run.optimized.statements.empty());
  ExpectByteIdentical(src);
}

TEST(RewriteEngineTest, ProjectSupersetRejectedWhenColumnsUnknown) {
  // The wildcard argument degrades Sales' columns to ⊤, so the optimistic
  // gate proposes eliminating the projection anyway ("rules propose, the
  // validator disposes"); the validator sees the original restrict the
  // columns to ⊆ {Part}, vetoes the candidate, and the rejection lands in
  // the metric.
  const uint64_t rejected_before =
      obs::CounterValue("optimizer.rewrites_rejected");
  lang::OptimizeStats stats;
  lang::Program optimized = lang::OptimizeProgram(
      Parse("Sales <- transpose (*1);\n"
            "Sales <- project {Part} (Sales);\n"),
      AbstractDatabase::FromDatabase(Db(kSalesFlat)), {}, &stats);
  EXPECT_EQ(optimized.statements.size(), 2u);
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  ASSERT_FALSE(stats.records.empty());
  EXPECT_EQ(stats.records[0].rule, "project-superset");
  EXPECT_FALSE(stats.records[0].certified);
  EXPECT_FALSE(stats.records[0].reason.empty());
  EXPECT_GT(obs::CounterValue("optimizer.rewrites_rejected"),
            rejected_before);
}

TEST(RewriteEngineTest, RenameAbsentEliminated) {
  const std::string_view src = "Sales <- rename Qty / Price (Sales);\n";
  EngineRun run = Optimize(src);
  EXPECT_TRUE(Applied(run, "rename-absent"));
  EXPECT_TRUE(run.optimized.statements.empty());
  ExpectByteIdentical(src);
}

TEST(RewriteEngineTest, TransposeInvolutionEliminated) {
  const std::string_view src =
      "Sales <- transpose (Sales);\n"
      "Sales <- transpose (Sales);\n";
  EngineRun run = Optimize(src);
  EXPECT_TRUE(Applied(run, "transpose-involution"));
  EXPECT_TRUE(run.optimized.statements.empty());
  ExpectByteIdentical(src);
}

TEST(RewriteEngineTest, AdjacentProjectsFused) {
  const std::string_view src =
      "T <- project {Part, Region} (Sales);\n"
      "T <- project {Region, Sold} (T);\n";
  EngineRun run = Optimize(src);
  EXPECT_TRUE(Applied(run, "fuse-projects"));
  ASSERT_EQ(run.optimized.statements.size(), 1u);
  EXPECT_EQ(run.optimized.statements[0].ToString(),
            "T <- project {Region} (Sales);");
  ExpectByteIdentical(src);
}

TEST(RewriteEngineTest, DropHoistedAboveUnrelatedAssignment) {
  const std::string_view src =
      "Scratch <- transpose (Sales);\n"
      "T <- project {Part} (Sales);\n"
      "drop Scratch;\n";
  EngineRun run = Optimize(src);
  EXPECT_TRUE(Applied(run, "drop-hoist"));
  // The hoist makes the Scratch assignment adjacent to its drop, so
  // cancel-before-drop then erases it too.
  EXPECT_TRUE(Applied(run, "cancel-before-drop"));
  ASSERT_EQ(run.optimized.statements.size(), 2u);
  EXPECT_EQ(run.optimized.statements[0].ToString(), "drop Scratch;");
  ExpectByteIdentical(src);
}

TEST(RewriteEngineTest, AssignmentCancelledBeforeDrop) {
  const std::string_view src =
      "T <- project {Part} (Sales);\n"
      "T <- transpose (T);\n"
      "drop T;\n";
  EngineRun run = Optimize(src);
  EXPECT_TRUE(Applied(run, "cancel-before-drop"));
  // Both assignments cancel against the drop, leaving only `drop T`.
  ASSERT_EQ(run.optimized.statements.size(), 1u);
  EXPECT_EQ(run.optimized.statements[0].ToString(), "drop T;");
  ExpectByteIdentical(src);
}

TEST(RewriteEngineTest, NeverEnteredWhileEliminated) {
  const std::string_view src =
      "Work <- difference (Sales, Sales);\n"
      "Work <- difference (Work, Work);\n"
      "while Work do {\n"
      "  Work <- transpose (Work);\n"
      "}\n";
  // difference(W, W) over the single carrier provably empties it, so the
  // guard is false on entry.
  EngineRun run = Optimize(src);
  EXPECT_TRUE(Applied(run, "while-never-entered"));
  ASSERT_EQ(run.optimized.statements.size(), 2u);
  ExpectByteIdentical(src);
}

TEST(RewriteEngineTest, ProvablySingleIterationWhileUnrolled) {
  const std::string_view src =
      "Wide <- rename Qty / Sold (Sales);\n"
      "while Wide do {\n"
      "  Wide <- difference (Wide, Wide);\n"
      "}\n";
  EngineRun run = Optimize(src);
  EXPECT_TRUE(Applied(run, "while-unroll"));
  ASSERT_EQ(run.optimized.statements.size(), 2u);
  EXPECT_EQ(run.optimized.statements[1].ToString(),
            "Wide <- difference (Wide, Wide);");
  ExpectByteIdentical(src);
}

TEST(RewriteEngineTest, MultiIterationWhileLeftAlone) {
  // The body only *may* shrink the table (select keeps [0, hi] rows), so
  // neither while rule can prove an iteration count and the loop survives.
  const std::string_view src =
      "while Sales do {\n"
      "  Sales <- select Part = Region (Sales);\n"
      "}\n";
  EngineRun run = Optimize(src);
  ASSERT_EQ(run.optimized.statements.size(), 1u);
  EXPECT_TRUE(
      std::holds_alternative<lang::WhileLoop>(run.optimized.statements[0].node));
}

TEST(RewriteEngineTest, ValidateRewritesOffKeepsCandidatesUnproven) {
  lang::OptimizerOptions options;
  options.validate_rewrites = false;
  lang::OptimizeStats stats;
  lang::Program optimized = lang::OptimizeProgram(
      Parse("Sales <- select Part = Part (Sales);\n"),
      AbstractDatabase::FromDatabase(Db(kSalesFlat)), options, &stats);
  EXPECT_TRUE(optimized.statements.empty());
  EXPECT_EQ(stats.applied, 1u);
  ASSERT_EQ(stats.records.size(), 1u);
  EXPECT_FALSE(stats.records[0].certified);  // kept, but unproven
}

// -- Cost-ranked plan selection ----------------------------------------------

/// Sales plus a tiny column-disjoint Tags table (2 rows) and an Empt table
/// with no data rows — the fixtures for the plan-selection tests.
constexpr std::string_view kTrapGrid =
    "!Sales | !Part  | !Region | !Sold\n"
    "#      | nuts   | east    | 50\n"
    "#      | bolts  | west    | 60\n"
    "\n"
    "!Tags | !Tag\n"
    "#     | hot\n"
    "#     | cold\n"
    "\n"
    "!Empt | !Tag\n";

TEST(CostRankTest, RankedSelectionEscapesThePushdownTrap) {
  // select-pushdown-product matches first (earlier statement index): it
  // would turn the identity select into `Big <- select Part = Part
  // (Sales)`, whose target != argument, so identity removal could never
  // fire again and the residual select would survive. Ranking applies the
  // strictly cheaper identity removal instead.
  const std::string_view src =
      "Big <- product (Sales, Tags);\n"
      "Big <- select Part = Part (Big);\n";
  const AbstractDatabase initial = AbstractDatabase::FromDatabase(Db(kTrapGrid));

  lang::OptimizeStats ranked_stats;
  lang::Program ranked =
      lang::OptimizeProgram(Parse(src), initial, {}, &ranked_stats);
  ASSERT_EQ(ranked.statements.size(), 1u);  // just the product, no select
  EXPECT_EQ(ranked.statements[0].ToString(), "Big <- product (Sales, Tags);");
  EXPECT_EQ(ranked_stats.applied, 1u);
  for (const auto& rec : ranked_stats.records) {
    if (!rec.cost_rejected) {
      EXPECT_EQ(rec.rule, "select-identity");
      EXPECT_TRUE(rec.certified) << rec.rule << ": " << rec.reason;
    }
  }

  ExpectByteIdentical(src, kTrapGrid);
}

TEST(CostRankTest, CostRaisingCandidateRejectedWithoutValidation) {
  // Empt is certainly empty, so the product output has zero rows and the
  // select after it is nearly free; pushing the select down onto Sales
  // would *raise* total work (it runs over 2 rows instead of 0). The
  // ranked engine must refuse the candidate on cost alone — and since the
  // select is not an identity (Part != Region), no other rule applies.
  const std::string_view src =
      "Big <- product (Sales, Empt);\n"
      "Big <- select Part = Region (Big);\n";
  const AbstractDatabase initial = AbstractDatabase::FromDatabase(Db(kTrapGrid));

  lang::OptimizeStats stats;
  lang::Program optimized = lang::OptimizeProgram(Parse(src), initial, {}, &stats);
  EXPECT_EQ(optimized.statements.size(), 2u);  // plan unchanged
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(stats.rejected, 0u);  // cost losses are not soundness failures
  EXPECT_GE(stats.cost_rejected, 1u);
  ASSERT_FALSE(stats.records.empty());
  const lang::RewriteRecord& rec = stats.records[0];
  EXPECT_EQ(rec.rule, "select-pushdown-product");
  EXPECT_TRUE(rec.cost_rejected);
  EXPECT_GT(rec.cost_after, rec.cost_before);

  // The JSON rendering carries the verdict and both costs.
  const std::string json = lang::RenderRewriteJson(rec, "p.ta");
  EXPECT_NE(json.find("\"cost-rejected\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cost_before\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cost_after\""), std::string::npos) << json;

  ExpectByteIdentical(src, kTrapGrid);
}

// -- Byte-identity across the shipped examples -------------------------------

TEST(RewriteEngineTest, ExamplesRunByteIdenticalUnderOptimization) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(TABULAR_SOURCE_DIR) / "examples";
  auto slurp = [](const fs::path& p) {
    std::ifstream in(p);
    EXPECT_TRUE(in.good()) << p;
    std::stringstream out;
    out << in.rdbuf();
    return out.str();
  };
  const std::string grid = slurp(dir / "sales.tdb");
  size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".ta") continue;
    SCOPED_TRACE(entry.path().filename().string());
    ExpectByteIdentical(slurp(entry.path()), grid);
    ++checked;
  }
  EXPECT_GE(checked, 4u);
}

TEST(RewriteEngineTest, UnrollExampleAppliesCertifiedRewrites) {
  namespace fs = std::filesystem;
  std::ifstream in(fs::path(TABULAR_SOURCE_DIR) / "examples" /
                   "optimize_unroll.ta");
  ASSERT_TRUE(in.good());
  std::stringstream src;
  src << in.rdbuf();

  std::ifstream schema(fs::path(TABULAR_SOURCE_DIR) / "examples" /
                       "sales.tdb");
  std::stringstream grid;
  grid << schema.rdbuf();

  EngineRun run = Optimize(src.str(), grid.str());
  EXPECT_TRUE(Applied(run, "while-unroll"));
  EXPECT_TRUE(Applied(run, "select-identity"));
  EXPECT_EQ(run.stats.rejected, 0u);
  for (const auto& rec : run.stats.records) {
    EXPECT_TRUE(rec.certified) << rec.rule << ": " << rec.reason;
  }
}

}  // namespace
}  // namespace tabular::analysis
