// Golden tests for the diagnostic engine: every check firing exactly once
// on a deliberately broken program, plus the interpreter integration
// (analyze_first rejection before mutation, warning callback, and the
// partial-commit Status suffix).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostics.h"
#include "analysis/shape.h"
#include "core/database.h"
#include "io/grid_format.h"
#include "lang/ast.h"
#include "lang/interpreter.h"
#include "lang/optimizer.h"
#include "lang/parser.h"

namespace tabular::analysis {
namespace {

using core::Symbol;

constexpr std::string_view kSalesFlat =
    "!Sales | !Part  | !Region | !Sold\n"
    "#      | nuts   | east    | 50\n"
    "#      | bolts  | west    | 60\n";

constexpr std::string_view kTwoDisjoint =
    "!A | !X\n#  | 1\n\n!B | !Y\n#  | 2\n";

std::string Lint(std::string_view grid, std::string_view src) {
  auto db = io::ParseDatabase(grid);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  auto program = lang::ParseProgram(src);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  AnalysisResult result =
      AnalyzeProgram(*program, AbstractDatabase::FromDatabase(*db));
  return RenderAll(result.diagnostics, "p.ta");
}

// -- One golden per check ----------------------------------------------------

TEST(LintGoldenTest, ArgumentArity) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- union (Sales);"),
            "p.ta:1: error: union expects 2 argument(s), got 1\n");
}

TEST(LintGoldenTest, ParameterArity) {
  // The surface grammar cannot produce a group with one parameter; build
  // the statement directly.
  lang::Program program;
  lang::Assignment a;
  a.op = lang::OpKind::kGroup;
  a.target = lang::Param::Name("T");
  a.params.push_back(lang::Param::Name("Region"));
  a.args.push_back(lang::Param::Name("Sales"));
  program.statements.push_back(lang::Statement{std::move(a)});
  AnalysisResult result =
      AnalyzeProgram(program, AbstractDatabase::Unknown());
  EXPECT_EQ(RenderAll(result.diagnostics, "p.ta"),
            "p.ta:1: error: group expects 2 parameter(s), got 1\n");
}

TEST(LintGoldenTest, GroupByAttributeLabelsNoColumn) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- group by {Nope} on {Sold} (Sales);"),
            "p.ta:1: error: group 'by' attribute 'Nope' labels no column of "
            "'Sales'\n"
            "  note: inferred columns of 'Sales': {Part, Region, Sold}\n");
}

TEST(LintGoldenTest, GroupBySetEmpty) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- group by {} on {Sold} (Sales);"),
            "p.ta:1: error: group 'by' set is empty\n");
}

TEST(LintGoldenTest, GroupByOnOverlap) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- group by {Part} on {Part, Sold} (Sales);"),
            "p.ta:1: error: group 'by' and 'on' sets overlap at 'Part'\n");
}

TEST(LintGoldenTest, GroupOnSetLabelsNothing) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- group by {Part} on {Nix} (Sales);"),
            "p.ta:1: error: no group 'on' attribute labels a column of "
            "'Sales'\n"
            "  note: inferred columns of 'Sales': {Part, Region, Sold}\n");
}

TEST(LintGoldenTest, MergeByAttributeNamesNoRow) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- merge on {Sold} by {Region} (Sales);"),
            "p.ta:1: error: merge 'by' attribute 'Region' names no row of "
            "'Sales'\n"
            "  note: inferred rows of 'Sales': {⊥}\n");
}

TEST(LintGoldenTest, SplitAttributeLabelsNoColumn) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- split on {Nope} (Sales);"),
            "p.ta:1: error: split 'on' attribute 'Nope' labels no column of "
            "'Sales'\n"
            "  note: inferred columns of 'Sales': {Part, Region, Sold}\n");
}

TEST(LintGoldenTest, CollapseByAttributeNamesNoRow) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- collapse by {Region} (Sales);"),
            "p.ta:1: error: collapse 'by' attribute 'Region' names no row of "
            "'Sales'\n"
            "  note: inferred rows of 'Sales': {⊥}\n");
}

TEST(LintGoldenTest, RenameSourceAbsentIsAWarning) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- rename Qty / Nope (Sales);"),
            "p.ta:1: warning: rename source attribute 'Nope' labels no "
            "column of 'Sales'; the rename has no effect\n"
            "  note: inferred columns of 'Sales': {Part, Region, Sold}\n");
}

TEST(LintGoldenTest, ProjectAttributeAbsentIsAWarning) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- project {Nope} (Sales);"),
            "p.ta:1: warning: project attribute 'Nope' labels no column of "
            "'Sales'\n"
            "  note: inferred columns of 'Sales': {Part, Region, Sold}\n");
}

TEST(LintGoldenTest, SelectAttributeAbsentIsAWarning) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- select Nope = Part (Sales);"),
            "p.ta:1: warning: select attribute 'Nope' labels no column of "
            "'Sales'\n"
            "  note: inferred columns of 'Sales': {Part, Region, Sold}\n");
}

TEST(LintGoldenTest, SelectConstAttributeAbsentIsAWarning) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- selectconst Nope = 'x' (Sales);"),
            "p.ta:1: warning: selectconst attribute 'Nope' labels no column "
            "of 'Sales'\n"
            "  note: inferred columns of 'Sales': {Part, Region, Sold}\n");
}

TEST(LintGoldenTest, CleanupOnAttributeNamesNoRow) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- cleanup by {Part} on {Region} (Sales);"),
            "p.ta:1: warning: cleanup 'on' attribute 'Region' names no row "
            "of 'Sales'\n"
            "  note: inferred rows of 'Sales': {⊥}\n");
}

TEST(LintGoldenTest, PurgeOnAttributeLabelsNoColumn) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- purge on {Nope} by {_} (Sales);"),
            "p.ta:1: warning: purge 'on' attribute 'Nope' labels no column "
            "of 'Sales'\n"
            "  note: inferred columns of 'Sales': {Part, Region, Sold}\n");
}

TEST(LintGoldenTest, ProductColumnCollision) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- product (Sales, Sales);"),
            "p.ta:1: warning: product operands 'Sales' and 'Sales' share "
            "column attribute(s) {Part, Region, Sold}; the result carries "
            "duplicate columns\n");
}

TEST(LintGoldenTest, UnionDisjointSchemes) {
  EXPECT_EQ(Lint(kTwoDisjoint, "T <- union (A, B);"),
            "p.ta:1: warning: union operands 'A' and 'B' have provably "
            "disjoint column-attribute sets\n"
            "  note: columns of 'A': {X}; columns of 'B': {Y}\n");
}

TEST(LintGoldenTest, UseBeforeDefinition) {
  EXPECT_EQ(Lint(kSalesFlat, "T <- transpose (Absent);"),
            "p.ta:1: warning: argument table 'Absent' is not defined at "
            "this point; the statement has no effect\n");
}

TEST(LintGoldenTest, DeadStoreOverwritten) {
  EXPECT_EQ(Lint(kSalesFlat,
                 "X <- transpose (Sales);\n"
                 "X <- transpose (Sales);"),
            "p.ta:1: warning: store to 'X' is dead: overwritten at "
            "statement 2 before any read\n");
}

TEST(LintGoldenTest, DeadStoreDropped) {
  EXPECT_EQ(Lint(kSalesFlat,
                 "X <- transpose (Sales);\n"
                 "drop X;"),
            "p.ta:1: warning: store to 'X' is dead: dropped at statement 2 "
            "before any read\n");
}

TEST(LintGoldenTest, UnreachableWhileBody) {
  EXPECT_EQ(Lint(kSalesFlat, "while Gone do { T <- transpose (Gone); }"),
            "p.ta:1: warning: while body is unreachable: guard 'Gone' "
            "matches no table defined at this point\n");
}

TEST(LintGoldenTest, NonTerminationHeuristic) {
  EXPECT_EQ(Lint(kSalesFlat, "while Sales do { T <- transpose (Sales); }"),
            "p.ta:1: warning: while guard 'Sales' is never written or "
            "dropped in the loop body; the loop may not terminate\n"
            "  note: statements after this loop may be unreachable\n");
}

// -- JSON rendering (tabular_lint --json) ------------------------------------

std::string LintJson(std::string_view grid, std::string_view src) {
  auto db = io::ParseDatabase(grid);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  auto program = lang::ParseProgram(src);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  AnalysisResult result =
      AnalyzeProgram(*program, AbstractDatabase::FromDatabase(*db));
  std::string out;
  for (const Diagnostic& d : result.diagnostics) {
    out += RenderJson(d, "p.ta");
    out += "\n";
  }
  return out;
}

TEST(LintJsonGoldenTest, OneObjectPerDiagnostic) {
  EXPECT_EQ(
      LintJson(kSalesFlat, "T <- group by {Nope} on {Sold} (Sales);"),
      "{\"file\":\"p.ta\",\"severity\":\"error\",\"path\":\"1\","
      "\"message\":\"group 'by' attribute 'Nope' labels no column of "
      "'Sales'\",\"note\":\"inferred columns of 'Sales': "
      "{Part, Region, Sold}\"}\n");
}

TEST(LintJsonGoldenTest, WarningWithoutNoteOmitsTheField) {
  EXPECT_EQ(LintJson(kSalesFlat, "T <- transpose (Absent);"),
            "{\"file\":\"p.ta\",\"severity\":\"warning\",\"path\":\"1\","
            "\"message\":\"argument table 'Absent' is not defined at this "
            "point; the statement has no effect\"}\n");
}

TEST(LintJsonGoldenTest, EscapesQuotesBackslashesAndControls) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.path = "2.1";
  d.message = "quote \" backslash \\ newline \n tab \t bell \x07 end";
  EXPECT_EQ(RenderJson(d, "dir\\file.ta"),
            "{\"file\":\"dir\\\\file.ta\",\"severity\":\"error\","
            "\"path\":\"2.1\",\"message\":\"quote \\\" backslash \\\\ "
            "newline \\n tab \\t bell \\u0007 end\"}");
}

// -- Rewrite-report JSON (tabular_lint --json --optimize) --------------------

TEST(RewriteJsonGoldenTest, CertifiedRecord) {
  lang::RewriteRecord r;
  r.rule = "select-identity";
  r.path = "2";
  r.before = "T <- select Part = Part (T);";
  r.after = "";
  r.certified = true;
  r.cost_before = 34;
  r.cost_after = 17;
  EXPECT_EQ(lang::RenderRewriteJson(r, "p.ta"),
            "{\"file\":\"p.ta\",\"rewrite\":\"select-identity\","
            "\"path\":\"2\",\"verdict\":\"certified\",\"certified\":true,"
            "\"before\":\"T <- select Part = Part (T);\",\"after\":\"\","
            "\"cost_before\":\"34\",\"cost_after\":\"17\"}");
}

TEST(RewriteJsonGoldenTest, RejectedRecordCarriesReasonAndDivergence) {
  lang::RewriteRecord r;
  r.rule = "project-superset";
  r.path = "2";
  r.before = "Sales <- project {Part} (Sales);";
  r.after = "";
  r.certified = false;
  r.reason = "state at 'T' is not refined";
  r.divergent_at = "exit";
  EXPECT_EQ(lang::RenderRewriteJson(r, "p.ta"),
            "{\"file\":\"p.ta\",\"rewrite\":\"project-superset\","
            "\"path\":\"2\",\"verdict\":\"rejected\",\"certified\":false,"
            "\"before\":\"Sales <- project {Part} (Sales);\",\"after\":\"\","
            "\"cost_before\":\"0\",\"cost_after\":\"0\","
            "\"reason\":\"state at 'T' is not refined\","
            "\"divergent_at\":\"exit\"}");
}

TEST(RewriteJsonGoldenTest, UnvalidatedKeptRecordIsTrusted) {
  // certified=false with no validator reason means the rewrite was kept on
  // the rule's own soundness argument (validation switched off).
  lang::RewriteRecord r;
  r.rule = "rename-absent";
  r.path = "1";
  r.before = "T <- rename A / B (T);";
  r.after = "";
  EXPECT_EQ(lang::RenderRewriteJson(r, "p.ta"),
            "{\"file\":\"p.ta\",\"rewrite\":\"rename-absent\",\"path\":\"1\","
            "\"verdict\":\"trusted\",\"certified\":false,"
            "\"before\":\"T <- rename A / B (T);\",\"after\":\"\","
            "\"cost_before\":\"0\",\"cost_after\":\"0\"}");
}

TEST(RewriteJsonGoldenTest, EndToEndRejectionCarriesValidatorVerdict) {
  // The transpose wildcard blinds the must-domain, so the project-superset
  // candidate at statement 2 fails validation; the JSON report must say
  // why and where.
  auto db = io::ParseDatabase(kSalesFlat);
  ASSERT_TRUE(db.ok());
  auto program = lang::ParseProgram(
      "Sales <- transpose (*1);\n"
      "Sales <- project {Part} (Sales);\n");
  ASSERT_TRUE(program.ok());
  lang::OptimizeStats stats;
  lang::OptimizeProgram(*program, AbstractDatabase::FromDatabase(*db), {},
                        &stats);
  ASSERT_EQ(stats.rejected, 1u);
  ASSERT_FALSE(stats.records.empty());
  const std::string json =
      lang::RenderRewriteJson(stats.records[0], "p.ta");
  EXPECT_NE(json.find("\"rewrite\":\"project-superset\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"verdict\":\"rejected\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"certified\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reason\":\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"divergent_at\":\""), std::string::npos) << json;
}

TEST(LintGoldenTest, SingletonParameterViolation) {
  // The surface grammar only admits single items for rename parameters;
  // build the two-symbol target directly.
  lang::Param two;
  for (const char* n : {"A", "B"}) {
    lang::ParamItem item;
    item.kind = lang::ParamItem::Kind::kSymbol;
    item.symbol = Symbol::Name(n);
    two.positive.push_back(item);
  }
  lang::Assignment a;
  a.op = lang::OpKind::kRename;
  a.target = lang::Param::Name("T");
  a.params.push_back(std::move(two));
  a.params.push_back(lang::Param::Name("Part"));
  a.args.push_back(lang::Param::Name("Sales"));
  lang::Program program;
  program.statements.push_back(lang::Statement{std::move(a)});

  auto db = io::ParseDatabase(kSalesFlat);
  ASSERT_TRUE(db.ok());
  AnalysisResult result =
      AnalyzeProgram(program, AbstractDatabase::FromDatabase(*db));
  EXPECT_EQ(RenderAll(result.diagnostics, "p.ta"),
            "p.ta:1: error: rename target attribute must denote a single "
            "symbol, got {A, B}\n");
}

// -- Severity calculus -------------------------------------------------------

TEST(LintSeverityTest, ViolationsInsideWhileBodiesAreWarnings) {
  // The loop may iterate zero times, so the kernel error may never fire.
  std::string out =
      Lint(kSalesFlat, "while Sales do { Sales <- group by {} on {Sold} "
                       "(Sales); }");
  EXPECT_NE(out.find("p.ta:1.1: warning: group 'by' set is empty"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("error"), std::string::npos) << out;
}

TEST(LintSeverityTest, ViolationsOnMayExistTablesAreWarnings) {
  // T only may-exist (created inside a while body), so the group error is
  // not definite.
  std::string out = Lint(kSalesFlat,
                         "while Sales do { T <- transpose (Sales); "
                         "Sales <- difference (Sales, Sales); }\n"
                         "U <- group by {} on {Sold} (T);");
  EXPECT_NE(out.find("p.ta:2: warning: group 'by' set is empty"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("error"), std::string::npos) << out;
}

// -- Interpreter integration -------------------------------------------------

TEST(LintInterpreterTest, RejectedRunLeavesDatabaseByteIdentical) {
  auto db = io::ParseDatabase(kSalesFlat);
  ASSERT_TRUE(db.ok());
  const std::string before = io::SerializeDatabase(*db);

  // Statement 1 would mutate; statement 2 is statically an error. The
  // program must be rejected before statement 1 runs.
  auto program = lang::ParseProgram(
      "Sales <- group by {Region} on {Sold} (Sales);\n"
      "T <- group by {} on {Sold} (Sales);");
  ASSERT_TRUE(program.ok());
  lang::Interpreter interp;
  Status st = interp.Run(*program, &*db);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message().rfind("statement 2: ", 0), 0u) << st.message();
  EXPECT_EQ(io::SerializeDatabase(*db), before);
}

TEST(LintInterpreterTest, WarningsReachTheCallbackAndDoNotBlock) {
  auto db = io::ParseDatabase(kSalesFlat);
  ASSERT_TRUE(db.ok());
  auto program = lang::ParseProgram("T <- transpose (Absent);");
  ASSERT_TRUE(program.ok());

  std::vector<Diagnostic> seen;
  lang::InterpreterOptions options;
  options.on_diagnostic = [&](const Diagnostic& d) { seen.push_back(d); };
  lang::Interpreter interp(options);
  EXPECT_TRUE(interp.Run(*program, &*db).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].severity, Severity::kWarning);
  EXPECT_EQ(seen[0].path, "1");
}

TEST(LintInterpreterTest, AnalyzeFirstOffDefersToRuntime) {
  auto db = io::ParseDatabase(kSalesFlat);
  ASSERT_TRUE(db.ok());
  auto program = lang::ParseProgram(
      "Sales <- group by {Region} on {Sold} (Sales);\n"
      "T <- group by {} on {Sold} (Sales);");
  ASSERT_TRUE(program.ok());

  lang::InterpreterOptions options;
  options.analyze_first = false;
  lang::Interpreter interp(options);
  Status st = interp.Run(*program, &*db);
  ASSERT_FALSE(st.ok());
  // Statement 1 ran and committed before the runtime failure.
  EXPECT_NE(st.message().find(
                "(partial results committed through statement 1)"),
            std::string::npos)
      << st.message();
}

TEST(LintInterpreterTest, ExampleProgramsLintCleanAgainstTheirSchema) {
  std::ifstream schema(std::string(TABULAR_SOURCE_DIR) +
                       "/examples/sales.tdb");
  ASSERT_TRUE(schema.good());
  std::stringstream grid;
  grid << schema.rdbuf();
  auto db = io::ParseDatabase(grid.str());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  AbstractDatabase initial = AbstractDatabase::FromDatabase(*db);

  for (const char* name : {"sales_restructuring.ta", "split_collapse.ta",
                           "while_drain.ta"}) {
    std::ifstream in(std::string(TABULAR_SOURCE_DIR) + "/examples/" + name);
    ASSERT_TRUE(in.good()) << name;
    std::stringstream src;
    src << in.rdbuf();
    auto program = lang::ParseProgram(src.str());
    ASSERT_TRUE(program.ok()) << name << ": " << program.status().ToString();
    AnalysisResult result = AnalyzeProgram(*program, initial);
    EXPECT_TRUE(result.diagnostics.empty())
        << name << ":\n" << RenderAll(result.diagnostics, name);
  }
}

}  // namespace
}  // namespace tabular::analysis
