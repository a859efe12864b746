#include "lang/interpreter.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/compare.h"
#include "core/sales_data.h"
#include "io/grid_format.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace tabular::lang {
namespace {

using core::Table;
using core::TabularDatabase;
using ::tabular::testing::N;
using ::tabular::testing::V;

Program MustParse(const char* src) {
  auto r = ParseProgram(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TabularDatabase RunOn(TabularDatabase db, const char* src,
                      Status* status_out = nullptr) {
  Program p = MustParse(src);
  Status st = RunProgram(p, &db);
  if (status_out != nullptr) {
    *status_out = st;
  } else {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return db;
}

// ---------------------------------------------------------------------------
// The paper's worked restructurings, end to end through the language.
// ---------------------------------------------------------------------------

TEST(InterpreterTest, SalesInfo1ToSalesInfo2Program) {
  TabularDatabase db = RunOn(fixtures::SalesInfo1(false), R"(
    Sales <- group by {Region} on {Sold} (Sales);
    Sales <- cleanup by {Part} on {_} (Sales);
    Sales <- purge on {Sold} by {Region} (Sales);
  )");
  ASSERT_EQ(db.Named(N("Sales")).size(), 1u);
  EXPECT_TABLE_EQUIV(db.Named(N("Sales"))[0],
                     fixtures::SalesInfo2Table(false));
}

TEST(InterpreterTest, SalesInfo2BackToFlatProgram) {
  TabularDatabase db = RunOn(fixtures::SalesInfo2(false), R"(
    Sales <- merge on {Sold} by {Region} (Sales);
    Flat <- selectconst Sold = _ (Sales);
    Sales <- difference (Sales, Flat);
  )");
  // difference (Sales, Flat) strips the ⊥-Sold tuples but pads columns;
  // here Sales and Flat share the scheme so shapes align after purge.
  ASSERT_EQ(db.Named(N("Sales")).size(), 1u);
  EXPECT_TABLE_EQUIV(db.Named(N("Sales"))[0], fixtures::SalesFlat());
}

TEST(InterpreterTest, SplitProducesOneTablePerRegion) {
  TabularDatabase db = RunOn(fixtures::SalesInfo1(false), R"(
    Sales <- split on {Region} (Sales);
  )");
  EXPECT_EQ(db.Named(N("Sales")).size(), 4u);
  EXPECT_TRUE(core::EquivalentDatabases(db, fixtures::SalesInfo4(false)));
}

TEST(InterpreterTest, SplitThenCollapseRoundTrip) {
  TabularDatabase db = RunOn(fixtures::SalesInfo1(false), R"(
    Sales <- split on {Region} (Sales);
    Sales <- collapse by {Region} (Sales);
    Sales <- purge on {Part, Region, Sold} by {} (Sales);
    Sales <- cleanup by {Part, Region, Sold} on {_} (Sales);
  )");
  ASSERT_EQ(db.Named(N("Sales")).size(), 1u);
  EXPECT_TABLE_EQUIV(db.Named(N("Sales"))[0], fixtures::SalesFlat());
}

// ---------------------------------------------------------------------------
// Statement semantics
// ---------------------------------------------------------------------------

TEST(InterpreterTest, AssignmentReplacesTargetTables) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!T", "!A"}, {"#", "old"}}));
  db.Add(Table::Parse({{"!R", "!A"}, {"#", "new"}}));
  db = RunOn(std::move(db), "T <- transpose (R);");
  ASSERT_EQ(db.Named(N("T")).size(), 1u);
  EXPECT_EQ(db.Named(N("T"))[0].at(1, 1), V("new"));
}

TEST(InterpreterTest, StatementAppliesToEveryTableWithMatchingName) {
  // Two tables named R: the statement instantiates for both.
  TabularDatabase db;
  db.Add(Table::Parse({{"!R", "!A"}, {"#", "1"}}));
  db.Add(Table::Parse({{"!R", "!A"}, {"#", "2"}}));
  db = RunOn(std::move(db), "T <- transpose (R);");
  EXPECT_EQ(db.Named(N("T")).size(), 2u);
}

TEST(InterpreterTest, BinaryOpRunsOnAllPairs) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!R", "!A"}, {"#", "1"}}));
  db.Add(Table::Parse({{"!R", "!A"}, {"#", "2"}}));
  db.Add(Table::Parse({{"!S", "!B"}, {"#", "x"}}));
  db = RunOn(std::move(db), "T <- product (R, S);");
  EXPECT_EQ(db.Named(N("T")).size(), 2u);  // 2 R-tables × 1 S-table
}

TEST(InterpreterTest, WildcardRangesOverAllTableNames) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!R", "!A"}, {"#", "1"}}));
  db.Add(Table::Parse({{"!S", "!B"}, {"#", "2"}}));
  // Transpose every table in place, name-preserving via the wildcard.
  db = RunOn(std::move(db), "*1 <- transpose (*1);");
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.Named(N("R"))[0].RowAttribute(1), N("A"));
  EXPECT_EQ(db.Named(N("S"))[0].RowAttribute(1), N("B"));
}

TEST(InterpreterTest, SharedWildcardBindsConsistently) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!R", "!A"}, {"#", "1"}}));
  db.Add(Table::Parse({{"!S", "!A"}, {"#", "2"}}));
  // Self-difference for each table name: empties both R and S.
  db = RunOn(std::move(db), "*1 <- difference (*1, *1);");
  EXPECT_EQ(db.Named(N("R"))[0].height(), 0u);
  EXPECT_EQ(db.Named(N("S"))[0].height(), 0u);
}

TEST(InterpreterTest, MissingArgumentTableIsANoOp) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!T", "!A"}, {"#", "keep"}}));
  db = RunOn(std::move(db), "T <- transpose (Absent);");
  // Nothing matched: the old T survives.
  ASSERT_EQ(db.Named(N("T")).size(), 1u);
  EXPECT_EQ(db.Named(N("T"))[0].Data(1, 1), V("keep"));
}

TEST(InterpreterTest, WhileLoopDrainsTable) {
  // Repeatedly remove the selected east rows... simpler: empty Work by
  // self-difference; the loop runs once.
  TabularDatabase db;
  db.Add(fixtures::SalesFlat());
  db.Add(Table::Parse({{"!Work", "!A"}, {"#", "x"}}));
  db = RunOn(std::move(db), R"(
    while Work do {
      Work <- difference (Work, Work);
    }
  )");
  EXPECT_EQ(db.Named(N("Work"))[0].height(), 0u);
}

TEST(InterpreterTest, WhileLoopIterationCap) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!Work", "!A"}, {"#", "x"}}));
  Program p = MustParse(R"(
    while Work do {
      T <- transpose (Work);
    }
  )");
  InterpreterOptions opts;
  opts.max_while_iterations = 10;
  Interpreter interp(opts);
  Status st = interp.Run(p, &db);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(InterpreterTest, StepLimitGuards) {
  TabularDatabase db;
  for (int i = 0; i < 20; ++i) {
    db.Add(Table::Parse({{"!R", "!A"}, {"#", "1"}}));
  }
  Program p = MustParse("T <- product (R, R);");  // 400 instantiations
  InterpreterOptions opts;
  opts.max_steps = 100;
  Interpreter interp(opts);
  Status st = interp.Run(p, &db);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

// Generated programs 290, 820 and 927 of tests/program_gen.h (seed
// 0x5EED): each grows the database on every loop iteration and never
// terminates within the iteration cap.
constexpr const char* kRunawayPrograms[] = {
    // A width-0 union: W gains rows but never a data column.
    R"(while Tags do {
         A <- purge on {Part, Region} by {_} (Tags);
         W <- rename Region / Region (A);
         while Sales do {
           Tags <- project {Part} (Sales);
           Tags <- project {Qty, Region} (Tags);
           Sales <- difference (Sales, Sales);
         }
         W <- union (W, A);
         Sales <- select Qty = Sold (W);
       })",
    // A product that doubles Sales.
    R"(while Sales do {
         A <- project {Tag, Region} (Tags);
         Sales <- product (A, Sales);
         W <- transpose (W);
         W <- transpose (W);
       })",
    // A self-product that squares Tags.
    R"(while Tags do {
         while Sales do {
           B <- switch 'nuts' (Sales);
           B <- union (B, B);
           Tags <- product (Tags, Tags);
           Tags <- select Part = Sold (Tags);
         }
         Tags <- difference (Tags, Tags);
       })",
};

TEST(InterpreterTest, RunawayGrowthFailsClosedOnTheHandleBudget) {
  auto grid = io::ParseDatabase(
      "!Sales | !Part | !Region | !Sold\n"
      "#      | nuts  | east    | 50\n"
      "#      | bolts | west    | 60\n"
      "\n"
      "!Tags | !Tag\n"
      "#     | hot\n"
      "#     | cold\n");
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  for (const char* src : kRunawayPrograms) {
    SCOPED_TRACE(src);
    TabularDatabase db = *grid;
    InterpreterOptions opts;
    opts.max_stored_handles = 4096;
    Interpreter interp(opts);
    Status st = interp.Run(MustParse(src), &db);
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
    EXPECT_NE(st.message().find("4096 stored handles"), std::string::npos)
        << st.ToString();
    // Committed statements stay within the budget.
    size_t handles = 0;
    for (const Table& t : db.tables()) {
      handles += (t.height() + 1) * (t.width() + 1);
    }
    EXPECT_LE(handles, 4096u);
  }
}

TEST(InterpreterTest, ProductOutputCountsAgainstTheBudget) {
  // 64 x 64 rows: the output's 4,097 x 3 handles exceed the budget, which
  // both inputs (65 x 2 handles each) fit easily.
  std::string r = "!R | !A\n";
  std::string s = "!S | !B\n";
  for (int i = 0; i < 64; ++i) {
    r += "# | " + std::to_string(i) + "\n";
    s += "# | " + std::to_string(i) + "\n";
  }
  auto parsed = io::ParseDatabase(r + "\n" + s);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  TabularDatabase db = std::move(*parsed);
  InterpreterOptions opts;
  opts.max_stored_handles = 4096;
  Interpreter interp(opts);
  Status st = interp.Run(MustParse("T <- product (R, S);"), &db);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_FALSE(db.HasTableNamed(N("T")));

  // The same product fits a budget that counts its output.
  opts.max_stored_handles = 2 * 65 * 2 + 4097 * 3;
  Interpreter roomy(opts);
  EXPECT_TRUE(roomy.Run(MustParse("T <- product (R, S);"), &db).ok());
}

/// Runs `src` on `grid` under `budget` stored handles and returns the
/// status, with how far the counter `calls` moved during the run.
Status RunUnderBudget(const std::string& grid, const char* src,
                      size_t budget, const char* calls, uint64_t* moved) {
  auto parsed = io::ParseDatabase(grid);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  TabularDatabase db = std::move(*parsed);
  InterpreterOptions opts;
  opts.max_stored_handles = budget;
  Interpreter interp(opts);
  const uint64_t before = obs::CounterValue(calls);
  Status st = interp.Run(MustParse(src), &db);
  *moved = obs::CounterValue(calls) - before;
  return st;
}

TEST(InterpreterTest,
     GroupOutputCountsAgainstTheBudgetBeforeTheKernelRuns) {
  // 64 rows grouped on one column: (1+64+1)·(1+64·1+1) = 4,356 output
  // handles, past a 4,096 budget that the 65 x 4 input fits easily.
  std::string grid = "!R | !Part | !Region | !Sold\n";
  for (int i = 0; i < 64; ++i) {
    grid += "# | p" + std::to_string(i) + " | r | " + std::to_string(i) +
            "\n";
  }
  const char* group = "T <- group by {Region} on {Sold} (R);";
  uint64_t calls = 0;
  Status st =
      RunUnderBudget(grid, group, 4096, "algebra.group.calls", &calls);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(calls, 0u);  // refused before the kernel allocated anything

  // The formula is exact: input plus output fit to the handle.
  st = RunUnderBudget(grid, group, 65 * 4 + 4356, "algebra.group.calls",
                      &calls);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(calls, 1u);

  // An invalid call still reports the kernel's own error, even when the
  // input alone fills the budget.
  InterpreterOptions opts;
  opts.analyze_first = false;
  opts.max_stored_handles = 65 * 4;
  Interpreter interp(opts);
  TabularDatabase db = *io::ParseDatabase(grid);
  st = interp.Run(MustParse("T <- group by {Qty} on {Sold} (R);"), &db);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("labels no column"), std::string::npos)
      << st.ToString();
}

TEST(InterpreterTest,
     MergeOutputCountsAgainstTheBudgetBeforeTheKernelRuns) {
  // 32 X-rows make 32 combinations for each of the 32 surviving rows:
  // (32·1·32+1)·(1+1+1+1) = 4,100 output handles, past a 4,096 budget
  // that the 65 x 3 input fits easily.
  std::string grid = "!R | !A | !B\n";
  for (int i = 0; i < 32; ++i) {
    grid += "!X | x | " + std::to_string(i) + "\n";
    grid += "# | a" + std::to_string(i) + " | b\n";
  }
  const char* merge = "T <- merge on {B} by {X} (R);";
  uint64_t calls = 0;
  Status st =
      RunUnderBudget(grid, merge, 4096, "algebra.merge.calls", &calls);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(calls, 0u);

  st = RunUnderBudget(grid, merge, 65 * 3 + 4100, "algebra.merge.calls",
                      &calls);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(calls, 1u);
}

TEST(InterpreterTest,
     SetNewOutputCountsAgainstTheBudgetBeforeTheKernelRuns) {
  // 10 rows: 10·2^9 = 5,120 output rows of 2 columns, 15,363 handles.
  std::string grid = "!R | !A\n";
  for (int i = 0; i < 10; ++i) grid += "# | " + std::to_string(i) + "\n";
  const char* setnew = "T <- setnew Id (R);";
  uint64_t calls = 0;
  Status st =
      RunUnderBudget(grid, setnew, 4096, "algebra.setnew.calls", &calls);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(calls, 0u);

  st = RunUnderBudget(grid, setnew, 11 * 2 + 5121 * 3,
                      "algebra.setnew.calls", &calls);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(calls, 1u);
}

TEST(InterpreterTest, TupleNewTagsAreFreshAcrossDatabase) {
  TabularDatabase db;
  db.Add(fixtures::SalesFlat());
  db = RunOn(std::move(db), "Tagged <- tuplenew Tid (Sales);");
  Table tagged = db.Named(N("Tagged"))[0];
  EXPECT_EQ(tagged.width(), 4u);
  EXPECT_EQ(tagged.ColumnAttribute(4), N("Tid"));
  core::SymbolSet base = fixtures::SalesFlat().AllSymbols();
  for (size_t i = 1; i <= tagged.height(); ++i) {
    EXPECT_FALSE(base.contains(tagged.Data(i, 4)));
  }
}

TEST(InterpreterTest, SelectConstWithPairParameter) {
  // Select the rows whose Part equals the entry of SalesInfo2's Region row
  // in no particular column — use a pair denoting a unique entry instead:
  // (Region, Sold) is 4 values, not a singleton, so it must error.
  TabularDatabase db;
  db.Add(fixtures::SalesInfo2Table(false));
  Status st;
  RunOn(db, "T <- selectconst Part = (Region, Sold) (Sales);", &st);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUndefined);
}

TEST(InterpreterTest, ErrorsPropagateFromKernels) {
  TabularDatabase db;
  db.Add(fixtures::SalesFlat());
  Status st;
  RunOn(db, "T <- group by {Nope} on {Sold} (Sales);", &st);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(InterpreterTest, SwitchPromotesUniqueEntryViaProgram) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!T", "!A", "!B"},
                       {"#", "needle", "1"},
                       {"#", "x", "2"}}));
  db = RunOn(std::move(db), "U <- switch 'needle' (T);");
  ASSERT_EQ(db.Named(N("U")).size(), 1u);
  // Rows 0<->1 and columns 0<->1 swapped, then renamed to U.
  EXPECT_EQ(db.Named(N("U"))[0].at(1, 0), N("A"));
  EXPECT_EQ(db.Named(N("U"))[0].at(1, 1), N("T"));
}

TEST(InterpreterTest, ProjectWithNegativeListDropsAttributes) {
  TabularDatabase db;
  db.Add(fixtures::SalesFlat());
  db = RunOn(std::move(db), "P <- project {*1 ~ Sold} (Sales);");
  ASSERT_EQ(db.Named(N("P")).size(), 1u);
  EXPECT_EQ(db.Named(N("P"))[0].width(), 2u);  // Part, Region
  EXPECT_TRUE(db.Named(N("P"))[0].ColumnsNamed(N("Sold")).empty());
}

TEST(InterpreterTest, SetNewViaProgram) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!T", "!A"}, {"#", "x"}, {"#", "y"}}));
  db = RunOn(std::move(db), "S <- setnew Sid (T);");
  ASSERT_EQ(db.Named(N("S")).size(), 1u);
  EXPECT_EQ(db.Named(N("S"))[0].height(), 4u);  // 2 * 2^(2-1)
}

TEST(InterpreterTest, RenameViaProgram) {
  TabularDatabase db;
  db.Add(fixtures::SalesInfo2Table(false));
  db = RunOn(std::move(db), "Q <- rename Qty / Sold (Sales);");
  EXPECT_EQ(db.Named(N("Q"))[0].ColumnsNamed(N("Qty")).size(), 4u);
}

TEST(InterpreterTest, SelectConstWithSingletonPairParameter) {
  // (Total, Sold) in SalesInfo2-with-summaries denotes the single grand
  // total cell... it actually denotes the Total row's Sold entries (5 of
  // them); a truly unique entry is ('Region' row, Part): ⊥. Use a crafted
  // table instead.
  TabularDatabase db;
  db.Add(Table::Parse({{"!Conf", "!Key"},
                       {"!pick", "east"}}));
  db.Add(fixtures::SalesFlat());
  // The pair is evaluated against the *argument* table (Sales), so host
  // the constant inside it: add a config row.
  Table sales = fixtures::SalesFlat();
  sales.AppendRow({N("pick"), core::Symbol::Null(), V("east"),
                   core::Symbol::Null()});
  TabularDatabase db2;
  db2.Add(sales);
  db2 = RunOn(std::move(db2),
              "T <- selectconst Region = (pick, Region) (Sales);");
  ASSERT_EQ(db2.Named(N("T")).size(), 1u);
  // Matching rows: the two east rows plus the pick row itself (its Region
  // entry equals east).
  EXPECT_EQ(db2.Named(N("T"))[0].height(), 3u);
}

TEST(InterpreterTest, DeepWhileNesting) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!A", "!X"}, {"#", "1"}}));
  db.Add(Table::Parse({{"!B", "!X"}, {"#", "2"}}));
  db = RunOn(std::move(db), R"(
    while A do {
      while B do {
        B <- difference (B, B);
      }
      A <- difference (A, A);
    }
  )");
  EXPECT_EQ(db.Named(N("A"))[0].height(), 0u);
  EXPECT_EQ(db.Named(N("B"))[0].height(), 0u);
}

TEST(InterpreterTest, StepCounterReported) {
  TabularDatabase db;
  db.Add(fixtures::SalesFlat());
  Program p = MustParse("T <- transpose (Sales); U <- transpose (T);");
  Interpreter interp;
  ASSERT_TRUE(interp.Run(p, &db).ok());
  EXPECT_EQ(interp.steps_executed(), 2u);
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(InterpreterTest, RunningOnACopyNeverWritesTheSharedTables) {
  // A database copy shares its tables with the original, so a kernel that
  // wrote into an input table would show up in the original's bytes.
  namespace fs = std::filesystem;
  const fs::path examples = fs::path(TABULAR_SOURCE_DIR) / "examples";
  auto parsed = io::ParseDatabase(ReadFile(examples / "sales.tdb"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TabularDatabase original = std::move(*parsed);
  const std::string before = io::SerializeDatabase(original);

  size_t ran = 0;
  for (const auto& entry : fs::directory_iterator(examples)) {
    if (entry.path().extension() != ".ta") continue;
    SCOPED_TRACE(entry.path().filename().string());
    Program program = MustParse(ReadFile(entry.path()).c_str());
    TabularDatabase copy = original;
    Interpreter interp;
    if (interp.Run(program, &copy).ok()) ++ran;
    EXPECT_EQ(io::SerializeDatabase(original), before);
  }
  EXPECT_GE(ran, 4u);  // the shipped examples that run on sales.tdb
}

}  // namespace
}  // namespace tabular::lang
