// Behaviour pins for the static stack (analyzer, cost model, translation
// validator, rewrite engine) on generated and example programs.
//
//   * A seeded generator builds 1,000 programs over a Sales + Tags grid —
//     nested while loops, drops, the self-wildcard transpose, and loop
//     bodies that read a table they just wrote — and renders, per program,
//     the cost report, the analyzer's final state and diagnostics, and the
//     rewrite engine's plan and records. FNV-1a digests of 125 programs
//     each pin the whole rendering.
//   * Handing the rewrite engine a pre-computed analysis of its input
//     yields the same plans and records as letting it analyze the input.
//   * The loop-mode pin tells the two loop-body modes apart: the
//     diagnostic pass treats a body statement as possibly not executed,
//     cost asks about one complete run of the body.
//   * The loop-example goldens pin the cost entries of the shipped while
//     examples against examples/sales.tdb.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>

#include "analysis/analyzer.h"
#include "analysis/cost.h"
#include "analysis/diagnostics.h"
#include "analysis/shape.h"
#include "io/grid_format.h"
#include "lang/optimizer.h"
#include "lang/parser.h"
#include "tests/program_gen.h"

namespace tabular::analysis {
namespace {

using core::Symbol;
using testgen::kGrid;
using testgen::ProgramGenerator;

constexpr std::string_view kSalesFlat =
    "!Sales | !Part  | !Region | !Sold\n"
    "#      | nuts   | east    | 50\n"
    "#      | bolts  | west    | 60\n";

AbstractDatabase StateFor(std::string_view grid) {
  auto db = io::ParseDatabase(grid);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return AbstractDatabase::FromDatabase(*db);
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/// FNV-1a over `text`, continuing from `h`.
uint64_t Fnv1a(std::string_view text, uint64_t h = kFnvBasis) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string RenderCost(const CostReport& r) {
  std::ostringstream out;
  for (const StatementCost& c : r.statements) {
    out << c.path << " " << (c.is_drop ? "drop" : lang::OpKindToString(c.op))
        << (c.in_unbounded_loop ? " loop=unbounded" : "")
        << " rows=" << FormatCost(c.out_rows)
        << " cols=" << FormatCost(c.out_cols)
        << " bytes=" << FormatCost(c.out_bytes)
        << " work=" << FormatCost(c.work) << "\n";
  }
  out << "total work=" << FormatCost(r.total_work)
      << " peak rows=" << FormatCost(r.peak_rows) << "@" << r.peak_rows_path
      << " peak bytes=" << FormatCost(r.peak_bytes) << "@"
      << r.peak_bytes_path << " unbounded@" << r.unbounded_path << "\n";
  return out.str();
}

/// A rewrite engine result: the plan, then every record and the counts.
std::string RenderPlan(const lang::Program& plan,
                       const lang::OptimizeStats& stats) {
  std::string out = plan.ToString() + "\n";
  for (const lang::RewriteRecord& r : stats.records) {
    out += lang::RenderRewriteJson(r, "gen") + "\n";
  }
  out += "applied=" + std::to_string(stats.applied) +
         " rejected=" + std::to_string(stats.rejected) +
         " cost_rejected=" + std::to_string(stats.cost_rejected) + "\n";
  return out;
}

std::string RenderOptimize(const lang::Program& program,
                           const AbstractDatabase& initial) {
  lang::OptimizeStats stats;
  const lang::Program plan =
      lang::OptimizeProgram(program, initial, {}, &stats);
  return RenderPlan(plan, stats);
}

/// Everything the static stack says about one program.
std::string RenderStaticStack(const lang::Program& program,
                              const AbstractDatabase& initial) {
  std::string out = program.ToString() + "\n-- cost\n";
  out += RenderCost(EstimateCost(program, initial));
  const AnalysisResult analysis = AnalyzeProgram(program, initial);
  out += "-- analysis\n" + analysis.final_state.ToString();
  out += RenderAll(analysis.diagnostics, "gen");
  out += "-- optimize (cost-ranked)\n" + RenderOptimize(program, initial);
  return out;
}

TEST(StaticStackDigestTest, GeneratedProgramsRenderUnchanged) {
  // A change here means some cost entry, abstract state, diagnostic,
  // plan or rewrite record moved; the failure names the program range.
  constexpr uint64_t kExpected[] = {
      0xb113293b4bee285cull, 0xc6b2ba317b384cd5ull, 0x6c95206105e59586ull,
      0xc650ed18eec066e7ull, 0x47e8c0f35432159eull, 0x66b219b810788f56ull,
      0xb81bc201dfe85490ull, 0x3eb8a3381c9076b9ull,
  };
  constexpr size_t kChunk = 125;
  const AbstractDatabase initial = StateFor(kGrid);
  ProgramGenerator gen(0x5EED);
  size_t loops = 0;
  for (size_t chunk = 0; chunk < std::size(kExpected); ++chunk) {
    uint64_t digest = kFnvBasis;
    for (size_t i = 0; i < kChunk; ++i) {
      const std::string text = gen.Program();
      auto program = lang::ParseProgram(text);
      ASSERT_TRUE(program.ok())
          << program.status().ToString() << "\nin:\n" << text;
      loops += text.find("while") != std::string::npos;
      digest = Fnv1a(RenderStaticStack(*program, initial), digest);
    }
    EXPECT_EQ(digest, kExpected[chunk])
        << "programs " << chunk * kChunk << ".." << (chunk + 1) * kChunk - 1
        << ": 0x" << std::hex << digest;
  }
  // The generator must keep exercising while loops.
  EXPECT_GT(loops, 300u) << loops;
}

TEST(StaticStackHandOffTest, PreAnalyzedInputOptimizesIdentically) {
  // The server's compile and the interpreter hand the optimizer the
  // analysis they ran to gate on errors; starting from it instead of
  // analyzing the input afresh must not change any plan or record.
  const AbstractDatabase initial = StateFor(kGrid);
  ProgramGenerator gen(0x5EED);
  for (size_t i = 0; i < 1000; ++i) {
    const std::string text = gen.Program();
    auto program = lang::ParseProgram(text);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    lang::OptimizeStats fresh_stats;
    const lang::Program fresh =
        lang::OptimizeProgram(*program, initial, {}, &fresh_stats);
    lang::OptimizeStats handed_stats;
    const lang::Program handed = lang::OptimizeProgram(
        *program, initial, AnalyzeProgram(*program, initial), {},
        &handed_stats);
    ASSERT_EQ(RenderPlan(fresh, fresh_stats), RenderPlan(handed, handed_stats))
        << "program " << i << ":\n" << text;
  }
}

TEST(StaticStackLoopModeTest, CostRunsTheBodyOnceTheAnalyzerMayNot) {
  auto program = lang::ParseProgram(
      "Wide <- rename Qty / Sold (Sales);\n"
      "while Wide do { Wide <- difference (Wide, Wide); "
      "Out <- product (Wide, Sales); }\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const AbstractDatabase initial = StateFor(kSalesFlat);

  // One complete run of the body drains Wide before the product, so the
  // loop runs at most once and Out is provably empty.
  const CostReport cost = EstimateCost(*program, initial);
  const StatementCost* product = nullptr;
  for (const StatementCost& c : cost.statements) {
    if (c.path == "2.2") product = &c;
  }
  ASSERT_NE(product, nullptr);
  EXPECT_EQ(product->out_rows, 0u);
  EXPECT_FALSE(product->in_unbounded_loop);
  EXPECT_FALSE(cost.unbounded());

  // The diagnostic pass treats each body statement as possibly not
  // executed: the product may read the undrained Wide.
  const AnalysisResult analysis = AnalyzeProgram(*program, initial);
  const TableShape* out = analysis.final_state.Find(Symbol::Name("Out"));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->row_card, CardInterval::Range(0, 4));
}

std::string ReadSource(const std::string& relative) {
  std::ifstream in(std::string(TABULAR_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(in.good()) << relative;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CostReport CostOfExample(const std::string& name) {
  auto db = io::LoadDatabaseFile(std::string(TABULAR_SOURCE_DIR) +
                                 "/examples/sales.tdb");
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  auto program = lang::ParseProgram(ReadSource("examples/" + name));
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return EstimateCost(*program, AbstractDatabase::FromDatabase(*db));
}

TEST(StaticStackLoopExampleTest, OptimizeUnrollCostEntries) {
  // Unoptimized: the loop runs its body once (path 2.1).
  const CostReport r = CostOfExample("optimize_unroll.ta");
  EXPECT_EQ(RenderCost(r),
            "1 rename rows=8 cols=3 bytes=96 work=17\n"
            "2.1 difference rows=0 cols=3 bytes=0 work=68\n"
            "3 project rows=0 cols=3 bytes=0 work=2\n"
            "4 select rows=0 cols=3 bytes=0 work=2\n"
            "total work=89 peak rows=8@1 peak bytes=96@1 unbounded@\n");
  EXPECT_EQ(r.total_work, 89u);
}

TEST(StaticStackLoopExampleTest, WhileDrainCostEntries) {
  const CostReport r = CostOfExample("while_drain.ta");
  EXPECT_EQ(RenderCost(r),
            "1 selectconst rows=8 cols=3 bytes=96 work=34\n"
            "2 project rows=8 cols=3 bytes=96 work=34\n"
            "3.1 difference rows=0 cols=3 bytes=0 work=68\n"
            "4 cleanup rows=8 cols=3 bytes=96 work=170\n"
            "total work=306 peak rows=8@1 peak bytes=96@1 unbounded@\n");
  EXPECT_EQ(r.total_work, 306u);
}

}  // namespace
}  // namespace tabular::analysis
