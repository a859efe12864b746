// tabular_lint: static semantic analysis for tabular-algebra programs.
//
// Reads .ta program files, runs the src/analysis dataflow pass, and prints
// clang-style diagnostics. The initial schema is open (anything may exist)
// unless pinned with --empty-db, --db, or --csv.
//
// Exit codes (CI-friendly):
//   0  no diagnostics at the failing severity
//   1  errors found (or warnings, under --werror)
//   2  usage, file-read, or parse failure

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cost.h"
#include "analysis/diagnostics.h"
#include "analysis/shape.h"
#include "core/database.h"
#include "core/status.h"
#include "exec/flags.h"
#include "io/csv.h"
#include "io/grid_format.h"
#include "lang/ast.h"
#include "lang/interpreter.h"
#include "lang/optimizer.h"
#include "lang/parser.h"
#include "obs/profile.h"
#include "relational/canonical.h"

namespace {

constexpr const char* kUsage =
    R"(usage: tabular_lint [options] <program.ta>...

Statically analyzes tabular-algebra programs: shape inference over every
statement plus diagnostics for arity errors, operator contract violations,
use-before-definition, dead stores, and unreachable or non-terminating
while loops.

options:
  --db <file>        initial schema from a grid-format database file
  --csv <name=file>  add relation <name> from a CSV file (repeatable)
  --empty-db         start from an empty database (default: open schema,
                     every table may exist)
  --werror           exit 1 on warnings too (and, with --optimize, on
                     validator-rejected rewrites)
  --no-dead-stores   suppress dead-store warnings
  --json             machine-readable output: a JSON array with one object
                     per diagnostic (file, severity, path, message[, note])
  --optimize         run the translation-validated rewrite engine and print
                     each certified rewrite as a diff plus a summary report
  --cost             print the static cost table: per-statement row/byte/work
                     bounds from the shape analysis ("∞" = statically
                     unbounded) plus program totals — the same numbers
                     tabulard's admission control checks. Costs the optimized
                     plan when combined with --optimize. A statically
                     unbounded program warns (exit 1 under --werror).
  --cost-budget-rows <n>   with --cost: warn when the peak row bound exceeds n
  --cost-budget-bytes <n>  with --cost: warn when the peak byte bound exceeds n
  --cost-budget-work <n>   with --cost: warn when total work bound exceeds n
                           (n: a whole number, 0 = no budget; anything
                           else exits 2)
  -h, --help         show this help
)";

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using tabular::analysis::AbstractDatabase;
  using tabular::analysis::AnalysisResult;
  using tabular::analysis::Diagnostic;
  using tabular::analysis::Severity;

  std::vector<std::string> files;
  tabular::core::TabularDatabase schema_db;
  bool have_schema = false;
  bool empty_db = false;
  bool werror = false;
  bool json = false;
  bool optimize = false;
  bool cost = false;
  uint64_t cost_budget_rows = 0;   // 0 = no budget
  uint64_t cost_budget_bytes = 0;
  uint64_t cost_budget_work = 0;
  tabular::analysis::AnalyzerOptions options;

  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "tabular_lint: error: " << flag
                << " requires a value\n";
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--empty-db") {
      empty_db = true;
    } else if (arg == "--no-dead-stores") {
      options.check_dead_stores = false;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--optimize") {
      optimize = true;
    } else if (arg == "--cost") {
      cost = true;
    } else if (arg == "--cost-budget-rows" || arg == "--cost-budget-bytes" ||
               arg == "--cost-budget-work") {
      const char* value = need_value(i, argv[i]);
      if (value == nullptr) return 2;
      uint64_t* budget = arg == "--cost-budget-rows"    ? &cost_budget_rows
                         : arg == "--cost-budget-bytes" ? &cost_budget_bytes
                                                        : &cost_budget_work;
      if (!tabular::exec::ParseLimit(value, budget)) {
        std::cerr << "tabular_lint: error: " << arg << " '" << value
                  << "' is not a whole number\n";
        return 2;
      }
    } else if (arg == "--db") {
      const char* value = need_value(i, "--db");
      if (value == nullptr) return 2;
      auto db = tabular::io::LoadDatabaseFile(value);
      if (!db.ok()) {
        std::cerr << "tabular_lint: error: cannot load database '" << value
                  << "': " << db.status().message() << "\n";
        return 2;
      }
      for (const tabular::core::Table& t : db->tables()) {
        schema_db.Add(t);
      }
      have_schema = true;
    } else if (arg == "--csv") {
      const char* value = need_value(i, "--csv");
      if (value == nullptr) return 2;
      const std::string spec = value;
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "tabular_lint: error: --csv expects <name=file>, got '"
                  << spec << "'\n";
        return 2;
      }
      const std::string name = spec.substr(0, eq);
      const std::string path = spec.substr(eq + 1);
      std::string csv;
      if (!ReadFile(path, &csv)) {
        std::cerr << "tabular_lint: error: cannot read '" << path << "'\n";
        return 2;
      }
      auto relation = tabular::io::ReadCsvRelation(name, csv);
      if (!relation.ok()) {
        std::cerr << "tabular_lint: error: cannot parse CSV '" << path
                  << "': " << relation.status().message() << "\n";
        return 2;
      }
      schema_db.Add(tabular::rel::RelationToTable(*relation));
      have_schema = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "tabular_lint: error: unknown option '" << arg << "'\n"
                << kUsage;
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  if (files.empty()) {
    std::cerr << "tabular_lint: error: no program files given\n" << kUsage;
    return 2;
  }

  // The initial abstract state: an explicit schema is exact; --empty-db
  // means nothing exists until the program creates it; the default is the
  // open schema (no use-before-definition or shape diagnostics possible
  // for tables the program did not itself define).
  AbstractDatabase initial;
  if (have_schema) {
    initial = AbstractDatabase::FromDatabase(schema_db);
    if (empty_db) {
      std::cerr << "tabular_lint: error: --empty-db conflicts with "
                   "--db/--csv\n";
      return 2;
    }
  } else if (empty_db) {
    initial = AbstractDatabase::Empty();
  } else {
    initial = AbstractDatabase::Unknown();
  }

  size_t errors = 0, warnings = 0;
  size_t rewrites_applied = 0, rewrites_rejected = 0;
  bool io_failure = false;
  std::vector<std::string> json_objects;
  for (const std::string& file : files) {
    std::string source;
    if (!ReadFile(file, &source)) {
      std::cerr << "tabular_lint: error: cannot read '" << file << "'\n";
      io_failure = true;
      continue;
    }
    auto program = tabular::lang::ParseProgram(source);
    if (!program.ok()) {
      Diagnostic parse_error;
      parse_error.severity = Severity::kError;
      parse_error.message = program.status().message();
      if (json) {
        json_objects.push_back(
            tabular::analysis::RenderJson(parse_error, file));
      } else {
        std::cout << file << ": error: " << program.status().message()
                  << "\n";
      }
      io_failure = true;
      continue;
    }
    AnalysisResult result =
        tabular::analysis::AnalyzeProgram(*program, initial, options);
    if (json) {
      for (const Diagnostic& d : result.diagnostics) {
        json_objects.push_back(tabular::analysis::RenderJson(d, file));
      }
    } else {
      std::cout << tabular::analysis::RenderAll(result.diagnostics, file);
    }
    errors += tabular::analysis::CountSeverity(result.diagnostics,
                                               Severity::kError);
    warnings += tabular::analysis::CountSeverity(result.diagnostics,
                                                 Severity::kWarning);

    // The plan --cost reports on: the certified rewrite when --optimize is
    // given (what the interpreter would actually run), the parse otherwise.
    tabular::lang::Program plan = *program;
    if (optimize) {
      tabular::lang::OptimizeStats stats;
      plan = tabular::lang::OptimizeProgram(*program, initial,
                                            std::move(result), {}, &stats);
      rewrites_applied += stats.applied;
      rewrites_rejected += stats.rejected;
      for (const tabular::lang::RewriteRecord& r : stats.records) {
        if (json) {
          json_objects.push_back(tabular::lang::RenderRewriteJson(r, file));
          continue;
        }
        std::cout << file << ":" << r.path << ": optimize: " << r.rule
                  << (r.certified ? " (certified)" : " (rejected)") << "\n";
        std::cout << "  - " << r.before << "\n";
        if (!r.after.empty()) std::cout << "  + " << r.after << "\n";
        if (!r.reason.empty()) {
          std::cout << "  reason: " << r.reason
                    << (r.divergent_at.empty()
                            ? ""
                            : " (diverged at " + r.divergent_at + ")")
                    << "\n";
        }
      }
      if (json) {
        // Per-file summary so CI logs can tie rejected counts to files
        // without re-deriving them from the rewrite objects.
        json_objects.push_back(
            "{\"file\":\"" + tabular::analysis::JsonEscape(file) +
            "\",\"rewrites_applied\":" + std::to_string(stats.applied) +
            ",\"rewrites_rejected\":" + std::to_string(stats.rejected) + "}");
      }
    }

    if (cost) {
      using tabular::analysis::FormatCost;
      const tabular::analysis::CostReport report =
          tabular::analysis::EstimateCost(plan, initial);
      auto cost_warn = [&](const std::string& path, const std::string& msg) {
        ++warnings;
        if (json) {
          Diagnostic d;
          d.severity = Severity::kWarning;
          d.path = path;
          d.message = msg;
          json_objects.push_back(tabular::analysis::RenderJson(d, file));
        } else {
          std::cout << file << ":" << path << ": warning: " << msg << "\n";
        }
      };
      if (json) {
        // Bounds are strings, not numbers: "∞" has no JSON-number form.
        for (const tabular::analysis::StatementCost& c : report.statements) {
          json_objects.push_back(
              "{\"file\":\"" + tabular::analysis::JsonEscape(file) +
              "\",\"cost_path\":\"" + c.path + "\",\"est_rows\":\"" +
              FormatCost(c.out_rows) + "\",\"est_bytes\":\"" +
              FormatCost(c.out_bytes) + "\",\"est_work\":\"" +
              FormatCost(c.work) + "\"}");
        }
        json_objects.push_back(
            "{\"file\":\"" + tabular::analysis::JsonEscape(file) +
            "\",\"cost_total_work\":\"" + FormatCost(report.total_work) +
            "\",\"cost_peak_rows\":\"" + FormatCost(report.peak_rows) +
            "\",\"cost_peak_bytes\":\"" + FormatCost(report.peak_bytes) +
            "\",\"cost_unbounded_at\":\"" + report.unbounded_path + "\"}");
      } else {
        tabular::obs::RenderProfileOptions render;
        render.show_times = false;
        std::cout << tabular::obs::RenderProfile(
            tabular::lang::Explain(plan, initial), render);
      }
      if (report.unbounded()) {
        cost_warn(report.unbounded_path,
                  "statically unbounded resource use (cost analysis)");
      }
      if (cost_budget_rows > 0 && report.peak_rows > cost_budget_rows) {
        cost_warn(report.peak_rows_path,
                  "peak row bound " + FormatCost(report.peak_rows) +
                      " exceeds budget " + std::to_string(cost_budget_rows));
      }
      if (cost_budget_bytes > 0 && report.peak_bytes > cost_budget_bytes) {
        cost_warn(report.peak_bytes_path,
                  "peak byte bound " + FormatCost(report.peak_bytes) +
                      " exceeds budget " + std::to_string(cost_budget_bytes));
      }
      if (cost_budget_work > 0 && report.total_work > cost_budget_work) {
        cost_warn("exit",
                  "total work bound " + FormatCost(report.total_work) +
                      " exceeds budget " + std::to_string(cost_budget_work));
      }
    }
  }

  if (json) {
    std::cout << "[";
    for (size_t i = 0; i < json_objects.size(); ++i) {
      std::cout << (i == 0 ? "\n" : ",\n") << json_objects[i];
    }
    std::cout << (json_objects.empty() ? "]\n" : "\n]\n");
  } else {
    if (errors + warnings > 0) {
      std::cout << errors << " error(s), " << warnings << " warning(s)\n";
    }
    if (optimize) {
      std::cout << rewrites_applied << " rewrite(s) applied, "
                << rewrites_rejected << " rejected\n";
    }
  }
  if (io_failure) return 2;
  if (errors > 0 || (werror && (warnings > 0 || rewrites_rejected > 0))) {
    return 1;
  }
  return 0;
}
