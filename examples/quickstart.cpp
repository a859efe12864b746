// Quickstart: build a table, restructure it with the tabular algebra, and
// run the same restructuring as a parsed TA program.
//
// This walks the paper's running example (Gyssens, Lakshmanan, Subramanian,
// "Tables as a Paradigm for Querying and Restructuring", PODS'96, §3.2):
// the flat Sales relation of Figure 1's SalesInfo1 is reorganized per
// region into Figure 1's SalesInfo2 via GROUP, CLEAN-UP and PURGE.

#include <cstdio>
#include <string>

#include "algebra/ops.h"
#include "core/table.h"
#include "io/grid_format.h"
#include "lang/interpreter.h"
#include "lang/parser.h"

namespace {

using tabular::core::Symbol;
using tabular::core::Table;

int Fail(const tabular::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  // 1. Build a table cell by cell. Names (typewriter symbols in the paper)
  //    and values are distinct sorts; '#' is the inapplicable null ⊥.
  Table sales = Table::Parse({
      {"!Sales", "!Part", "!Region", "!Sold"},
      {"#", "nuts", "east", "50"},
      {"#", "nuts", "west", "60"},
      {"#", "nuts", "south", "40"},
      {"#", "screws", "west", "50"},
      {"#", "screws", "north", "60"},
      {"#", "screws", "south", "50"},
      {"#", "bolts", "east", "70"},
      {"#", "bolts", "north", "40"},
  });
  std::printf("The flat Sales table (SalesInfo1):\n%s\n",
              tabular::io::PrettyPrint(sales).c_str());

  // 2. Restructure with the operator kernels: group the Sold values per
  //    region, then remove the redundancy the paper's §3.4 describes.
  const Symbol kSales = Symbol::Name("Sales");
  const Symbol kRegion = Symbol::Name("Region");
  const Symbol kSold = Symbol::Name("Sold");
  const Symbol kPart = Symbol::Name("Part");

  auto grouped = tabular::algebra::Group(sales, {kRegion}, {kSold}, kSales);
  if (!grouped.ok()) return Fail(grouped.status());
  auto cleaned = tabular::algebra::CleanUp(*grouped, {kPart},
                                           {Symbol::Null()}, kSales);
  if (!cleaned.ok()) return Fail(cleaned.status());
  auto pivoted = tabular::algebra::Purge(*cleaned, {kSold}, {kRegion},
                                         kSales);
  if (!pivoted.ok()) return Fail(pivoted.status());
  std::printf("After GROUP by Region on Sold + CLEAN-UP + PURGE "
              "(SalesInfo2):\n%s\n",
              tabular::io::PrettyPrint(*pivoted).c_str());

  // 3. The same pipeline as a textual tabular-algebra program.
  auto program = tabular::lang::ParseProgram(R"(
    Sales <- group by {Region} on {Sold} (Sales);
    Sales <- cleanup by {Part} on {_} (Sales);
    Sales <- purge on {Sold} by {Region} (Sales);
  )");
  if (!program.ok()) return Fail(program.status());

  tabular::core::TabularDatabase db;
  db.Add(sales);
  tabular::Status st = tabular::lang::RunProgram(*program, &db);
  if (!st.ok()) return Fail(st);

  std::printf("The same result computed by the TA program:\n%s",
              tabular::io::PrettyPrint(db.Named(kSales)[0]).c_str());
  const bool same = db.Named(kSales)[0] == *pivoted;
  std::printf("\nKernel result and program result %s.\n",
              same ? "match exactly" : "DIFFER (bug!)");
  return same ? 0 : 1;
}
