// The machinery behind Theorem 4.4 (completeness), run concretely:
//
//   1. P_Rep encodes a tabular database into the fixed-scheme relational
//      canonical representation Rep = {Data, Map}   (Lemma 4.2);
//   2. an arbitrary FO+while computation Q' transforms the representation;
//   3. P_Rep⁻ decodes back into tables                (Lemma 4.3);
//
// i.e. every generic transformation factors as P_Rep⁻ ∘ Q' ∘ P_Rep, and
// each factor is tabular-algebra expressible. Here Q' renames the Sales
// table (a schema-level edit done *in data*, because the canonical
// representation reifies names as values of Map).

#include <cstdio>

#include "core/compare.h"
#include "core/sales_data.h"
#include "io/grid_format.h"
#include "relational/canonical.h"
#include "relational/fo_while.h"

namespace {

using tabular::core::Symbol;
using tabular::rel::RelExpr;

int Fail(const tabular::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  tabular::core::TabularDatabase db = tabular::fixtures::SalesInfo2(true);
  std::printf("Input database (SalesInfo2 with summaries):\n%s\n",
              tabular::io::PrettyPrintDatabase(db).c_str());

  // 1. Encode.
  auto rep = tabular::rel::CanonicalEncode(db);
  if (!rep.ok()) return Fail(rep.status());
  std::printf("Canonical representation: Data has %zu tuples, Map has %zu "
              "(one id per occurrence)\n\n",
              rep->Get(tabular::rel::RepDataName())->size(),
              rep->Get(tabular::rel::RepMapName())->size());

  // 2. Transform the representation with FO+while: rewrite every Map entry
  //    'Sales' to 'Archive' — renaming the table by editing *data*.
  //    Map := (Map \ σ_{Entry='Sales'}(Map))
  //           ∪ π_{Id,Entry'}(σ_{Entry='Sales'}(Map) × {'Archive'}) ...
  //    spelled with the expression helpers:
  auto map_rel = RelExpr::Rel(tabular::rel::RepMapName());
  auto sales_rows = RelExpr::SelConst(map_rel, Symbol::Name("Entry"),
                                      Symbol::Name("Sales"));
  auto renamed = RelExpr::Ren(
      RelExpr::Proj(
          RelExpr::Prod(RelExpr::Proj(sales_rows, {Symbol::Name("Id")}),
                        RelExpr::Const({Symbol::Name("NewEntry")},
                                       {Symbol::Name("Archive")})),
          {Symbol::Name("Id"), Symbol::Name("NewEntry")}),
      Symbol::Name("NewEntry"), Symbol::Name("Entry"));
  tabular::rel::FoProgram q;
  q.statements.push_back(tabular::rel::FoStatement::Assign(
      tabular::rel::RepMapName(),
      RelExpr::Un(RelExpr::Diff(map_rel, sales_rows), renamed)));
  tabular::rel::RelationalDatabase working = *rep;
  tabular::Status st = tabular::rel::RunFoProgram(q, &working);
  if (!st.ok()) return Fail(st);

  // 3. Decode.
  auto out = tabular::rel::CanonicalDecode(working);
  if (!out.ok()) return Fail(out.status());
  std::printf("After Q' (rename Sales→Archive in the representation) and "
              "P_Rep⁻:\n%s\n",
              tabular::io::PrettyPrintDatabase(*out).c_str());

  // Sanity: the identity pipeline (no Q') is the identity up to row and
  // column permutations — the paper's notion of database equality.
  auto identity = tabular::rel::CanonicalDecode(*rep);
  if (!identity.ok()) return Fail(identity.status());
  const bool same = tabular::core::EquivalentDatabases(db, *identity);
  std::printf("Identity round trip P_Rep⁻ ∘ P_Rep: %s\n",
              same ? "database recovered exactly (up to permutation)"
                   : "MISMATCH (bug!)");
  return same ? 0 : 1;
}
