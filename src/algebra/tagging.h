#ifndef TABULAR_ALGEBRA_TAGGING_H_
#define TABULAR_ALGEBRA_TAGGING_H_

#include <cstddef>

#include "algebra/output_size.h"
#include "core/status.h"
#include "core/symbol.h"
#include "core/table.h"

namespace tabular::algebra {

using tabular::Result;
using core::Symbol;
using core::SymbolSet;
using core::Table;

/// Value invention (paper §3.5), modeled on FO+new of [Van den Bussche et
/// al.]: the tagging operations extend a table with freshly created values.
/// The paper picks new values nondeterministically from S; determinacy
/// (§4.1 condition (iv)) makes any fixed choice equivalent up to
/// isomorphism, so we generate them deterministically.

/// Hard cap on the number of rows a SETNEW may produce (the operation is
/// inherently exponential: a table with m data rows yields m·2^(m-1) rows).
inline constexpr size_t kMaxSetNewRows = size_t{1} << 20;

/// Deterministic source of values guaranteed fresh with respect to a fixed
/// symbol universe (typically `database.AllSymbols()` at program start,
/// updated as tags are created).
class FreshValueGenerator {
 public:
  /// `used` are the symbols the generated values must avoid.
  explicit FreshValueGenerator(SymbolSet used) : used_(std::move(used)) {}

  /// Returns a value of the form ν<k> not in the used set, and records it
  /// as used.
  Symbol Fresh();

  /// Marks additional symbols as used (e.g., after loading more tables).
  void Reserve(const SymbolSet& more);

 private:
  SymbolSet used_;
  size_t counter_ = 0;
};

/// `T <- TUPLENEW_A(R)`: appends one column named `attr`, holding a
/// distinct new value for every data row (tuple identifiers).
Result<Table> TupleNew(const Table& rho, Symbol attr,
                       FreshValueGenerator* gen, Symbol result_name);

/// `T <- SETNEW_A(R)`: appends one column named `attr` and replaces the
/// data rows by the concatenation, over every non-empty subset S of the
/// data rows (in binary-counter order), of S's rows each tagged with a new
/// value identifying S. Yields m·2^(m-1) data rows; errors with
/// ResourceExhausted beyond `kMaxSetNewRows`.
Result<Table> SetNew(const Table& rho, Symbol attr, FreshValueGenerator* gen,
                     Symbol result_name);

/// The size of `SetNew(rho, ·, ·, ·)`'s output, by the kernel's own
/// formula: m·2^(m−1) rows and one column more than `rho`. 0 rows when
/// the kernel refuses the call (the kernel reports why).
OutputSize SetNewOutputSize(const Table& rho);

}  // namespace tabular::algebra

#endif  // TABULAR_ALGEBRA_TAGGING_H_
