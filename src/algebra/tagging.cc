#include "algebra/tagging.h"

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tabular::algebra {

using tabular::Status;
using core::SymbolVec;

Symbol FreshValueGenerator::Fresh() {
  for (;;) {
    Symbol candidate = Symbol::Value("\xce\xbd" + std::to_string(counter_++));
    if (used_.insert(candidate).second) return candidate;
  }
}

void FreshValueGenerator::Reserve(const SymbolSet& more) {
  used_.insert(more.begin(), more.end());
}

Result<Table> TupleNew(const Table& rho, Symbol attr,
                       FreshValueGenerator* gen, Symbol result_name) {
  TABULAR_TRACE_SPAN("tuplenew", "algebra");
  Table out = rho;
  out.set_name(result_name);
  SymbolVec col;
  col.reserve(out.num_rows());
  col.push_back(attr);
  for (size_t i = 1; i <= out.height(); ++i) col.push_back(gen->Fresh());
  out.AppendColumn(col);
  static obs::OpCounters counters("algebra.tuplenew");
  counters.Record(rho.height(), out.height());
  return out;
}

namespace {

/// SETNEW's output rows for an input of `m` data rows, or the refusal.
Result<size_t> SetNewRows(size_t m) {
  if (m > 63) {
    return Status::ResourceExhausted("SETNEW on " + std::to_string(m) +
                                     " rows: subset space too large");
  }
  // Total output rows: m * 2^(m-1); each row belongs to half the subsets.
  const size_t total =
      m == 0 ? 0 : m * (size_t{1} << (m - 1));
  if (total > kMaxSetNewRows) {
    return Status::ResourceExhausted(
        "SETNEW would create " + std::to_string(total) + " rows (cap " +
        std::to_string(kMaxSetNewRows) + ")");
  }
  return total;
}

}  // namespace

OutputSize SetNewOutputSize(const Table& rho) {
  const Result<size_t> rows = SetNewRows(rho.height());
  return OutputSize{rows.ok() ? *rows : 0, rho.width() + 1};
}

Result<Table> SetNew(const Table& rho, Symbol attr, FreshValueGenerator* gen,
                     Symbol result_name) {
  TABULAR_TRACE_SPAN("setnew", "algebra");
  const size_t m = rho.height();
  TABULAR_RETURN_NOT_OK(SetNewRows(m).status());
  Table out(1, rho.num_cols() + 1);
  out.set_name(result_name);
  for (size_t j = 1; j < rho.num_cols(); ++j) out.set(0, j, rho.at(0, j));
  out.set(0, rho.num_cols(), attr);
  const uint64_t subsets = m == 0 ? 1 : (uint64_t{1} << m);
  for (uint64_t mask = 1; mask < subsets; ++mask) {
    Symbol tag = gen->Fresh();
    for (size_t i = 0; i < m; ++i) {
      if (!(mask & (uint64_t{1} << i))) continue;
      SymbolVec row = rho.Row(i + 1);
      row.push_back(tag);
      out.AppendRow(row);
    }
  }
  static obs::OpCounters counters("algebra.setnew");
  counters.Record(rho.height(), out.height());
  return out;
}

}  // namespace tabular::algebra
