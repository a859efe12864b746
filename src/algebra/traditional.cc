#include "algebra/traditional.h"

#include <map>
#include <string>
#include <unordered_set>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tabular::algebra {

using tabular::Status;
using core::WeaklyEqual;

Result<Table> Union(const Table& rho, const Table& sigma,
                    Symbol result_name) {
  TABULAR_TRACE_SPAN("union", "algebra");
  const size_t wr = rho.width();
  const size_t ws = sigma.width();
  const size_t hr = rho.height();
  const size_t hs = sigma.height();
  SymbolVec col_attrs(wr + ws);
  for (size_t j = 0; j < wr; ++j) col_attrs[j] = rho.ColumnAttribute(j + 1);
  for (size_t j = 0; j < ws; ++j)
    col_attrs[wr + j] = sigma.ColumnAttribute(j + 1);
  SymbolVec row_attrs;
  row_attrs.reserve(hr + hs);
  row_attrs.insert(row_attrs.end(), rho.RowAttrs().begin(),
                   rho.RowAttrs().end());
  row_attrs.insert(row_attrs.end(), sigma.RowAttrs().begin(),
                   sigma.RowAttrs().end());
  // Columnar: each side's columns are its source column padded with an
  // all-⊥ run for the other side's rows, so the ⊥ region stays lazy. The
  // left side starts on a chunk boundary, so it shares its source's whole
  // chunks; only its partial tail chunk is copied, to take the padding.
  std::vector<core::Column> cols(wr + ws);
  for (size_t j = 0; j < wr; ++j) {
    cols[j].AppendRange(rho.DataColumn(j + 1), 0, hr);
    cols[j].AppendNulls(hs);
  }
  for (size_t j = 0; j < ws; ++j) {
    cols[wr + j].AppendNulls(hr);
    cols[wr + j].AppendRange(sigma.DataColumn(j + 1), 0, hs);
  }
  Table out = Table::FromColumns(result_name, std::move(col_attrs),
                                 std::move(row_attrs), std::move(cols));
  static obs::OpCounters counters("algebra.union");
  counters.Record(hr + hs, out.height());
  return out;
}

namespace {

/// Canonical fingerprint of a data row under mutual subsumption: the map
/// attribute → ⊥-stripped entry set (empty sets omitted). Two rows of any
/// two tables subsume each other iff their fingerprints are equal, which
/// turns the quadratic subsumption scan of Difference into hashing.
std::string RowSubsumptionKey(const Table& t, size_t i) {
  std::map<Symbol, SymbolSet, core::SymbolLess> sets;
  for (size_t j = 1; j < t.num_cols(); ++j) {
    Symbol cell = t.at(i, j);
    if (cell.is_null()) continue;
    sets[t.at(0, j)].insert(cell);
  }
  std::string key;
  for (const auto& [attr, values] : sets) {
    key.push_back(static_cast<char>('0' + static_cast<int>(attr.kind())));
    key.append(attr.is_null() ? "" : attr.text());
    key.push_back('\x1e');
    for (Symbol v : values) {
      key.push_back(static_cast<char>('0' + static_cast<int>(v.kind())));
      key.append(v.text());
      key.push_back('\x1f');
    }
    key.push_back('\x1d');
  }
  return key;
}

}  // namespace

Result<Table> Difference(const Table& rho, const Table& sigma,
                         Symbol result_name) {
  TABULAR_TRACE_SPAN("difference", "algebra");
  std::unordered_set<std::string> sigma_keys;
  sigma_keys.reserve(sigma.height());
  for (size_t k = 1; k <= sigma.height(); ++k) {
    sigma_keys.insert(RowSubsumptionKey(sigma, k));
  }
  Table out(1, rho.num_cols());
  out.set_name(result_name);
  for (size_t j = 1; j < rho.num_cols(); ++j) out.set(0, j, rho.at(0, j));
  for (size_t i = 1; i <= rho.height(); ++i) {
    if (!sigma_keys.contains(RowSubsumptionKey(rho, i))) {
      out.AppendRow(rho.Row(i));
    }
  }
  static obs::OpCounters counters("algebra.difference");
  counters.Record(rho.height() + sigma.height(), out.height());
  return out;
}

namespace {

/// paper-gap: combined row attribute for a product row (see header).
Symbol CombineRowAttributes(Symbol a, Symbol b) {
  if (a == b) return a;
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  return Symbol::Null();
}

}  // namespace

Result<Table> CartesianProduct(const Table& rho, const Table& sigma,
                               Symbol result_name) {
  TABULAR_TRACE_SPAN("product", "algebra");
  const size_t wr = rho.width();
  const size_t ws = sigma.width();
  const size_t hr = rho.height();
  const size_t hs = sigma.height();
  const size_t out_rows = hr * hs;
  Table out(1 + out_rows, 1 + wr + ws);
  out.set_name(result_name);
  for (size_t j = 1; j <= wr; ++j) out.set(0, j, rho.at(0, j));
  for (size_t j = 1; j <= ws; ++j) out.set(0, wr + j, sigma.at(0, j));
  // Flat row r = (i, k) of the serial nesting: each rho column repeats
  // every value hs times, each sigma column tiles whole hr times.
  SymbolVec& row_attrs = out.MutableRowAttrs();
  for (size_t i = 0; i < hr; ++i) {
    const Symbol a = rho.RowAttribute(i + 1);
    for (size_t k = 0; k < hs; ++k) {
      row_attrs[i * hs + k] =
          CombineRowAttributes(a, sigma.RowAttribute(k + 1));
    }
  }
  // Each task builds whole columns (chunk runs of repeats/tiles via the
  // bulk appenders), so the output is byte-identical at any thread count
  // and all-⊥ source chunks stay lazy in the product.
  const size_t min_cols = 1 + exec::kDefaultSerialCutoff / (out_rows + 1);
  exec::ParallelFor(wr + ws, min_cols, [&](size_t jb, size_t je) {
    for (size_t j = jb; j < je; ++j) {
      core::Column col;
      if (j < wr) {
        const core::Column& src = rho.DataColumn(j + 1);
        for (size_t c = 0; c < src.num_chunks(); ++c) {
          const Symbol* p = src.ChunkData(c);
          const size_t len = src.ChunkLen(c);
          if (p == nullptr) {
            col.AppendNulls(len * hs);
          } else {
            for (size_t k = 0; k < len; ++k) col.AppendFill(p[k], hs);
          }
        }
      } else {
        const core::Column& src = sigma.DataColumn(j - wr + 1);
        for (size_t i = 0; i < hr; ++i) col.AppendRange(src, 0, hs);
      }
      out.MutableDataColumn(j + 1) = std::move(col);
    }
  });
  static obs::OpCounters counters("algebra.product");
  counters.Record(hr + hs, out.height());
  return out;
}

Result<Table> Rename(const Table& rho, Symbol from, Symbol to,
                     Symbol result_name) {
  TABULAR_TRACE_SPAN("rename", "algebra");
  Table out = rho;
  out.set_name(result_name);
  for (size_t j = 1; j < out.num_cols(); ++j) {
    if (out.at(0, j) == from) out.set(0, j, to);
  }
  static obs::OpCounters counters("algebra.rename");
  counters.Record(rho.height(), out.height());
  return out;
}

Result<Table> Project(const Table& rho, const SymbolSet& attrs,
                      Symbol result_name) {
  TABULAR_TRACE_SPAN("project", "algebra");
  std::vector<size_t> keep;
  for (size_t j = 1; j < rho.num_cols(); ++j) {
    if (attrs.contains(rho.at(0, j))) keep.push_back(j);
  }
  // The kept columns and the row attributes are shared with rho, not
  // copied: O(#chunks), no cell touched.
  Table out = rho.WithColumns(keep);
  out.set_name(result_name);
  static obs::OpCounters counters("algebra.project");
  counters.Record(rho.height(), out.height());
  return out;
}

namespace {

/// Builds the selection result from the matched 0-based data-row indices:
/// the attribute row carries over, every data column is gathered at once.
/// `rows` is strictly increasing, so a selection with height() rows keeps
/// every row in order: it shares rho's storage instead.
Table GatherRows(const Table& rho, const std::vector<size_t>& rows,
                 Symbol result_name) {
  if (rows.size() == rho.height()) {
    Table out = rho;
    out.set_name(result_name);
    return out;
  }
  SymbolVec col_attrs = rho.ColumnAttributes();
  SymbolVec row_attrs(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    row_attrs[r] = rho.RowAttribute(rows[r] + 1);
  }
  std::vector<core::Column> cols(rho.width());
  for (size_t j = 0; j < rho.width(); ++j) {
    cols[j].AppendGather(rho.DataColumn(j + 1), rows);
  }
  return Table::FromColumns(result_name, std::move(col_attrs),
                            std::move(row_attrs), std::move(cols));
}

}  // namespace

Result<Table> Select(const Table& rho, Symbol attr_a, Symbol attr_b,
                     Symbol result_name) {
  TABULAR_TRACE_SPAN("select", "algebra");
  const std::vector<size_t> cols_a = rho.ColumnsNamed(attr_a);
  const std::vector<size_t> cols_b = rho.ColumnsNamed(attr_b);
  static obs::OpCounters counters("algebra.select");
  std::vector<size_t> rows;
  // Fast path: singleton columns — ⊥-stripped sets are equal iff the two
  // cells coincide (covers the common relational shape without per-row set
  // allocations). Chunk-at-a-time: against a lazy all-⊥ chunk the predicate
  // degenerates to an is-null scan of the other side.
  if (cols_a.size() == 1 && cols_b.size() == 1) {
    const core::Column& ca = rho.DataColumn(cols_a[0]);
    const core::Column& cb = rho.DataColumn(cols_b[0]);
    for (size_t c = 0; c < ca.num_chunks(); ++c) {
      const Symbol* pa = ca.ChunkData(c);
      const Symbol* pb = cb.ChunkData(c);
      const size_t base = c << core::Column::kChunkBits;
      const size_t len = ca.ChunkLen(c);
      if (pa == nullptr && pb == nullptr) {
        for (size_t k = 0; k < len; ++k) rows.push_back(base + k);
      } else if (pa == nullptr || pb == nullptr) {
        const Symbol* p = pa == nullptr ? pb : pa;
        for (size_t k = 0; k < len; ++k) {
          if (p[k].is_null()) rows.push_back(base + k);
        }
      } else {
        for (size_t k = 0; k < len; ++k) {
          if (pa[k] == pb[k]) rows.push_back(base + k);
        }
      }
    }
  } else {
    for (size_t i = 1; i <= rho.height(); ++i) {
      if (WeaklyEqual(rho.RowEntries(i, attr_a), rho.RowEntries(i, attr_b))) {
        rows.push_back(i - 1);
      }
    }
  }
  Table out = GatherRows(rho, rows, result_name);
  counters.Record(rho.height(), out.height());
  return out;
}

Result<Table> SelectConstant(const Table& rho, Symbol attr, Symbol value,
                             Symbol result_name) {
  TABULAR_TRACE_SPAN("selectconst", "algebra");
  const std::vector<size_t> cols = rho.ColumnsNamed(attr);
  static obs::OpCounters counters("algebra.selectconst");
  std::vector<size_t> rows;
  if (cols.size() == 1) {
    const core::Column& col = rho.DataColumn(cols[0]);
    for (size_t c = 0; c < col.num_chunks(); ++c) {
      const Symbol* p = col.ChunkData(c);
      const size_t base = c << core::Column::kChunkBits;
      const size_t len = col.ChunkLen(c);
      if (p == nullptr) {
        if (value.is_null()) {
          for (size_t k = 0; k < len; ++k) rows.push_back(base + k);
        }
      } else {
        for (size_t k = 0; k < len; ++k) {
          if (p[k] == value) rows.push_back(base + k);
        }
      }
    }
  } else {
    SymbolSet target;
    target.insert(value);
    for (size_t i = 1; i <= rho.height(); ++i) {
      if (WeaklyEqual(rho.RowEntries(i, attr), target)) {
        rows.push_back(i - 1);
      }
    }
  }
  Table out = GatherRows(rho, rows, result_name);
  counters.Record(rho.height(), out.height());
  return out;
}

Result<Table> Intersection(const Table& rho, const Table& sigma,
                           Symbol result_name) {
  TABULAR_TRACE_SPAN("intersection", "algebra");
  TABULAR_ASSIGN_OR_RETURN(Table diff,
                           Difference(rho, sigma, result_name));
  return Difference(rho, diff, result_name);
}

}  // namespace tabular::algebra
