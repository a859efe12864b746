#include "algebra/restructure.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string>

#include "algebra/traditional.h"
#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tabular::algebra {

using tabular::Status;
using core::SymbolSet;

namespace {

constexpr size_t kNoColumn = std::numeric_limits<size_t>::max();

std::vector<size_t> ColumnsWithAttrIn(const Table& t, const SymbolSet& attrs,
                                      bool complement) {
  std::vector<size_t> out;
  for (size_t j = 1; j < t.num_cols(); ++j) {
    if (attrs.contains(t.at(0, j)) != complement) out.push_back(j);
  }
  return out;
}

size_t FirstColumnNamed(const Table& t, Symbol attr) {
  for (size_t j = 1; j < t.num_cols(); ++j) {
    if (t.at(0, j) == attr) return j;
  }
  return kNoColumn;
}

/// Lexicographic order on symbol tuples via Symbol::Compare, for use as a
/// deterministic map key.
struct SymbolVecLess {
  bool operator()(const SymbolVec& a, const SymbolVec& b) const {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](Symbol x, Symbol y) { return Symbol::Compare(x, y) < 0; });
  }
};

SymbolVec DistinctInOrder(const SymbolVec& attrs) {
  SymbolVec out;
  SymbolSet seen;
  for (Symbol a : attrs) {
    if (seen.insert(a).second) out.push_back(a);
  }
  return out;
}

/// What GROUP reads of its input before it builds anything. Invalid calls
/// fail here, with the kernel's error.
struct GroupLayout {
  SymbolVec a_attrs;            // distinct 𝒜, in parameter order
  std::vector<size_t> kept;     // columns in neither 𝒜 nor ℬ
  std::vector<size_t> b_cols;   // columns labeled in ℬ: one block

  /// The output's size for an input of `m` data rows.
  OutputSize Size(size_t m) const {
    return OutputSize{a_attrs.size() + m, kept.size() + m * b_cols.size()};
  }
};

Result<GroupLayout> LayOutGroup(const Table& rho, const SymbolVec& by_attrs,
                                const SymbolVec& on_attrs) {
  if (by_attrs.empty() || on_attrs.empty()) {
    return Status::InvalidArgument("GROUP needs non-empty 'by' and 'on'");
  }
  GroupLayout layout;
  layout.a_attrs = DistinctInOrder(by_attrs);
  const SymbolVec b_attrs = DistinctInOrder(on_attrs);
  SymbolSet a_set(layout.a_attrs.begin(), layout.a_attrs.end());
  SymbolSet b_set(b_attrs.begin(), b_attrs.end());
  for (Symbol a : layout.a_attrs) {
    if (b_set.contains(a)) {
      return Status::InvalidArgument("GROUP 'by' and 'on' overlap at " +
                                     a.ToString());
    }
    if (FirstColumnNamed(rho, a) == kNoColumn) {
      return Status::InvalidArgument("GROUP 'by' attribute " + a.ToString() +
                                     " labels no column");
    }
  }
  SymbolSet drop = a_set;
  drop.insert(b_set.begin(), b_set.end());
  layout.kept = ColumnsWithAttrIn(rho, drop, /*complement=*/true);
  layout.b_cols = ColumnsWithAttrIn(rho, b_set, /*complement=*/false);
  if (layout.b_cols.empty()) {
    return Status::InvalidArgument("GROUP 'on' attributes label no column");
  }
  return layout;
}

/// What MERGE reads of its input's column attributes and 𝒜-rows before it
/// builds anything. Invalid calls fail here, with the kernel's error.
struct MergeLayout {
  SymbolVec a_attrs;  // distinct 𝒜, in parameter order
  SymbolVec b_attrs;  // distinct ℬ, in parameter order
  /// occurrences[b]: the columns labeled b_attrs[b]. The k-th occurrence
  /// of each ℬ-attribute forms block k (paper-gap #4); attributes with
  /// fewer occurrences read ⊥ in the later blocks.
  std::vector<std::vector<size_t>> occurrences;
  size_t nblocks = 0;
  /// a_rows[a]: the rows supplying the values of the new column a_attrs[a].
  std::vector<std::vector<size_t>> a_rows;
  /// Cross product over the 𝒜-row choices (usually a single combination).
  /// Combination index c decodes to choice[a] = (c / stride[a]) %
  /// |a_rows[a]| with the first attribute varying fastest, matching the
  /// serial odometer's emission order.
  size_t ncombos = 1;
  std::vector<size_t> stride;
  std::vector<size_t> kept;  // columns not labeled in ℬ

  /// Whether a data row with row attribute `s` is consumed as an 𝒜-row;
  /// the others survive. A linear scan: the attribute list is tiny and
  /// the check runs once per source row.
  bool Consumed(Symbol s) const {
    for (Symbol a : a_attrs) {
      if (a == s) return true;
    }
    return false;
  }

  /// The output's size for an input of `m` data rows: every row that is
  /// not an 𝒜-row survives, and each emits nblocks · ncombos rows.
  OutputSize Size(size_t m) const {
    size_t consumed = 0;
    for (const std::vector<size_t>& rows : a_rows) consumed += rows.size();
    return OutputSize{(m - consumed) * nblocks * ncombos,
                      kept.size() + a_attrs.size() + b_attrs.size()};
  }
};

Result<MergeLayout> LayOutMerge(const Table& rho, const SymbolVec& on_attrs,
                                const SymbolVec& by_attrs) {
  if (on_attrs.empty() || by_attrs.empty()) {
    return Status::InvalidArgument("MERGE needs non-empty 'on' and 'by'");
  }
  MergeLayout layout;
  layout.b_attrs = DistinctInOrder(on_attrs);
  layout.a_attrs = DistinctInOrder(by_attrs);
  layout.occurrences.resize(layout.b_attrs.size());
  for (size_t b = 0; b < layout.b_attrs.size(); ++b) {
    layout.occurrences[b] = rho.ColumnsNamed(layout.b_attrs[b]);
    layout.nblocks = std::max(layout.nblocks, layout.occurrences[b].size());
  }
  if (layout.nblocks == 0) {
    return Status::InvalidArgument("MERGE 'on' attributes label no column");
  }
  const size_t a_n = layout.a_attrs.size();
  layout.a_rows.resize(a_n);
  layout.stride.assign(a_n, 1);
  for (size_t a = 0; a < a_n; ++a) {
    layout.a_rows[a] = rho.RowsNamed(layout.a_attrs[a]);
    if (layout.a_rows[a].empty()) {
      return Status::InvalidArgument("MERGE 'by' attribute " +
                                     layout.a_attrs[a].ToString() +
                                     " names no row");
    }
    layout.stride[a] = layout.ncombos;
    layout.ncombos *= layout.a_rows[a].size();
  }
  const SymbolSet b_set(layout.b_attrs.begin(), layout.b_attrs.end());
  layout.kept = ColumnsWithAttrIn(rho, b_set, /*complement=*/true);
  return layout;
}

}  // namespace

OutputSize GroupOutputSize(const Table& rho, const SymbolVec& by_attrs,
                           const SymbolVec& on_attrs) {
  const Result<GroupLayout> layout = LayOutGroup(rho, by_attrs, on_attrs);
  return layout.ok() ? layout->Size(rho.height()) : OutputSize{};
}

OutputSize MergeOutputSize(const Table& rho, const SymbolVec& on_attrs,
                           const SymbolVec& by_attrs) {
  const Result<MergeLayout> layout = LayOutMerge(rho, on_attrs, by_attrs);
  return layout.ok() ? layout->Size(rho.height()) : OutputSize{};
}

Result<Table> Group(const Table& rho, const SymbolVec& by_attrs,
                    const SymbolVec& on_attrs, Symbol result_name) {
  TABULAR_TRACE_SPAN("group", "algebra");
  TABULAR_ASSIGN_OR_RETURN(const GroupLayout layout,
                           LayOutGroup(rho, by_attrs, on_attrs));
  const SymbolVec& a_attrs = layout.a_attrs;
  const std::vector<size_t>& kept = layout.kept;
  const std::vector<size_t>& b_cols = layout.b_cols;
  const size_t m = rho.height();
  const size_t block = b_cols.size();
  const size_t a_n = a_attrs.size();
  const OutputSize size = layout.Size(m);
  // Output assembled columnar (DESIGN.md §11). The kept columns are a ⊥-pad
  // of a_n cells plus a chunk-level copy of the source column; each (input
  // row i, on-column c) pair contributes one mostly-⊥ output column whose
  // only materialized cells are its a_n leading 𝒜-values and row i's data
  // entry — lazy chunks keep that O(cells written), not O(height).
  SymbolVec col_attrs(size.cols);
  for (size_t c = 0; c < kept.size(); ++c) col_attrs[c] = rho.at(0, kept[c]);
  SymbolVec row_attrs;
  row_attrs.reserve(size.rows);
  row_attrs.insert(row_attrs.end(), a_attrs.begin(), a_attrs.end());
  const SymbolVec& src_row_attrs = rho.RowAttrs();
  row_attrs.insert(row_attrs.end(), src_row_attrs.begin(),
                   src_row_attrs.end());

  std::vector<core::Column> data(size.cols);
  for (size_t c = 0; c < kept.size(); ++c) {
    data[c].AppendNulls(a_n);
    data[c].AppendRange(rho.DataColumn(kept[c]), 0, m);
  }
  std::vector<const core::Column*> a_src(a_n);
  for (size_t a = 0; a < a_n; ++a) {
    a_src[a] = &rho.DataColumn(FirstColumnNamed(rho, a_attrs[a]));
  }
  std::vector<const core::Column*> b_src(block);
  for (size_t c = 0; c < block; ++c) b_src[c] = &rho.DataColumn(b_cols[c]);
  // Morsels over input rows: every output column belongs to exactly one
  // input row, so ranges touch disjoint columns and the result is
  // byte-identical to the serial path at any thread count.
  const size_t min_rows = 1 + exec::kDefaultSerialCutoff / (a_n + block + 1);
  const bool single_chunk = a_n + m <= core::Column::kChunkSize;
  exec::ParallelFor(m, min_rows, [&](size_t begin, size_t end) {
    SymbolVec a_vals(a_n);
    for (size_t i = begin; i < end; ++i) {
      for (size_t a = 0; a < a_n; ++a) a_vals[a] = a_src[a]->Get(i);
      for (size_t c = 0; c < block; ++c) {
        core::Column& col = data[kept.size() + i * block + c];
        col.ResizeNull(a_n + m);
        if (single_chunk) {
          // The whole column is one chunk: materialize it once (all-⊥)
          // and store the 𝒜-header and diagonal cell directly, skipping
          // per-cell Set dispatch on this sharded-ingest hot path (⊥
          // stores are no-ops on the fresh chunk, so no null checks).
          Symbol* p = col.MutableChunkData(0);
          for (size_t a = 0; a < a_n; ++a) p[a] = a_vals[a];
          p[a_n + i] = b_src[c]->Get(i);
        } else {
          for (size_t a = 0; a < a_n; ++a) col.Set(a, a_vals[a]);
          col.Set(a_n + i, b_src[c]->Get(i));
        }
        col_attrs[kept.size() + i * block + c] = rho.at(0, b_cols[c]);
      }
    }
  });
  Table out = Table::FromColumns(result_name, std::move(col_attrs),
                                 std::move(row_attrs), std::move(data));
  static obs::OpCounters counters("algebra.group");
  counters.Record(rho.height(), out.height());
  return out;
}

Result<Table> Merge(const Table& rho, const SymbolVec& on_attrs,
                    const SymbolVec& by_attrs, Symbol result_name) {
  TABULAR_TRACE_SPAN("merge", "algebra");
  TABULAR_ASSIGN_OR_RETURN(const MergeLayout layout,
                           LayOutMerge(rho, on_attrs, by_attrs));
  const SymbolVec& a_attrs = layout.a_attrs;
  const SymbolVec& b_attrs = layout.b_attrs;
  const std::vector<std::vector<size_t>>& occurrences = layout.occurrences;
  const std::vector<std::vector<size_t>>& a_rows = layout.a_rows;
  const std::vector<size_t>& stride = layout.stride;
  const std::vector<size_t>& kept = layout.kept;
  const size_t nblocks = layout.nblocks;
  const size_t ncombos = layout.ncombos;
  const size_t a_n = a_attrs.size();
  const size_t b_n = b_attrs.size();

  // First column of block k (kNoColumn when every ℬ-attribute ran out —
  // impossible by construction of nblocks, but kept for symmetry).
  std::vector<size_t> block_first(nblocks, kNoColumn);
  for (size_t k = 0; k < nblocks; ++k) {
    for (size_t b = 0; b < b_n && block_first[k] == kNoColumn; ++b) {
      if (k < occurrences[b].size()) block_first[k] = occurrences[b][k];
    }
  }
  // Source rows surviving into the output (𝒜-rows are consumed).
  std::vector<size_t> src;
  src.reserve(rho.height());
  for (size_t i = 1; i <= rho.height(); ++i) {
    if (!layout.Consumed(rho.at(i, 0))) src.push_back(i);
  }

  const size_t per_src = nblocks * ncombos;
  const size_t out_rows = layout.Size(rho.height()).rows;
  // Every output row is a (source row, block, 𝒜-choice) triple, nested
  // i outer, k middle, choices inner. Built column-at-a-time (DESIGN.md
  // §11): each output column only ever reads a handful of source columns,
  // so the fills below are tight chunk-append loops instead of per-row
  // cell scatter. Morsels hand whole columns to the pool — columns are
  // independent, so the partition is race-free and byte-identical to the
  // serial path at any thread count.
  SymbolVec col_attrs;
  col_attrs.reserve(layout.Size(0).cols);
  for (size_t k : kept) col_attrs.push_back(rho.at(0, k));
  for (Symbol a : a_attrs) col_attrs.push_back(a);
  for (Symbol b : b_attrs) col_attrs.push_back(b);

  // Row-attribute fill, single-pass where possible: per-row insert() calls
  // cost ~100ns each and dominate at 10M output rows, and when every
  // surviving row shares one attribute (the common flat-table case) the
  // whole vector is one splat construction.
  SymbolVec row_attrs;
  {
    bool all_same = true;
    for (size_t i : src) {
      if (rho.at(i, 0) != rho.at(src.front(), 0)) {
        all_same = false;
        break;
      }
    }
    if (src.empty()) {
      // No surviving rows: nothing to fill.
    } else if (all_same) {
      row_attrs.assign(out_rows, rho.at(src.front(), 0));
    } else {
      row_attrs.resize(out_rows);
      size_t w = 0;
      for (size_t i : src) {
        std::fill_n(row_attrs.data() + w, per_src, rho.at(i, 0));
        w += per_src;
      }
    }
  }

  std::vector<core::Column> data(col_attrs.size());
  exec::ParallelFor(data.size(), 1, [&](size_t cbegin, size_t cend) {
    std::vector<Symbol> pattern(per_src);
    // Fills are staged in a scratch buffer written by index (the compiler
    // turns the inner loops into splat/interleave stores) and flushed with
    // one AppendSpan per ~kChunkSize cells.
    const size_t rows_per_flush =
        std::max<size_t>(1, core::Column::kChunkSize / per_src);
    std::vector<Symbol> buf(rows_per_flush * per_src);
    for (size_t c = cbegin; c < cend; ++c) {
      core::Column& col = data[c];
      if (c < kept.size()) {
        // Kept column: each surviving source row's value, per_src times.
        // One pass gathers the source values (an all-⊥ column then stays
        // fully lazy), a second streams the repeated fills.
        const core::Column& from = rho.DataColumn(kept[c]);
        uint32_t any = 0;
        std::vector<Symbol> vals;
        vals.reserve(src.size());
        for (size_t i : src) {
          const Symbol v = from.Get(i - 1);
          any |= v.raw_id();
          vals.push_back(v);
        }
        if (any == 0) {
          col.AppendNulls(out_rows);
          continue;
        }
        size_t w = 0;
        for (Symbol v : vals) {
          std::fill_n(buf.data() + w, per_src, v);
          w += per_src;
          if (w + per_src > buf.size()) {
            col.AppendSpan(buf.data(), w);
            w = 0;
          }
        }
        if (w > 0) col.AppendSpan(buf.data(), w);
      } else if (c < kept.size() + a_n) {
        // 𝒜-column: the (block, combo) → value pattern is independent of
        // the source row, so precompute one per_src-cell tile, widen it to
        // a chunk, and replay it with bulk appends.
        const size_t a = c - kept.size();
        bool all_null = true;
        for (size_t k = 0; k < nblocks; ++k) {
          for (size_t combo = 0; combo < ncombos; ++combo) {
            const size_t src_row =
                a_rows[a][(combo / stride[a]) % a_rows[a].size()];
            Symbol v = block_first[k] == kNoColumn
                           ? Symbol::Null()
                           : rho.at(src_row, block_first[k]);
            pattern[k * ncombos + combo] = v;
            all_null = all_null && v.is_null();
          }
        }
        if (all_null) {
          col.AppendNulls(out_rows);
          continue;
        }
        for (size_t r = 0; r < rows_per_flush; ++r) {
          std::copy(pattern.begin(), pattern.end(),
                    buf.begin() + r * per_src);
        }
        size_t remaining = src.size();
        while (remaining >= rows_per_flush) {
          col.AppendSpan(buf.data(), rows_per_flush * per_src);
          remaining -= rows_per_flush;
        }
        if (remaining > 0) col.AppendSpan(buf.data(), remaining * per_src);
      } else {
        // ℬ-column: block k reads the k-th occurrence of this attribute
        // (⊥ past its last occurrence); each value spans the ncombos
        // 𝒜-choices. Consecutive source rows inside one source chunk are
        // processed as a run off raw chunk pointers, skipping the per-cell
        // chunk resolution of Get on the 10M-cell path.
        const size_t b = c - kept.size() - a_n;
        std::vector<const core::Column*> occ_cols(nblocks, nullptr);
        for (size_t k = 0; k < nblocks && k < occurrences[b].size(); ++k) {
          occ_cols[k] = &rho.DataColumn(occurrences[b][k]);
        }
        std::vector<const Symbol*> occ_chunk(nblocks, nullptr);
        size_t s = 0;
        while (s < src.size()) {
          const size_t row0 = src[s] - 1;
          const size_t c0 = row0 >> core::Column::kChunkBits;
          size_t e = s + 1;
          while (e < src.size() && src[e] == src[e - 1] + 1 &&
                 ((src[e] - 1) >> core::Column::kChunkBits) == c0) {
            ++e;
          }
          for (size_t k = 0; k < nblocks; ++k) {
            occ_chunk[k] =
                occ_cols[k] == nullptr ? nullptr : occ_cols[k]->ChunkData(c0);
          }
          // The run is staged block-at-a-time: for each k the null check is
          // hoisted and the inner loop is contiguous loads from the source
          // chunk with per_src-strided stores — shapes the compiler turns
          // into splat/interleave vector code, unlike the per-cell variant.
          for (size_t sub = s; sub < e; sub += rows_per_flush) {
            const size_t take = std::min(e - sub, rows_per_flush);
            const size_t off = (src[sub] - 1) & core::Column::kChunkMask;
            for (size_t k = 0; k < nblocks; ++k) {
              const Symbol* p = occ_chunk[k];
              Symbol* dst = buf.data() + k * ncombos;
              if (p == nullptr) {
                for (size_t r = 0; r < take; ++r) {
                  std::fill_n(dst + r * per_src, ncombos, Symbol::Null());
                }
              } else if (ncombos == 1) {
                for (size_t r = 0; r < take; ++r) {
                  dst[r * per_src] = p[off + r];
                }
              } else {
                for (size_t r = 0; r < take; ++r) {
                  std::fill_n(dst + r * per_src, ncombos, p[off + r]);
                }
              }
            }
            col.AppendSpan(buf.data(), take * per_src);
          }
          s = e;
        }
      }
    }
  });
  Table out = Table::FromColumns(result_name, std::move(col_attrs),
                                 std::move(row_attrs), std::move(data));
  static obs::OpCounters counters("algebra.merge");
  counters.Record(rho.height(), out.height());
  return out;
}

Result<std::vector<Table>> Split(const Table& rho, const SymbolVec& attrs,
                                 Symbol result_name) {
  TABULAR_TRACE_SPAN("split", "algebra");
  if (attrs.empty()) {
    return Status::InvalidArgument("SPLIT needs a non-empty attribute set");
  }
  const SymbolVec a_attrs = DistinctInOrder(attrs);
  std::vector<size_t> key_cols;
  for (Symbol a : a_attrs) {
    size_t j = FirstColumnNamed(rho, a);
    if (j == kNoColumn) {
      return Status::InvalidArgument("SPLIT attribute " + a.ToString() +
                                     " labels no column");
    }
    key_cols.push_back(j);
  }
  SymbolSet a_set(a_attrs.begin(), a_attrs.end());
  const std::vector<size_t> kept =
      ColumnsWithAttrIn(rho, a_set, /*complement=*/true);

  // Distinct key combinations in first-appearance order.
  std::vector<SymbolVec> keys;
  std::map<SymbolVec, size_t, SymbolVecLess> key_index;
  std::vector<std::vector<size_t>> members;
  for (size_t i = 1; i <= rho.height(); ++i) {
    SymbolVec key;
    key.reserve(key_cols.size());
    for (size_t j : key_cols) key.push_back(rho.at(i, j));
    auto [it, inserted] = key_index.try_emplace(key, keys.size());
    if (inserted) {
      keys.push_back(key);
      members.emplace_back();
    }
    members[it->second].push_back(i);
  }

  std::vector<Table> out;
  out.reserve(keys.size());
  for (size_t g = 0; g < keys.size(); ++g) {
    Table t(1, 1 + kept.size());
    t.set_name(result_name);
    for (size_t c = 0; c < kept.size(); ++c) {
      t.set(0, 1 + c, rho.at(0, kept[c]));
    }
    for (size_t a = 0; a < a_attrs.size(); ++a) {
      SymbolVec row(t.num_cols(), keys[g][a]);
      row[0] = a_attrs[a];
      t.AppendRow(row);
    }
    for (size_t i : members[g]) {
      SymbolVec row;
      row.reserve(t.num_cols());
      row.push_back(rho.at(i, 0));
      for (size_t c : kept) row.push_back(rho.at(i, c));
      t.AppendRow(row);
    }
    out.push_back(std::move(t));
  }
  static obs::OpCounters counters("algebra.split");
  uint64_t rows_out = 0;
  for (const Table& t : out) rows_out += t.height();
  counters.Record(rho.height(), rows_out);
  obs::GetCounter("algebra.split.tables_out").Add(out.size());
  return out;
}

Result<Table> Collapse(const std::vector<Table>& tables,
                       const SymbolVec& attrs, Symbol result_name) {
  TABULAR_TRACE_SPAN("collapse", "algebra");
  if (attrs.empty()) {
    return Status::InvalidArgument(
        "COLLAPSE needs a non-empty attribute set");
  }
  if (tables.empty()) {
    Table t;
    t.set_name(result_name);
    return t;
  }
  std::vector<Table> merged;
  merged.reserve(tables.size());
  for (const Table& t : tables) {
    SymbolVec all_attrs = DistinctInOrder(t.ColumnAttributes());
    TABULAR_ASSIGN_OR_RETURN(Table m,
                             Merge(t, all_attrs, attrs, result_name));
    merged.push_back(std::move(m));
  }
  Table acc = std::move(merged[0]);
  for (size_t i = 1; i < merged.size(); ++i) {
    TABULAR_ASSIGN_OR_RETURN(acc, Union(acc, merged[i], result_name));
  }
  static obs::OpCounters counters("algebra.collapse");
  uint64_t rows_in = 0;
  for (const Table& t : tables) rows_in += t.height();
  counters.Record(rows_in, acc.height());
  return acc;
}

}  // namespace tabular::algebra
