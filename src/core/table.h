#ifndef TABULAR_CORE_TABLE_H_
#define TABULAR_CORE_TABLE_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/symbol.h"

namespace tabular::core {

namespace internal {

/// The intrusive reference count of a copy-on-write buffer (a column chunk,
/// a table's row attributes). A new buffer has one holder. Taking another
/// reference is relaxed; dropping one is acq_rel, so every access a holder
/// made happens-before the buffer is recycled or handed to a sole owner;
/// and a writer tests `SoleOwner` with an acquire load before writing, so
/// the other holders' last reads happen-before its writes.
struct SharedCount {
  void Ref() { refs.fetch_add(1, std::memory_order_relaxed); }
  /// Drops one reference; true if it was the last.
  bool Unref() { return refs.fetch_sub(1, std::memory_order_acq_rel) == 1; }
  bool SoleOwner() const { return refs.load(std::memory_order_acquire) == 1; }

  std::atomic<uint32_t> refs{1};
};

}  // namespace internal

/// One data column of a `Table`, stored as fixed-size chunks of interned
/// symbol handles (the dictionary codes of the process-wide symbol pool —
/// a `Symbol` *is* its 4-byte dictionary handle, so a column is a flat
/// dictionary-encoded vector in the column-store sense).
///
/// Invariants:
///   * every chunk except the last spans exactly `kChunkSize` cells; the
///     last spans `size() - (num_chunks() - 1) * kChunkSize`;
///   * a chunk is either *materialized* (a buffer holding one handle per
///     cell) or *lazy* (no buffer, standing for an all-⊥ span).
///
/// Lazy chunks make all-⊥ construction O(size / kChunkSize): a fresh
/// `Table(rows, cols)` allocates no cell storage at all, and sparse kernels
/// (GROUP's one-value-per-column output) only materialize the chunks they
/// write. `Set` of ⊥ into a lazy chunk is a no-op.
///
/// Chunks are copy-on-write: copying a column shares every chunk buffer
/// (O(num_chunks()), no cell copied), and `AppendRange` shares a whole
/// source chunk that lands on a chunk boundary. Only a chunk's sole owner
/// writes to it: every writer (`Set`, `MutableChunkData`, `Materialize`,
/// the appenders, `ResizeNull`) first detaches a chunk another column still
/// references, so a write through one column is never seen through another.
///
/// Thread-safety: concurrent reads are wait-free (handle loads). Distinct
/// columns may be read, written, copied and destroyed on different threads
/// even while they share chunks. Within one column, a write may materialize
/// or detach a chunk, so parallel kernels must either partition work by
/// chunk (each chunk written by one task only) or pre-`Materialize`.
class Column {
 public:
  static constexpr size_t kChunkBits = 12;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;  // 4096 cells
  static constexpr size_t kChunkMask = kChunkSize - 1;

  Column() = default;
  /// An all-⊥ column of `n` cells (every chunk lazy) — O(1), no allocation.
  explicit Column(size_t n) : size_(n) {}
  /// Shares every chunk of `other`.
  Column(const Column& other);
  Column(Column&& other) noexcept;
  Column& operator=(Column other) noexcept;
  ~Column();

  size_t size() const { return size_; }
  size_t num_chunks() const { return (size_ + kChunkSize - 1) >> kChunkBits; }
  /// Cells spanned by chunk `c`.
  size_t ChunkLen(size_t c) const {
    return c + 1 < num_chunks() ? kChunkSize : size_ - c * kChunkSize;
  }

  Symbol Get(size_t i) const {
    const Chunk* ch = ChunkAt(i >> kChunkBits);
    return ch == nullptr ? Symbol::Null() : ch->cells[i & kChunkMask];
  }

  void Set(size_t i, Symbol s) {
    const size_t c = i >> kChunkBits;
    Chunk* ch = ChunkAt(c);
    if (ch == nullptr && s.is_null()) return;  // Lazy: already all-⊥.
    if (ch == nullptr || !ch->SoleOwner()) ch = WritableChunk(c, ChunkLen(c));
    ch->cells[i & kChunkMask] = s;
  }

  /// Chunk cells, or nullptr for a lazy (all-⊥) chunk.
  const Symbol* ChunkData(size_t c) const {
    const Chunk* ch = ChunkAt(c);
    return ch == nullptr ? nullptr : ch->cells;
  }
  /// Chunk cells for writing; materializes a lazy chunk (⊥-filled) and
  /// detaches a shared one. Valid until the column is next copied, resized
  /// or appended to.
  Symbol* MutableChunkData(size_t c) {
    Chunk* ch = ChunkAt(c);
    if (ch == nullptr || !ch->SoleOwner()) ch = WritableChunk(c, ChunkLen(c));
    return ch->cells;
  }

  /// Materializes (and detaches) every chunk, so concurrent
  /// position-disjoint `Set`s on one chunk stay race-free.
  void Materialize() {
    for (size_t c = 0; c < num_chunks(); ++c) MutableChunkData(c);
  }

  /// Grows (or shrinks) to `n` cells; new cells are ⊥ and lazy.
  void ResizeNull(size_t n);

  // -- Bulk builders (append at the tail) ------------------------------------

  void Append(Symbol s);
  /// Appends `n` ⊥ cells without materializing anything.
  void AppendNulls(size_t n);
  /// Appends `n` copies of `v`.
  void AppendFill(Symbol v, size_t n);
  /// Appends the `n` cells at `p` (bulk memcpy into tail chunks).
  void AppendSpan(const Symbol* p, size_t n);
  /// Appends cells [begin, begin + n) of `src`. A whole source chunk that
  /// lands on a chunk boundary here is shared, not copied; lazy source
  /// spans stay lazy when the destination is chunk-aligned.
  void AppendRange(const Column& src, size_t begin, size_t n);
  /// Appends `src.Get(r)` for every r in `rows`.
  void AppendGather(const Column& src, const std::vector<size_t>& rows);

  /// Cell-wise equality (⊥-aware across lazy/materialized chunks).
  friend bool operator==(const Column& a, const Column& b);

 private:
  /// One chunk's buffer: the reference count and kChunkSize cells in a
  /// single allocation. Cells past the owning column's `ChunkLen` are
  /// unspecified; a writer that extends a chunk's span fills them first.
  /// The cells start on their own cache line, so threads taking and
  /// dropping references to a shared chunk do not evict the cells that
  /// other threads are reading.
  struct Chunk : internal::SharedCount {
    Chunk() {}  // Leaves the cells unconstructed: writers fill them.
    union {
      alignas(64) Symbol cells[kChunkSize];
    };
  };
  /// This thread's retired chunks, reused before allocating (table.cc).
  static thread_local std::vector<std::unique_ptr<Chunk>> freelist_;

  /// Chunk `c`, or nullptr if it is lazy.
  Chunk* ChunkAt(size_t c) const {
    if (c == 0) return chunk0_;
    return c - 1 < rest_.size() ? rest_[c - 1] : nullptr;
  }
  /// The chunk-`c` slot, created (lazy) if the storage doesn't reach it yet.
  Chunk*& Slot(size_t c) {
    if (c == 0) return chunk0_;
    if (c - 1 >= rest_.size()) rest_.resize(c, nullptr);
    return rest_[c - 1];
  }
  /// Replaces lazy or shared chunk `c` with a fresh chunk this column owns
  /// alone, whose first `len` cells hold the chunk's current contents.
  Chunk* WritableChunk(size_t c, size_t len);
  /// The cells of the tail chunk (the one holding cell `size()`), writable.
  Symbol* WritableTail();
  /// A chunk with one holder, from this thread's freelist when it has one.
  static Chunk* NewChunk();
  /// Drops one reference to `ch`; the last holder recycles it.
  static void Unref(Chunk* ch);

  // Invariants: chunks past the span are absent. `rest_` may be *shorter*
  // than num_chunks() - 1 — missing entries, like nullptr ones, stand for
  // lazy all-⊥ spans, so an all-⊥ column of any size allocates nothing.
  size_t size_ = 0;
  Chunk* chunk0_ = nullptr;   // Chunk 0, inline (the common single-chunk
                              // column needs no chunk-table allocation).
  std::vector<Chunk*> rest_;  // Chunks 1... (possibly short).
};

/// A table of the tabular database model (paper §2, Figure 2).
///
/// Formally a total mapping from {0..m} × {0..n} into the symbol universe,
/// i.e. an (m+1) × (n+1) matrix of `Symbol`s, where m = `height()` and
/// n = `width()` in the paper's convention. The four regions are:
///
///   * τ⁰₀           — the table name           (`name()`)
///   * τ⁰_{>0}       — the column attributes    (`ColumnAttribute(j)`, j ≥ 1)
///   * τ_{>0}⁰       — the row attributes       (`RowAttribute(i)`, i ≥ 1)
///   * τ_{>0}^{>0}   — the data entries         (`Data(i, j)`)
///
/// Unlike relations, row and column attributes are optional (⊥), need not be
/// distinct, and data may occur in attribute positions (Figure 1's
/// SalesInfo3). Row/column indices in this API are *physical*: row 0 is the
/// attribute row, column 0 the attribute column.
///
/// Storage is columnar (DESIGN.md §11): the name and the two attribute
/// vectors are small side arrays, and each data column is a `Column` of
/// dictionary-encoded chunks. The physical-index API below is unchanged
/// from the row-major representation; kernels that want chunk-at-a-time
/// access use `DataColumn`/`MutableDataColumn` and the attribute refs.
class Table {
 public:
  /// The minimal table: a single cell holding ⊥ (height 0, width 0).
  Table();

  /// An all-⊥ table with `num_rows` × `num_cols` physical cells.
  /// Both must be ≥ 1. O(cells / Column::kChunkSize), not O(cells).
  Table(size_t num_rows, size_t num_cols);

  /// Builds a table from explicit cell rows; every row must have the same
  /// length ≥ 1. The first row is the attribute row (first cell = name).
  static Result<Table> FromRows(std::vector<SymbolVec> rows);

  /// Assembles a table directly from columnar parts: `data.size()` must
  /// equal `col_attrs.size()` and every column's size must equal
  /// `row_attrs.size()`. The cheap path for vectorized kernels.
  static Table FromColumns(Symbol name, SymbolVec col_attrs,
                           SymbolVec row_attrs, std::vector<Column> data);

  /// Convenience fixture builder: each cell is parsed with `ParseCell`
  /// ("#" → ⊥, "!x" → name x, else value). Aborts on ragged input — for
  /// tests and examples only.
  static Table Parse(std::initializer_list<std::initializer_list<const char*>> rows);

  // -- Dimensions -----------------------------------------------------------

  /// Paper height m: number of data rows.
  size_t height() const { return num_rows_ - 1; }
  /// Paper width n: number of data columns.
  size_t width() const { return num_cols_ - 1; }
  /// Physical rows = height() + 1.
  size_t num_rows() const { return num_rows_; }
  /// Physical columns = width() + 1.
  size_t num_cols() const { return num_cols_; }

  // -- Cell access (physical indices) ---------------------------------------

  Symbol at(size_t i, size_t j) const {
    if (i == 0) return j == 0 ? name_ : col_attrs_[j - 1];
    if (j == 0) return row_attrs_[i - 1];
    return data_[j - 1].Get(i - 1);
  }
  void set(size_t i, size_t j, Symbol s) {
    if (i == 0) {
      (j == 0 ? name_ : col_attrs_[j - 1]) = s;
    } else if (j == 0) {
      row_attrs_.Mutable()[i - 1] = s;
    } else {
      data_[j - 1].Set(i - 1, s);
    }
  }

  /// τ⁰₀, the table name.
  Symbol name() const { return name_; }
  void set_name(Symbol s) { name_ = s; }

  /// τ⁰_j for 1 ≤ j ≤ width().
  Symbol ColumnAttribute(size_t j) const { return col_attrs_[j - 1]; }
  /// τ_i⁰ for 1 ≤ i ≤ height().
  Symbol RowAttribute(size_t i) const { return row_attrs_[i - 1]; }
  /// τ_i^j data entry for i, j ≥ 1.
  Symbol Data(size_t i, size_t j) const { return data_[j - 1].Get(i - 1); }

  /// The attribute row τ⁰_{>0} (without the name), in column order.
  SymbolVec ColumnAttributes() const { return col_attrs_; }
  /// The attribute column τ_{>0}⁰ (without the name), in row order.
  SymbolVec RowAttributes() const { return row_attrs_.get(); }

  /// Physical row `i` as a vector of `num_cols()` symbols.
  SymbolVec Row(size_t i) const;
  /// Physical column `j` as a vector of `num_rows()` symbols.
  SymbolVec Column(size_t j) const;

  // -- Columnar access (vectorized-kernel API) ------------------------------

  /// Data column of physical column `j`, 1 ≤ j ≤ width(); cell `i - 1` of
  /// the column is physical cell (i, j).
  const core::Column& DataColumn(size_t j) const { return data_[j - 1]; }
  core::Column& MutableDataColumn(size_t j) { return data_[j - 1]; }
  /// The attribute vectors as flat arrays (entry i ↔ physical index i + 1).
  /// Copies of a table share one row-attribute vector; `MutableRowAttrs`
  /// detaches it first if another table still holds it, and its reference
  /// is for writing only until the table is next copied.
  const SymbolVec& RowAttrs() const { return row_attrs_.get(); }
  const SymbolVec& ColAttrs() const { return col_attrs_; }
  SymbolVec& MutableRowAttrs() { return row_attrs_.Mutable(); }
  SymbolVec& MutableColAttrs() { return col_attrs_; }
  /// Materializes every chunk of every data column (see Column::Set for
  /// when parallel writers need this).
  void MaterializeAll() {
    for (core::Column& c : data_) c.Materialize();
  }

  /// This table restricted to the physical data columns `cols` (each
  /// 1 ≤ j ≤ width(), in the given order), with the same name and rows.
  /// The kept columns' chunks and the row attributes are shared, not
  /// copied: O(chunks kept), no cell touched.
  Table WithColumns(const std::vector<size_t>& cols) const;

  // -- Structural edits -----------------------------------------------------

  /// Appends a physical row; `row.size()` must equal `num_cols()`.
  void AppendRow(const SymbolVec& row);
  /// Appends a physical column; `col.size()` must equal `num_rows()`.
  /// O(num_rows), unlike the row-major layout's full rebuild.
  void AppendColumn(const SymbolVec& col);

  // -- Attribute-based access (paper §2 terminology) -------------------------

  /// Physical indices j ≥ 1 of columns whose attribute equals `attr`.
  std::vector<size_t> ColumnsNamed(Symbol attr) const;
  /// Physical indices i ≥ 1 of rows whose attribute equals `attr`.
  std::vector<size_t> RowsNamed(Symbol attr) const;

  /// ρ_i(a): the *set* of data entries of row `i` appearing in columns
  /// named `a` (paper §2). ⊥ entries are included; use with the weak
  /// containment helpers, which ignore ⊥.
  SymbolSet RowEntries(size_t i, Symbol attr) const;
  /// Column dual of `RowEntries`.
  SymbolSet ColumnEntries(size_t j, Symbol attr) const;

  /// All symbols occurring anywhere in the table.
  SymbolSet AllSymbols() const;

  /// True if some data row exists (used by the `while R ≠ ∅` construct).
  bool HasDataRows() const { return height() > 0; }

  // -- Comparisons -----------------------------------------------------------

  /// Exact cell-wise equality (same dimensions, same symbols).
  friend bool operator==(const Table& a, const Table& b);

  /// Row subsumption ρ_i ⊑ σ_k (paper §2): for every column attribute `a`
  /// of either table, ρ_i(a) is weakly contained in σ_k(a).
  static bool RowSubsumed(const Table& rho, size_t i, const Table& sigma,
                          size_t k);
  /// Mutual subsumption ρ_i ≈ σ_k.
  static bool RowsSubsumeEachOther(const Table& rho, size_t i,
                                   const Table& sigma, size_t k);
  /// Column duals.
  static bool ColumnSubsumed(const Table& rho, size_t j, const Table& sigma,
                             size_t l);
  static bool ColumnsSubsumeEachOther(const Table& rho, size_t j,
                                      const Table& sigma, size_t l);

  /// Matrix transpose (rows become columns); the name cell stays in place.
  Table Transposed() const;

  /// Debug rendering: an aligned grid (see io::PrettyPrint for the
  /// figure-style renderer).
  std::string ToString() const;

 private:
  /// A symbol vector shared between copies the way column chunks are: a
  /// copy takes a reference, and `Mutable` detaches a vector another holder
  /// still references before handing it out. No buffer means empty.
  class SharedSymbols {
   public:
    SharedSymbols() = default;
    explicit SharedSymbols(SymbolVec v);
    SharedSymbols(const SharedSymbols& other) : buf_(other.buf_) {
      if (buf_ != nullptr) buf_->Ref();
    }
    SharedSymbols(SharedSymbols&& other) noexcept
        : buf_(std::exchange(other.buf_, nullptr)) {}
    SharedSymbols& operator=(SharedSymbols other) noexcept {
      std::swap(buf_, other.buf_);
      return *this;
    }
    ~SharedSymbols();

    const SymbolVec& get() const { return buf_ == nullptr ? kEmpty : buf_->v; }
    /// Entry `i` (< get().size()).
    Symbol operator[](size_t i) const { return buf_->v[i]; }
    SymbolVec& Mutable() {
      if (buf_ == nullptr || !buf_->SoleOwner()) Detach();
      return buf_->v;
    }

   private:
    struct Buf : internal::SharedCount {
      SymbolVec v;
    };
    /// Replaces the buffer with a copy this holder owns alone.
    void Detach();
    static const SymbolVec kEmpty;
    Buf* buf_ = nullptr;
  };

  size_t num_rows_;
  size_t num_cols_;
  Symbol name_;
  SharedSymbols row_attrs_;         // height() entries.
  SymbolVec col_attrs_;             // width() entries.
  std::vector<core::Column> data_;  // width() columns of height() cells.
};

}  // namespace tabular::core

#endif  // TABULAR_CORE_TABLE_H_
