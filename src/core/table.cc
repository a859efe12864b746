#include "core/table.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <sstream>
#include <utility>

namespace tabular::core {

// -- Column ------------------------------------------------------------------

namespace {

/// Retired chunks a thread keeps for reuse. Kernels build and destroy many
/// short-lived tables — Group/CleanUp churn thousands of small shard tables,
/// and bench/REPL loops retire multi-gigacell results between calls;
/// recycling the 16 KiB chunks turns the per-chunk malloc/free pair (plus
/// the page churn glibc's trim causes at this allocation rate) into a
/// pop/push. Capped at 8192 chunks = 128 MiB per thread, enough to recycle
/// a 3-column × 10M-row result table between kernel invocations.
constexpr size_t kChunkFreelistCap = 8192;

}  // namespace

thread_local std::vector<std::unique_ptr<Column::Chunk>> Column::freelist_;

Column::Chunk* Column::NewChunk() {
  if (!freelist_.empty()) {
    Chunk* ch = freelist_.back().release();
    freelist_.pop_back();
    ch->refs.store(1, std::memory_order_relaxed);
    return ch;
  }
  return new Chunk();
}

void Column::Unref(Chunk* ch) {
  if (!ch->Unref()) return;
  std::unique_ptr<Chunk> owned(ch);
  // The chunk goes to the freelist of the thread that drops its last
  // reference, whichever thread allocated it.
  if (freelist_.size() < kChunkFreelistCap) {
    freelist_.push_back(std::move(owned));
  }
}

Column::Column(const Column& other)
    : size_(other.size_), chunk0_(other.chunk0_), rest_(other.rest_) {
  if (chunk0_ != nullptr) chunk0_->Ref();
  for (Chunk* ch : rest_) {
    if (ch != nullptr) ch->Ref();
  }
}

Column::Column(Column&& other) noexcept
    : size_(std::exchange(other.size_, 0)),
      chunk0_(std::exchange(other.chunk0_, nullptr)),
      rest_(std::exchange(other.rest_, {})) {}

Column& Column::operator=(Column other) noexcept {
  std::swap(size_, other.size_);
  std::swap(chunk0_, other.chunk0_);
  std::swap(rest_, other.rest_);
  return *this;
}

Column::~Column() {
  if (chunk0_ != nullptr) Unref(chunk0_);
  for (Chunk* ch : rest_) {
    if (ch != nullptr) Unref(ch);
  }
}

Column::Chunk* Column::WritableChunk(size_t c, size_t len) {
  Chunk*& slot = Slot(c);
  Chunk* fresh = NewChunk();
  if (slot == nullptr) {
    std::fill_n(fresh->cells, len, Symbol::Null());
  } else {
    std::copy_n(slot->cells, len, fresh->cells);
    Unref(slot);
  }
  slot = fresh;
  return fresh;
}

Symbol* Column::WritableTail() {
  const size_t c = size_ >> kChunkBits;
  Chunk* ch = ChunkAt(c);
  if (ch == nullptr || !ch->SoleOwner()) {
    ch = WritableChunk(c, size_ & kChunkMask);
  }
  return ch->cells;
}

void Column::ResizeNull(size_t n) {
  if (n >= size_) {
    AppendNulls(n - size_);
    return;
  }
  size_ = n;
  // Drop the chunks past the new span; the new tail's cells past its span
  // become unspecified, so it is not written (nor detached).
  const size_t want = num_chunks();
  const size_t keep_rest = want > 1 ? want - 1 : 0;
  for (size_t k = keep_rest; k < rest_.size(); ++k) {
    if (rest_[k] != nullptr) Unref(rest_[k]);
  }
  if (rest_.size() > keep_rest) rest_.resize(keep_rest);
  if (want == 0 && chunk0_ != nullptr) {
    Unref(chunk0_);
    chunk0_ = nullptr;
  }
}

void Column::Append(Symbol s) {
  if (s.is_null()) {
    AppendNulls(1);  // Keeps lazy tails lazy.
    return;
  }
  WritableTail()[size_ & kChunkMask] = s;
  ++size_;
}

void Column::AppendNulls(size_t n) {
  // Only the tail chunk can be materialized past the span: it gets its new
  // cells ⊥-filled. Lazy or absent chunks just extend the span.
  const size_t off = size_ & kChunkMask;
  if (off != 0 && n > 0 && ChunkAt(size_ >> kChunkBits) != nullptr) {
    std::fill_n(WritableTail() + off, std::min(n, kChunkSize - off),
                Symbol::Null());
  }
  size_ += n;
}

void Column::AppendFill(Symbol v, size_t n) {
  if (v.is_null()) {
    AppendNulls(n);
    return;
  }
  while (n > 0) {
    const size_t off = size_ & kChunkMask;
    const size_t take = std::min(n, kChunkSize - off);
    std::fill_n(WritableTail() + off, take, v);
    size_ += take;
    n -= take;
  }
}

void Column::AppendSpan(const Symbol* p, size_t n) {
  while (n > 0) {
    const size_t off = size_ & kChunkMask;
    const size_t put = std::min(n, kChunkSize - off);
    std::copy_n(p, put, WritableTail() + off);
    size_ += put;
    p += put;
    n -= put;
  }
}

void Column::AppendRange(const Column& src, size_t begin, size_t n) {
  while (n > 0) {
    const size_t c = begin >> kChunkBits;
    const size_t off = begin & kChunkMask;
    const size_t len = src.ChunkLen(c);
    const size_t take = std::min(n, len - off);
    Chunk* ch = src.ChunkAt(c);
    if (ch == nullptr) {
      AppendNulls(take);
    } else if (off == 0 && take == len && (size_ & kChunkMask) == 0) {
      // The whole chunk lands on a chunk boundary: share it.
      Chunk*& slot = Slot(size_ >> kChunkBits);
      assert(slot == nullptr);
      ch->Ref();
      slot = ch;
      size_ += take;
    } else {
      AppendSpan(ch->cells + off, take);
    }
    begin += take;
    n -= take;
  }
}

void Column::AppendGather(const Column& src, const std::vector<size_t>& rows) {
  for (size_t r : rows) Append(src.Get(r));
}

bool operator==(const Column& a, const Column& b) {
  if (a.size_ != b.size_) return false;
  for (size_t c = 0; c < a.num_chunks(); ++c) {
    const Symbol* pa = a.ChunkData(c);
    const Symbol* pb = b.ChunkData(c);
    if (pa == pb) continue;  // Both lazy, or one shared chunk.
    const size_t len = a.ChunkLen(c);
    if (pa == nullptr || pb == nullptr) {
      const Symbol* p = pa == nullptr ? pb : pa;
      for (size_t i = 0; i < len; ++i) {
        if (!p[i].is_null()) return false;
      }
      continue;
    }
    if (!std::equal(pa, pa + len, pb)) return false;
  }
  return true;
}

// -- Table -------------------------------------------------------------------

const SymbolVec Table::SharedSymbols::kEmpty;

Table::SharedSymbols::SharedSymbols(SymbolVec v) {
  if (v.empty()) return;
  buf_ = new Buf;
  buf_->v = std::move(v);
}

Table::SharedSymbols::~SharedSymbols() {
  if (buf_ != nullptr && buf_->Unref()) delete buf_;
}

void Table::SharedSymbols::Detach() {
  Buf* fresh = new Buf;
  if (buf_ != nullptr) {
    fresh->v = buf_->v;
    if (buf_->Unref()) delete buf_;
  }
  buf_ = fresh;
}

Table::Table() : Table(1, 1) {}

Table::Table(size_t num_rows, size_t num_cols)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      row_attrs_(SymbolVec(num_rows - 1)),
      col_attrs_(num_cols - 1),
      data_(num_cols - 1, core::Column(num_rows - 1)) {
  assert(num_rows >= 1 && num_cols >= 1);
}

Result<Table> Table::FromRows(std::vector<SymbolVec> rows) {
  if (rows.empty() || rows[0].empty()) {
    return Status::InvalidArgument("table needs at least the name cell");
  }
  const size_t cols = rows[0].size();
  for (const SymbolVec& r : rows) {
    if (r.size() != cols) {
      return Status::InvalidArgument("ragged rows: expected " +
                                     std::to_string(cols) + " cells, got " +
                                     std::to_string(r.size()));
    }
  }
  Table t(1, cols);
  t.set_name(rows[0][0]);
  for (size_t j = 1; j < cols; ++j) t.col_attrs_[j - 1] = rows[0][j];
  for (size_t i = 1; i < rows.size(); ++i) t.AppendRow(rows[i]);
  return t;
}

Table Table::FromColumns(Symbol name, SymbolVec col_attrs,
                         SymbolVec row_attrs, std::vector<core::Column> data) {
  assert(data.size() == col_attrs.size());
#ifndef NDEBUG
  for (const core::Column& c : data) assert(c.size() == row_attrs.size());
#endif
  Table t;
  t.num_rows_ = 1 + row_attrs.size();
  t.num_cols_ = 1 + col_attrs.size();
  t.name_ = name;
  t.row_attrs_ = SharedSymbols(std::move(row_attrs));
  t.col_attrs_ = std::move(col_attrs);
  t.data_ = std::move(data);
  return t;
}

Table Table::Parse(
    std::initializer_list<std::initializer_list<const char*>> rows) {
  std::vector<SymbolVec> parsed;
  parsed.reserve(rows.size());
  for (const auto& row : rows) {
    SymbolVec cells;
    cells.reserve(row.size());
    for (const char* cell : row) cells.push_back(ParseCell(cell));
    parsed.push_back(std::move(cells));
  }
  Result<Table> t = FromRows(std::move(parsed));
  assert(t.ok() && "Table::Parse fixture is ragged");
  return std::move(t).value();
}

SymbolVec Table::Row(size_t i) const {
  SymbolVec out;
  out.reserve(num_cols_);
  for (size_t j = 0; j < num_cols_; ++j) out.push_back(at(i, j));
  return out;
}

SymbolVec Table::Column(size_t j) const {
  SymbolVec out;
  out.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) out.push_back(at(i, j));
  return out;
}

Table Table::WithColumns(const std::vector<size_t>& cols) const {
  Table out;
  out.num_rows_ = num_rows_;
  out.num_cols_ = 1 + cols.size();
  out.name_ = name_;
  out.row_attrs_ = row_attrs_;
  out.col_attrs_.reserve(cols.size());
  out.data_.reserve(cols.size());
  for (size_t j : cols) {
    out.col_attrs_.push_back(col_attrs_[j - 1]);
    out.data_.push_back(data_[j - 1]);
  }
  return out;
}

void Table::AppendRow(const SymbolVec& row) {
  assert(row.size() == num_cols_);
  row_attrs_.Mutable().push_back(row[0]);
  for (size_t j = 1; j < num_cols_; ++j) data_[j - 1].Append(row[j]);
  ++num_rows_;
}

void Table::AppendColumn(const SymbolVec& col) {
  assert(col.size() == num_rows_);
  col_attrs_.push_back(col[0]);
  data_.emplace_back();
  core::Column& c = data_.back();
  for (size_t i = 1; i < num_rows_; ++i) c.Append(col[i]);
  ++num_cols_;
}

std::vector<size_t> Table::ColumnsNamed(Symbol attr) const {
  std::vector<size_t> out;
  for (size_t j = 1; j < num_cols_; ++j) {
    if (col_attrs_[j - 1] == attr) out.push_back(j);
  }
  return out;
}

std::vector<size_t> Table::RowsNamed(Symbol attr) const {
  std::vector<size_t> out;
  for (size_t i = 1; i < num_rows_; ++i) {
    if (row_attrs_[i - 1] == attr) out.push_back(i);
  }
  return out;
}

SymbolSet Table::RowEntries(size_t i, Symbol attr) const {
  SymbolSet out;
  for (size_t j = 1; j < num_cols_; ++j) {
    if (col_attrs_[j - 1] == attr) out.insert(at(i, j));
  }
  return out;
}

SymbolSet Table::ColumnEntries(size_t j, Symbol attr) const {
  SymbolSet out;
  for (size_t i = 1; i < num_rows_; ++i) {
    if (row_attrs_[i - 1] == attr) out.insert(at(i, j));
  }
  return out;
}

SymbolSet Table::AllSymbols() const {
  SymbolSet out;
  out.insert(name_);
  out.insert(RowAttrs().begin(), RowAttrs().end());
  out.insert(col_attrs_.begin(), col_attrs_.end());
  for (const core::Column& col : data_) {
    for (size_t c = 0; c < col.num_chunks(); ++c) {
      const Symbol* p = col.ChunkData(c);
      if (p == nullptr) {
        out.insert(Symbol::Null());
        continue;
      }
      out.insert(p, p + col.ChunkLen(c));
    }
  }
  return out;
}

bool operator==(const Table& a, const Table& b) {
  return a.num_rows_ == b.num_rows_ && a.num_cols_ == b.num_cols_ &&
         a.name_ == b.name_ && a.RowAttrs() == b.RowAttrs() &&
         a.col_attrs_ == b.col_attrs_ && a.data_ == b.data_;
}

namespace {

/// Collects the distinct column attributes of both tables.
SymbolSet JointColumnAttributes(const Table& rho, const Table& sigma) {
  SymbolSet attrs;
  for (size_t j = 1; j < rho.num_cols(); ++j) attrs.insert(rho.at(0, j));
  for (size_t j = 1; j < sigma.num_cols(); ++j) attrs.insert(sigma.at(0, j));
  return attrs;
}

}  // namespace

bool Table::RowSubsumed(const Table& rho, size_t i, const Table& sigma,
                        size_t k) {
  for (Symbol a : JointColumnAttributes(rho, sigma)) {
    if (!WeaklyContained(rho.RowEntries(i, a), sigma.RowEntries(k, a))) {
      return false;
    }
  }
  return true;
}

bool Table::RowsSubsumeEachOther(const Table& rho, size_t i,
                                 const Table& sigma, size_t k) {
  return RowSubsumed(rho, i, sigma, k) && RowSubsumed(sigma, k, rho, i);
}

bool Table::ColumnSubsumed(const Table& rho, size_t j, const Table& sigma,
                           size_t l) {
  return RowSubsumed(rho.Transposed(), j, sigma.Transposed(), l);
}

bool Table::ColumnsSubsumeEachOther(const Table& rho, size_t j,
                                    const Table& sigma, size_t l) {
  return ColumnSubsumed(rho, j, sigma, l) && ColumnSubsumed(sigma, l, rho, j);
}

Table Table::Transposed() const {
  Table out(num_cols_, num_rows_);
  out.name_ = name_;
  out.row_attrs_ = SharedSymbols(col_attrs_);
  out.col_attrs_ = RowAttrs();
  // Tile the data transpose so both the source column reads and the
  // destination column writes stay within one chunk per tile row.
  constexpr size_t kTile = 64;
  const size_t h = height();
  const size_t w = width();
  for (size_t jb = 0; jb < w; jb += kTile) {
    const size_t je = std::min(w, jb + kTile);
    for (size_t ib = 0; ib < h; ib += kTile) {
      const size_t ie = std::min(h, ib + kTile);
      for (size_t j = jb; j < je; ++j) {
        const core::Column& src = data_[j];
        for (size_t i = ib; i < ie; ++i) {
          Symbol s = src.Get(i);
          if (!s.is_null()) out.data_[i].Set(j, s);
        }
      }
    }
  }
  return out;
}

std::string Table::ToString() const {
  std::vector<size_t> col_width(num_cols_, 1);
  for (size_t j = 0; j < num_cols_; ++j) {
    for (size_t i = 0; i < num_rows_; ++i) {
      // ⊥ renders as a single display glyph but is 3 bytes in UTF-8; track
      // display width.
      size_t w = at(i, j).is_null() ? 1 : at(i, j).text().size();
      col_width[j] = std::max(col_width[j], w);
    }
  }
  std::ostringstream out;
  for (size_t i = 0; i < num_rows_; ++i) {
    for (size_t j = 0; j < num_cols_; ++j) {
      Symbol s = at(i, j);
      std::string cell = s.is_null() ? "⊥" : s.text();
      size_t display = s.is_null() ? 1 : cell.size();
      out << (j == 0 ? "| " : " ") << cell
          << std::string(col_width[j] - display, ' ') << (j + 1 == num_cols_ ? " |" : " |");
    }
    out << '\n';
    if (i == 0) {
      for (size_t j = 0; j < num_cols_; ++j) {
        out << '+' << std::string(col_width[j] + 2, '-');
      }
      out << "+\n";
    }
  }
  return out.str();
}

}  // namespace tabular::core
