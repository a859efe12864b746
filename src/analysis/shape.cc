#include "analysis/shape.h"

#include <utility>

namespace tabular::analysis {

using core::Symbol;
using core::SymbolSet;
using core::Table;
using core::TabularDatabase;

void AttrSet::Join(const AttrSet& o) {
  if (top) return;
  if (o.top) {
    top = true;
    elems.clear();
    return;
  }
  elems.insert(o.elems.begin(), o.elems.end());
}

bool AttrSet::SubsetOf(const AttrSet& o) const {
  if (o.top) return true;
  if (top) return false;
  for (Symbol s : elems) {
    if (!o.elems.contains(s)) return false;
  }
  return true;
}

std::string AttrSet::ToString() const {
  if (top) return "⊤";
  std::string out = "{";
  bool first = true;
  for (Symbol s : elems) {
    if (!first) out += ", ";
    first = false;
    out += s.ToString();
  }
  out += "}";
  return out;
}

void MustSet::Join(const MustSet& o) {
  std::erase_if(elems, [&](Symbol s) { return !o.elems.contains(s); });
}

bool MustSet::Covers(const MustSet& o) const {
  for (Symbol s : o.elems) {
    if (!elems.contains(s)) return false;
  }
  return true;
}

std::string MustSet::ToString() const {
  if (elems.empty()) return "∅";
  std::string out = "{";
  bool first = true;
  for (Symbol s : elems) {
    if (!first) out += ", ";
    first = false;
    out += s.ToString();
  }
  out += "}";
  return out;
}

uint64_t CardInterval::SatAdd(uint64_t a, uint64_t b) {
  if (a == kInf || b == kInf) return kInf;
  // `a >= kInf - b` (not `>`) so a sum landing *exactly* on the sentinel
  // saturates too: 2^64-1 is indistinguishable from ∞ in this encoding and
  // must never masquerade as an exact finite count.
  return a >= kInf - b ? kInf : a + b;
}

uint64_t CardInterval::SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kInf || b == kInf) return kInf;
  // Saturate when a·b ≥ kInf, i.e. a > ⌊(kInf-1)/b⌋ — this catches both
  // true overflow and an exact landing on the sentinel (kInf is composite:
  // e.g. 3 · 6148914691236517205 == 2^64-1).
  return a > (kInf - 1) / b ? kInf : a * b;
}

namespace {

/// Lower bounds never carry the ∞ sentinel (struct invariant): a saturated
/// lower bound clamps to the largest representable finite count.
uint64_t ClampLo(uint64_t lo) {
  return lo == CardInterval::kInf ? CardInterval::kInf - 1 : lo;
}

}  // namespace

void CardInterval::Join(const CardInterval& o) {
  lo = o.lo < lo ? o.lo : lo;
  hi = o.hi > hi ? o.hi : hi;
}

void CardInterval::Widen(const CardInterval& o) {
  if (o.lo < lo) lo = 0;
  if (o.hi > hi) hi = kInf;
}

CardInterval CardInterval::Plus(const CardInterval& o) const {
  return CardInterval{ClampLo(SatAdd(lo, o.lo)), SatAdd(hi, o.hi)};
}

CardInterval CardInterval::Times(const CardInterval& o) const {
  return CardInterval{ClampLo(SatMul(lo, o.lo)), SatMul(hi, o.hi)};
}

CardInterval CardInterval::PlusConst(uint64_t n) const {
  return CardInterval{ClampLo(SatAdd(lo, n)), SatAdd(hi, n)};
}

std::string CardInterval::ToString() const {
  // Built with += on a constructed string: GCC 12's -Wrestrict
  // false-positives on `"lit" + std::to_string(n)` and on literal
  // assignment through _M_replace (PR105651).
  if (lo == hi) {
    std::string out("=");
    out += std::to_string(lo);
    return out;
  }
  std::string out("[");
  out += std::to_string(lo);
  out += ",";
  if (hi == kInf) {
    out += "∞)";
  } else {
    out += std::to_string(hi);
    out += "]";
  }
  return out;
}

void TableShape::Join(const TableShape& o, bool widen) {
  cols.Join(o.cols);
  rows.Join(o.rows);
  certain = certain && o.certain;
  must_cols.Join(o.must_cols);
  must_rows.Join(o.must_rows);
  if (widen) {
    row_card.Widen(o.row_card);
    col_card.Widen(o.col_card);
    count.Widen(o.count);
  } else {
    row_card.Join(o.row_card);
    col_card.Join(o.col_card);
    count.Join(o.count);
  }
}

std::string TableShape::ToString() const {
  std::string out = "cols=" + cols.ToString() + " rows=" + rows.ToString();
  if (!must_cols.IsTop()) out += " must_cols=" + must_cols.ToString();
  if (!must_rows.IsTop()) out += " must_rows=" + must_rows.ToString();
  if (!row_card.IsTop()) out += " #rows" + row_card.ToString();
  if (!col_card.IsTop()) out += " #cols" + col_card.ToString();
  if (!count.IsTop()) out += " #tables" + count.ToString();
  return out;
}

AbstractDatabase AbstractDatabase::FromDatabase(const TabularDatabase& db) {
  AbstractDatabase out;
  for (size_t k = 0; k < db.size(); ++k) {
    const Table& t = db.tables()[k];
    SymbolSet cols(t.ColAttrs().begin(), t.ColAttrs().end());
    // Memoized per stored table: O(#distinct row attributes), not O(rows),
    // after the table's first use by any copy of the database.
    const SymbolSet& rows = db.RowAttributeSet(k);
    TableShape shape;
    shape.cols = AttrSet::Of(cols);
    shape.rows = AttrSet::Of(rows);
    shape.certain = true;
    shape.must_cols = MustSet::Of(std::move(cols));
    shape.must_rows = MustSet::Of(rows);
    shape.row_card = CardInterval::Exact(t.height());
    shape.col_card = CardInterval::Exact(t.width());
    shape.count = CardInterval::Exact(1);
    auto [it, inserted] = out.tables.emplace(t.name(), shape);
    if (!inserted) {
      // Same-named tables: join the per-table facts (existence stays
      // certain), count the extra carrier exactly.
      CardInterval count = it->second.count;
      it->second.Join(shape);
      it->second.certain = true;
      it->second.count = count.PlusConst(1);
    }
  }
  return out;
}

const TableShape* AbstractDatabase::Find(Symbol name) const {
  auto it = tables.find(name);
  return it == tables.end() ? nullptr : &it->second;
}

TableShape AbstractDatabase::ShapeOf(Symbol name) const {
  const TableShape* s = Find(name);
  if (s != nullptr) return *s;
  if (top) return TableShape::Top(/*certain=*/false);
  // Provably absent: the empty pool. Per-table facts hold vacuously; the
  // only informative component is the carrier count.
  TableShape none;
  none.cols = AttrSet::Of({});
  none.rows = AttrSet::Of({});
  none.count = CardInterval::Exact(0);
  return none;
}

void AbstractDatabase::Join(const AbstractDatabase& o, bool widen) {
  top = top || o.top;
  for (auto& [name, shape] : tables) {
    const TableShape* other = o.Find(name);
    if (other != nullptr) {
      shape.Join(*other, widen);
    } else if (o.top) {
      TableShape t = TableShape::Top(false);
      shape.Join(t, widen);
    } else {
      // Absent on the other path: zero carriers there.
      shape.certain = false;
      CardInterval none = CardInterval::Exact(0);
      if (widen) {
        shape.count.Widen(none);
      } else {
        shape.count.Join(none);
      }
    }
  }
  for (const auto& [name, shape] : o.tables) {
    if (tables.contains(name)) continue;
    TableShape joined;
    if (top) {
      // This side may hold the name with an arbitrary shape.
      joined = TableShape::Top(false);
      joined.Join(shape, widen);
    } else {
      joined = shape;
      joined.count.Join(CardInterval::Exact(0));
    }
    joined.certain = false;
    tables.emplace(name, std::move(joined));
  }
}

void AbstractDatabase::WildcardWrite() {
  top = true;
  for (auto& [name, shape] : tables) {
    // Replacement semantics never removes a name, so existence survives;
    // every other fact is lost.
    shape = TableShape::Top(shape.certain);
  }
}

std::string AbstractDatabase::ToString() const {
  std::string out;
  if (top) out += "⊤\n";
  for (const auto& [name, shape] : tables) {
    out += name.ToString() + (shape.certain ? "" : "?") + ": " +
           shape.ToString() + "\n";
  }
  return out;
}

}  // namespace tabular::analysis
