#ifndef TABULAR_CORE_DATABASE_H_
#define TABULAR_CORE_DATABASE_H_

#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <mutex>
#include <vector>

#include "core/symbol.h"
#include "core/table.h"

namespace tabular::core {

/// A tabular database: a finite collection of tables (paper §2).
///
/// Several tables may carry the *same* name — Figure 1's `SalesInfo4` holds
/// one `Sales` table per region — so this is a multiset keyed by table name,
/// stored in insertion order. A *scheme* for a database is any finite name
/// set containing all of its table names.
///
/// Tables are immutable once added: TA statements build fresh tables and
/// replace the carriers of their target name (§3.6), never edit one in
/// place. Each table is therefore stored once, behind a shared pointer, and
/// a copy of the database shares every table with the original — copying
/// costs O(#tables), and `Add`/`RemoveNamed` on either side touch only its
/// own table list (DESIGN.md §11).
class TabularDatabase {
  /// One stored table plus facts derived from it on first use. The table
  /// never changes after `Add`, so the memo is computed at most once (under
  /// `row_attrs_once`) and then shared by every copy holding the entry.
  struct Entry {
    explicit Entry(Table t) : table(std::move(t)) {}
    const Table table;
    mutable std::once_flag row_attrs_once;
    mutable SymbolSet row_attrs;
  };
  using Entries = std::vector<std::shared_ptr<const Entry>>;

 public:
  /// Random-access view of the tables in insertion order, as `const
  /// Table&`. References stay valid while the viewed database (or any copy
  /// sharing the table) holds the table, even across `Add`.
  class TableView {
   public:
    class iterator {
     public:
      using iterator_concept = std::random_access_iterator_tag;
      using iterator_category = std::random_access_iterator_tag;
      using value_type = Table;
      using difference_type = std::ptrdiff_t;
      using pointer = const Table*;
      using reference = const Table&;

      iterator() = default;
      reference operator*() const { return (*it_)->table; }
      pointer operator->() const { return &(*it_)->table; }
      reference operator[](difference_type n) const { return it_[n]->table; }
      iterator& operator++() { ++it_; return *this; }
      iterator operator++(int) { return iterator(it_++); }
      iterator& operator--() { --it_; return *this; }
      iterator operator--(int) { return iterator(it_--); }
      iterator& operator+=(difference_type n) { it_ += n; return *this; }
      iterator& operator-=(difference_type n) { it_ -= n; return *this; }
      friend iterator operator+(iterator i, difference_type n) {
        return i += n;
      }
      friend iterator operator+(difference_type n, iterator i) {
        return i += n;
      }
      friend iterator operator-(iterator i, difference_type n) {
        return i -= n;
      }
      friend difference_type operator-(const iterator& a, const iterator& b) {
        return a.it_ - b.it_;
      }
      friend bool operator==(const iterator&, const iterator&) = default;
      friend auto operator<=>(const iterator&, const iterator&) = default;

     private:
      friend class TableView;
      explicit iterator(Entries::const_iterator it) : it_(it) {}
      Entries::const_iterator it_;
    };

    iterator begin() const { return iterator(entries_->begin()); }
    iterator end() const { return iterator(entries_->end()); }
    size_t size() const { return entries_->size(); }
    bool empty() const { return entries_->empty(); }
    const Table& operator[](size_t i) const { return (*entries_)[i]->table; }

   private:
    friend class TabularDatabase;
    explicit TableView(const Entries* entries) : entries_(entries) {}
    const Entries* entries_;
  };

  TabularDatabase() = default;

  /// Adds a table (duplicates, including duplicate names, are allowed).
  void Add(Table table) {
    tables_.push_back(std::make_shared<const Entry>(std::move(table)));
  }

  /// All tables, in insertion order.
  TableView tables() const { return TableView(&tables_); }

  size_t size() const { return tables_.size(); }
  bool empty() const { return tables_.empty(); }

  /// The distinct row attributes of table `i` (its τ_{>0}⁰ as a set, ⊥
  /// included when some row attribute is ⊥). Scanned on the first call for
  /// that table — by any copy of the database — and memoized; safe to call
  /// concurrently.
  const SymbolSet& RowAttributeSet(size_t i) const;

  /// Indices of the tables named `name`, in insertion order.
  std::vector<size_t> IndicesNamed(Symbol name) const;

  /// Copies of the tables named `name`, in insertion order.
  std::vector<Table> Named(Symbol name) const;

  /// True if at least one table is named `name`.
  bool HasTableNamed(Symbol name) const;

  /// Removes every table named `name`; returns how many were removed.
  size_t RemoveNamed(Symbol name);

  /// The set of table names occurring in the database (the minimal scheme).
  SymbolSet TableNames() const;

  /// |D|: every symbol occurring anywhere in the database.
  SymbolSet AllSymbols() const;

  /// True if some table named `name` has at least one data row — the
  /// condition of the paper's `while R ≠ ∅` construct.
  bool NameHasDataRows(Symbol name) const;

 private:
  Entries tables_;
};

}  // namespace tabular::core

#endif  // TABULAR_CORE_DATABASE_H_
