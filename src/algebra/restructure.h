#ifndef TABULAR_ALGEBRA_RESTRUCTURE_H_
#define TABULAR_ALGEBRA_RESTRUCTURE_H_

#include <vector>

#include "algebra/output_size.h"
#include "core/status.h"
#include "core/symbol.h"
#include "core/table.h"

namespace tabular::algebra {

using tabular::Result;
using core::Symbol;
using core::SymbolVec;
using core::Table;

/// The four restructuring operations of paper §3.2: grouping, merging,
/// splitting, collapsing. Grouping/merging and splitting/collapsing are
/// inverses of each other up to redundancy removal (§3.4).
///
/// Attribute parameters are ordered vectors (`SymbolVec`) — the order fixes
/// the layout of the result deterministically; the paper treats them as
/// sets.

/// `T <- GROUP by 𝒜 on ℬ (R)` — the §3.2 example is
/// `Sales <- GROUP by Region on Sold (Sales)` (Figure 4).
///
/// The result keeps the columns whose attribute is in neither 𝒜 nor ℬ,
/// followed by one copy of the ℬ-column block per input data row. One
/// leading data row per a ∈ 𝒜 carries `a` as its row attribute and, under
/// input row i's ℬ-block, row i's a-entry. Each input data row i then
/// contributes one sparse row holding its kept entries and its ℬ-entries
/// inside block i (⊥ elsewhere).
///
/// paper-gap: for |𝒜| > 1 the a-entry placed in the leading row is the one
/// at the first column named `a`; for |ℬ| > 1 blocks replicate the full
/// ℬ-column list in original column order.
///
/// Errors: InvalidArgument if 𝒜 and ℬ overlap, either is empty, or some
/// a ∈ 𝒜 labels no column.
Result<Table> Group(const Table& rho, const SymbolVec& by_attrs,
                    const SymbolVec& on_attrs, Symbol result_name);

/// The size of `Group(rho, by_attrs, on_attrs, ·)`'s output, by the
/// kernel's own formula: |𝒜| + m rows and k + m·b columns, for m data
/// rows, k kept columns and b ℬ-columns. 0 rows when the call is invalid
/// (the kernel reports why).
OutputSize GroupOutputSize(const Table& rho, const SymbolVec& by_attrs,
                           const SymbolVec& on_attrs);

/// `T <- MERGE on ℬ by 𝒜 (R)` — the §3.2 example is
/// `Sales <- MERGE on Sold by Region (Sales)` (Figure 5).
///
/// The columns named in ℬ are grouped into blocks (the k-th occurrence of
/// each ℬ-attribute forms block k; missing occurrences read as ⊥). The data
/// rows whose row attribute lies in 𝒜 are consumed: they supply, per block,
/// the values of the new 𝒜-columns (read at the block's first present
/// column). Every other data row i emits one output tuple per block:
/// kept entries ++ 𝒜-values ++ row i's ℬ-entries in that block.
///
/// paper-gap: if several rows share a row attribute a ∈ 𝒜, one output tuple
/// is emitted per combination (cross product of the 𝒜-row choices).
Result<Table> Merge(const Table& rho, const SymbolVec& on_attrs,
                    const SymbolVec& by_attrs, Symbol result_name);

/// The size of `Merge(rho, on_attrs, by_attrs, ·)`'s output, by the
/// kernel's own formula: s·nblocks·ncombos rows and k + |𝒜| + |ℬ| columns,
/// for s surviving (non-𝒜) data rows and k kept columns. Finding the
/// 𝒜-rows scans the row attributes once per 𝒜-attribute. 0 rows when the
/// call is invalid (the kernel reports why).
OutputSize MergeOutputSize(const Table& rho, const SymbolVec& on_attrs,
                           const SymbolVec& by_attrs);

/// `T <- SPLIT on 𝒜 (R)` — §3.2's example `Sales <- SPLIT on Region`.
///
/// Produces one table (all named `result_name`) per distinct combination of
/// 𝒜-entries among the data rows, in first-appearance order. Each table
/// drops the 𝒜-columns, starts with one row per a ∈ 𝒜 whose row attribute
/// is the *name* `a` and whose every data cell is the combination's
/// a-value, and then lists the matching data rows (projected, row
/// attributes preserved).
///
/// paper-gap: the a-entry defining a row's combination is read at the first
/// column named `a`.
Result<std::vector<Table>> Split(const Table& rho, const SymbolVec& attrs,
                                 Symbol result_name);

/// `T <- COLLAPSE by 𝒜 (R)` — inverse of splitting (§3.2): every input
/// table is first merged on *all of its column attributes* by 𝒜, and the
/// tabular union of the results is taken (yielding the paper's
/// "uneconomical" representation, compactable via §3.4).
Result<Table> Collapse(const std::vector<Table>& tables,
                       const SymbolVec& attrs, Symbol result_name);

}  // namespace tabular::algebra

#endif  // TABULAR_ALGEBRA_RESTRUCTURE_H_
