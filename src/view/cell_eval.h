#ifndef VIEWREWRITE_VIEW_CELL_EVAL_H_
#define VIEWREWRITE_VIEW_CELL_EVAL_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/value.h"

namespace viewrewrite {

/// Per-cell predicate evaluation context: each view attribute's
/// representative value (categorical value, bucket midpoint, or NULL for
/// the padding cell) plus scalar parameter bindings from chained queries.
///
/// Column refs resolve one of two ways. By name through `attr_values`:
/// the brute-force oracle and the tests build one such context per cell.
/// By dimension slot: the synopsis answer kernel resolves every ref of a
/// WHERE to its dimension once (`ref_dims`) and then only repoints
/// `dim_values` while it evaluates a conjunct over its own dimensions.
struct CellContext {
  /// Keyed by qualified name ("t.col") with an unqualified fallback entry
  /// ("col") when unambiguous.
  std::map<std::string, Value> attr_values;
  std::map<std::string, Value> params;
  /// Ref -> dimension index; a ref found here reads dim_values[index].
  std::unordered_map<const ColumnRefExpr*, size_t> ref_dims;
  std::vector<const Value*> dim_values;
};

/// Evaluates a rewritten (subquery-free) predicate over a cell. Returns
/// SQL three-valued truth collapsed to bool (only TRUE counts the cell).
Result<bool> EvalCellPredicate(const Expr& e, const CellContext& ctx);

/// Evaluates a scalar expression over a cell (NULL-propagating).
Result<Value> EvalCellExpr(const Expr& e, const CellContext& ctx);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_VIEW_CELL_EVAL_H_
