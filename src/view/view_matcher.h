#ifndef VIEWREWRITE_VIEW_VIEW_MATCHER_H_
#define VIEWREWRITE_VIEW_VIEW_MATCHER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "view/view_def.h"

namespace viewrewrite {

/// Decides, per WHERE conjunct, whether the predicate becomes part of the
/// view definition (baked, evaluated at materialization) instead of a
/// cell-level filter. Pass nullptr to bake nothing. Shared by register-time
/// view generation (ViewManager) and serve-time matching (SynopsisStore).
using BakePredicate = std::function<bool(const Expr&)>;

/// A workload query bound to its view: the signature locates the synopsis,
/// `cell_query` is the (AND-only) scalar aggregate evaluated against the
/// synopsis cells.
struct BoundQuery {
  std::string view_signature;
  SelectStmtPtr cell_query;
};

/// A fully bound rewritten query: chain links plus combination terms, each
/// bound to a view.
struct BoundRewrittenQuery {
  struct Link {
    std::string var;
    BoundQuery query;
  };
  std::vector<Link> chain;
  struct Term {
    double coeff;
    BoundQuery query;
  };
  std::vector<Term> terms;

  /// A grouped aggregate (GROUP BY) binds as one term with no chain; it
  /// is answered row-wise (SynopsisStore::AnswerGrouped), not as a scalar.
  bool IsGrouped() const {
    return chain.empty() && terms.size() == 1 &&
           terms[0].query.cell_query != nullptr &&
           !terms[0].query.cell_query->group_by.empty();
  }
};

/// The view-relevant shape of one scalar aggregate query: its view
/// signature, the split of its WHERE into baked and cell conjuncts, and
/// the attributes/measures the answering view must carry.
///
/// This is the single matcher both sides of the system use. At
/// registration time the shape says what to *add* to the (possibly new)
/// view; at serve time it says what a *loaded* view must already have for
/// the query to be answerable. Keeping one analysis guarantees a query
/// that registered against a view also matches it after a save/load
/// round trip.
struct ScalarQueryShape {
  /// View identity: canonical FROM rendering plus baked predicates.
  std::string signature;

  /// Conjunction of baked (view-defining) predicates; null if none.
  ExprPtr baked_where;

  /// Non-baked conjuncts, evaluated against synopsis cells at answer
  /// time. Pointers into the analyzed query: the query must outlive the
  /// shape (both callers analyze and bind in one scope).
  std::vector<const Expr*> cell_conjuncts;

  /// Columns the cell conjuncts reference; each must be a view attribute.
  struct AttributeRef {
    std::string table;
    std::string column;
  };
  std::vector<AttributeRef> attributes;

  /// What the aggregate item needs from the synopsis.
  struct MeasureNeed {
    enum class Kind {
      kCount,     // count histogram (always published)
      kSum,       // SUM(expr) / AVG(expr) cell totals
      kExtremum,  // MIN/MAX(col): col must be a view dimension
    };
    Kind kind = Kind::kCount;
    ExprPtr expr;       // kSum: the summed expression
    std::string key;    // kSum: canonical measure key ("sum:<expr>")
    std::string table;  // kExtremum: the dimension column
    std::string column;
  };
  std::vector<MeasureNeed> measures;
};

/// Analyzes one scalar aggregate query (a combination term or chain link)
/// into its view shape. Fails with a typed Status when the query is not a
/// single-aggregate scalar (InvalidArgument) or uses an unsupported
/// aggregate form (Unsupported).
Result<ScalarQueryShape> AnalyzeScalarQuery(const SelectStmt& query,
                                            const BakePredicate& bake);

/// The view-relevant shape of a grouped aggregate query: the scalar shape
/// (signature, conjunct split, WHERE attributes, measures for every
/// aggregate in the select list *and* in HAVING, via the derived-measure
/// planner) plus the group-by columns, which must also be view
/// dimensions. Shared by RegisterGrouped and serve-time BindGrouped so a
/// grouped query that registered also matches after a save/load round
/// trip.
struct GroupedQueryShape {
  ScalarQueryShape base;
  std::vector<ScalarQueryShape::AttributeRef> group_columns;
};

/// Analyzes one grouped aggregate query (non-empty GROUP BY; HAVING
/// allowed — it is evaluated post-noise at answer time). Select items
/// must be group-column refs or aggregate expressions.
Result<GroupedQueryShape> AnalyzeGroupedQuery(const SelectStmt& query,
                                              const BakePredicate& bake);

/// Collects the aggregate function calls inside `e` (skipping into
/// arithmetic and scalar-function arguments, not into aggregate
/// arguments). Shared by registration, matching and answering so all
/// three agree on what counts as "an aggregate of this query".
void CollectAggregateCalls(const Expr* e,
                           std::vector<const FuncCallExpr*>* out);

/// Serve-time check that `view` can answer a query of this shape: every
/// required attribute is a view dimension and every required measure was
/// published. Returns NotFound naming the first missing piece.
Status MatchShapeToView(const ScalarQueryShape& shape, const ViewDef& view);

/// Builds the bound cell query for `shape`: the original aggregate item
/// plus the conjunction of cell-level conjuncts.
SelectStmtPtr MakeCellQuery(const SelectStmt& query,
                            const ScalarQueryShape& shape);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_VIEW_VIEW_MATCHER_H_
