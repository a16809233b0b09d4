#ifndef VIEWREWRITE_SQL_AST_H_
#define VIEWREWRITE_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "sql/value.h"

namespace viewrewrite {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct SelectStmt;
using SelectStmtPtr = std::unique_ptr<SelectStmt>;

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kStar,           // the `*` in COUNT(*)
  kBinary,
  kUnary,
  kFuncCall,       // aggregates and scalar functions (COALESCE)
  kScalarSubquery, // (SELECT agg FROM ...)
  kIn,             // x [NOT] IN (subquery | list)
  kExists,         // [NOT] EXISTS (subquery)
  kQuantifiedCmp,  // x op ANY/ALL (subquery)
  kParam,          // $name — bound by chained-query links (Rule 15)
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv,
  kAnd, kOr,
  kEq, kNe, kLt, kLe, kGt, kGe,
};

enum class UnaryOp { kNot, kNeg };

/// ANY and SOME are synonyms in SQL; both map to kAny.
enum class Quantifier { kAny, kAll };

const char* BinaryOpName(BinaryOp op);
bool IsComparisonOp(BinaryOp op);
/// Flips a comparison (e.g. kLt -> kGt) for operand swap.
BinaryOp MirrorComparison(BinaryOp op);
/// Logical negation of a comparison (e.g. kLt -> kGe).
BinaryOp NegateComparison(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Literal values indexed by slot (LiteralExpr::slot), for CloneWith.
using SlotValues = std::vector<Value>;

/// Base class for all expression nodes. Nodes own their children through
/// unique_ptr; `Clone()` performs a deep copy (the rewriter duplicates
/// subtrees when splitting queries).
struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  ExprPtr Clone() const { return CloneWith(nullptr); }
  /// Deep copy in which, when `slots` is non-null, every slot-tagged
  /// literal takes the value `(*slots)[slot]` (plan-cache instantiation).
  virtual ExprPtr CloneWith(const SlotValues* slots) const = 0;

  ExprKind kind;
};

struct LiteralExpr : Expr {
  explicit LiteralExpr(Value v, int32_t s = -1)
      : Expr(ExprKind::kLiteral), slot(s), value(std::move(v)) {}
  ExprPtr CloneWith(const SlotValues* slots) const override;

  /// Index of the source literal token this value came from (its position
  /// among the statement's integer, float and string tokens), or -1 for a
  /// fixed constant: TRUE, FALSE, NULL, or one the rewriter made. Declared
  /// first so it fills Expr's tail padding instead of growing the node.
  int32_t slot = -1;
  Value value;
};

struct ColumnRefExpr : Expr {
  ColumnRefExpr(std::string tbl, std::string col)
      : Expr(ExprKind::kColumnRef),
        table(std::move(tbl)),
        column(std::move(col)) {}
  ExprPtr CloneWith(const SlotValues* slots) const override;

  std::string table;   // qualifier; empty if unqualified
  std::string column;

  /// "t.c" or "c".
  std::string FullName() const {
    return table.empty() ? column : table + "." + column;
  }
};

struct StarExpr : Expr {
  StarExpr() : Expr(ExprKind::kStar) {}
  ExprPtr CloneWith(const SlotValues* slots) const override;
};

struct BinaryExpr : Expr {
  BinaryExpr(BinaryOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kBinary), op(o), left(std::move(l)), right(std::move(r)) {}
  ExprPtr CloneWith(const SlotValues* slots) const override;

  BinaryOp op;
  ExprPtr left;
  ExprPtr right;
};

struct UnaryExpr : Expr {
  UnaryExpr(UnaryOp o, ExprPtr e)
      : Expr(ExprKind::kUnary), op(o), operand(std::move(e)) {}
  ExprPtr CloneWith(const SlotValues* slots) const override;

  UnaryOp op;
  ExprPtr operand;
};

/// Function call: aggregate (COUNT/SUM/AVG/MIN/MAX) or scalar (COALESCE).
/// Function names are stored lower-cased.
struct FuncCallExpr : Expr {
  FuncCallExpr(std::string fn, std::vector<ExprPtr> a, bool dist = false)
      : Expr(ExprKind::kFuncCall),
        name(std::move(fn)),
        args(std::move(a)),
        distinct(dist) {}
  ExprPtr CloneWith(const SlotValues* slots) const override;

  std::string name;
  std::vector<ExprPtr> args;
  bool distinct;

  bool IsAggregate() const;
};

struct ScalarSubqueryExpr : Expr {
  explicit ScalarSubqueryExpr(SelectStmtPtr q);
  ~ScalarSubqueryExpr() override;
  ExprPtr CloneWith(const SlotValues* slots) const override;

  SelectStmtPtr subquery;
};

/// `lhs [NOT] IN (subquery)` or `lhs [NOT] IN (v1, v2, ...)`.
struct InExpr : Expr {
  InExpr(ExprPtr l, SelectStmtPtr q, bool neg);
  InExpr(ExprPtr l, std::vector<ExprPtr> list, bool neg);
  ~InExpr() override;
  ExprPtr CloneWith(const SlotValues* slots) const override;

  ExprPtr lhs;
  SelectStmtPtr subquery;        // nullptr when list form
  std::vector<ExprPtr> value_list;
  bool negated;
};

struct ExistsExpr : Expr {
  ExistsExpr(SelectStmtPtr q, bool neg);
  ~ExistsExpr() override;
  ExprPtr CloneWith(const SlotValues* slots) const override;

  SelectStmtPtr subquery;
  bool negated;
};

/// `lhs op ANY|ALL (subquery)` (SOME == ANY).
struct QuantifiedCmpExpr : Expr {
  QuantifiedCmpExpr(ExprPtr l, BinaryOp o, Quantifier q, SelectStmtPtr sq);
  ~QuantifiedCmpExpr() override;
  ExprPtr CloneWith(const SlotValues* slots) const override;

  ExprPtr lhs;
  BinaryOp op;  // comparison op
  Quantifier quantifier;
  SelectStmtPtr subquery;
};

/// `$name` — a scalar parameter bound by a chained-query link (Rule 15).
struct ParamExpr : Expr {
  explicit ParamExpr(std::string n) : Expr(ExprKind::kParam), name(std::move(n)) {}
  ExprPtr CloneWith(const SlotValues* slots) const override;

  std::string name;
};

// ---------------------------------------------------------------------------
// Table references and SELECT statements
// ---------------------------------------------------------------------------

enum class TableRefKind { kBase, kDerived, kJoin };
enum class JoinType { kInner, kLeft, kNatural };

struct TableRef;
using TableRefPtr = std::unique_ptr<TableRef>;

struct TableRef {
  explicit TableRef(TableRefKind k) : kind(k) {}
  virtual ~TableRef() = default;
  TableRefPtr Clone() const { return CloneWith(nullptr); }
  virtual TableRefPtr CloneWith(const SlotValues* slots) const = 0;

  TableRefKind kind;
};

struct BaseTableRef : TableRef {
  BaseTableRef(std::string n, std::string a)
      : TableRef(TableRefKind::kBase), name(std::move(n)), alias(std::move(a)) {}
  TableRefPtr CloneWith(const SlotValues* slots) const override;

  std::string name;
  std::string alias;  // empty if none; binding name is alias-or-name

  const std::string& BindingName() const { return alias.empty() ? name : alias; }
};

struct DerivedTableRef : TableRef {
  DerivedTableRef(SelectStmtPtr q, std::string a);
  ~DerivedTableRef() override;
  TableRefPtr CloneWith(const SlotValues* slots) const override;

  SelectStmtPtr subquery;
  std::string alias;  // required by SQL for derived tables
};

struct JoinTableRef : TableRef {
  JoinTableRef(JoinType t, TableRefPtr l, TableRefPtr r, ExprPtr cond)
      : TableRef(TableRefKind::kJoin),
        join_type(t),
        left(std::move(l)),
        right(std::move(r)),
        condition(std::move(cond)) {}
  TableRefPtr CloneWith(const SlotValues* slots) const override;

  JoinType join_type;
  TableRefPtr left;
  TableRefPtr right;
  ExprPtr condition;  // nullptr for NATURAL joins
};

/// One projected output: expression plus optional alias, or `*`.
struct SelectItem {
  ExprPtr expr;        // null iff is_star
  std::string alias;   // empty if none
  bool is_star = false;

  SelectItem Clone(const SlotValues* slots = nullptr) const;
};

struct WithItem {
  std::string name;
  SelectStmtPtr query;

  WithItem Clone(const SlotValues* slots = nullptr) const;
};

/// One ORDER BY key: an output column (by alias/name or 1-based
/// position) plus direction.
struct OrderItem {
  ExprPtr expr;
  bool descending = false;

  OrderItem Clone(const SlotValues* slots = nullptr) const;
};

/// A (possibly nested) SELECT statement. Field order mirrors SQL clause
/// order.
struct SelectStmt {
  SelectStmt() = default;
  SelectStmt(const SelectStmt&) = delete;
  SelectStmt& operator=(const SelectStmt&) = delete;

  SelectStmtPtr Clone(const SlotValues* slots = nullptr) const;

  std::vector<WithItem> with;
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRefPtr> from;   // comma list (implicit inner join)
  ExprPtr where;                   // may be null
  std::vector<ExprPtr> group_by;   // column refs
  ExprPtr having;                  // may be null
  std::vector<OrderItem> order_by;
  int64_t limit = -1;              // -1 = no LIMIT
};

// ---------------------------------------------------------------------------
// Rewriter output forms
// ---------------------------------------------------------------------------

/// One link of a chained query (Rule 15): `v := <scalar subquery>`.
struct ChainLink {
  std::string var;
  SelectStmtPtr query;

  ChainLink Clone(const SlotValues* slots = nullptr) const;
};

/// A linear combination of aggregate queries. Rule 7 (inclusion–exclusion)
/// expands OR-filters into +1/-1 weighted AND-only queries.
struct QueryCombination {
  struct Term {
    double coeff = 1.0;
    SelectStmtPtr query;

    Term Clone(const SlotValues* slots = nullptr) const;
  };
  std::vector<Term> terms;

  QueryCombination Clone(const SlotValues* slots = nullptr) const;
};

/// Full output of the rewrite pipeline: chained scalar links feeding a
/// linear combination of AND-only, subquery-free aggregate queries.
struct RewrittenQuery {
  std::vector<ChainLink> chain;
  QueryCombination combination;

  RewrittenQuery Clone(const SlotValues* slots = nullptr) const;
};

// Convenience constructors --------------------------------------------------

ExprPtr MakeLiteral(Value v);
ExprPtr MakeIntLiteral(int64_t v);
ExprPtr MakeColumnRef(std::string table, std::string column);
ExprPtr MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeAnd(ExprPtr l, ExprPtr r);   // returns the other side if one null
ExprPtr MakeOr(ExprPtr l, ExprPtr r);
ExprPtr MakeNot(ExprPtr e);
ExprPtr MakeFuncCall(std::string name, std::vector<ExprPtr> args,
                     bool distinct = false);

/// Tree height and node count of a parsed statement. Computed with an
/// explicit work stack (never recursion), so a tree too deep for the
/// machine stack can still be measured safely — this is what lets the
/// parser enforce ResourceLimits::max_ast_depth on left-deep AND/OR
/// chains that it builds iteratively.
struct AstStats {
  size_t depth = 0;  // max nesting over expressions, refs and subqueries
  size_t nodes = 0;  // total Expr + TableRef + SelectStmt nodes
};
AstStats ComputeAstStats(const SelectStmt& stmt);

/// Splits a predicate into its top-level AND conjuncts (flattens nested
/// ANDs). A null input produces an empty vector.
std::vector<const Expr*> CollectConjuncts(const Expr* e);

/// Rebuilds a conjunction from clones of `conjuncts` (null if empty).
ExprPtr ConjunctionOf(const std::vector<const Expr*>& conjuncts);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SQL_AST_H_
