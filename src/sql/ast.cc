#include "sql/ast.h"

#include "common/strings.h"

namespace viewrewrite {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
  }
  return "?";
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

BinaryOp MirrorComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // = and <> are symmetric
  }
}

BinaryOp NegateComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return BinaryOp::kNe;
    case BinaryOp::kNe: return BinaryOp::kEq;
    case BinaryOp::kLt: return BinaryOp::kGe;
    case BinaryOp::kLe: return BinaryOp::kGt;
    case BinaryOp::kGt: return BinaryOp::kLe;
    case BinaryOp::kGe: return BinaryOp::kLt;
    default: return op;
  }
}

bool FuncCallExpr::IsAggregate() const {
  return name == "count" || name == "sum" || name == "avg" ||
         name == "min" || name == "max" || name == "variance" ||
         name == "stddev";
}

// Clone implementations ------------------------------------------------------

ExprPtr LiteralExpr::CloneWith(const SlotValues* slots) const {
  if (slots != nullptr && slot >= 0) {
    return std::make_unique<LiteralExpr>((*slots)[slot], slot);
  }
  return std::make_unique<LiteralExpr>(value, slot);
}

ExprPtr ColumnRefExpr::CloneWith(const SlotValues*) const {
  return std::make_unique<ColumnRefExpr>(table, column);
}

ExprPtr StarExpr::CloneWith(const SlotValues*) const {
  return std::make_unique<StarExpr>();
}

ExprPtr BinaryExpr::CloneWith(const SlotValues* slots) const {
  return std::make_unique<BinaryExpr>(op, left->CloneWith(slots),
                                      right->CloneWith(slots));
}

ExprPtr UnaryExpr::CloneWith(const SlotValues* slots) const {
  return std::make_unique<UnaryExpr>(op, operand->CloneWith(slots));
}

ExprPtr FuncCallExpr::CloneWith(const SlotValues* slots) const {
  std::vector<ExprPtr> cloned;
  cloned.reserve(args.size());
  for (const auto& a : args) cloned.push_back(a->CloneWith(slots));
  return std::make_unique<FuncCallExpr>(name, std::move(cloned), distinct);
}

ScalarSubqueryExpr::ScalarSubqueryExpr(SelectStmtPtr q)
    : Expr(ExprKind::kScalarSubquery), subquery(std::move(q)) {}
ScalarSubqueryExpr::~ScalarSubqueryExpr() = default;

ExprPtr ScalarSubqueryExpr::CloneWith(const SlotValues* slots) const {
  return std::make_unique<ScalarSubqueryExpr>(subquery->Clone(slots));
}

InExpr::InExpr(ExprPtr l, SelectStmtPtr q, bool neg)
    : Expr(ExprKind::kIn), lhs(std::move(l)), subquery(std::move(q)),
      negated(neg) {}
InExpr::InExpr(ExprPtr l, std::vector<ExprPtr> list, bool neg)
    : Expr(ExprKind::kIn), lhs(std::move(l)), subquery(nullptr),
      value_list(std::move(list)), negated(neg) {}
InExpr::~InExpr() = default;

ExprPtr InExpr::CloneWith(const SlotValues* slots) const {
  if (subquery) {
    return std::make_unique<InExpr>(lhs->CloneWith(slots),
                                    subquery->Clone(slots), negated);
  }
  std::vector<ExprPtr> cloned;
  cloned.reserve(value_list.size());
  for (const auto& v : value_list) cloned.push_back(v->CloneWith(slots));
  return std::make_unique<InExpr>(lhs->CloneWith(slots), std::move(cloned),
                                  negated);
}

ExistsExpr::ExistsExpr(SelectStmtPtr q, bool neg)
    : Expr(ExprKind::kExists), subquery(std::move(q)), negated(neg) {}
ExistsExpr::~ExistsExpr() = default;

ExprPtr ExistsExpr::CloneWith(const SlotValues* slots) const {
  return std::make_unique<ExistsExpr>(subquery->Clone(slots), negated);
}

QuantifiedCmpExpr::QuantifiedCmpExpr(ExprPtr l, BinaryOp o, Quantifier q,
                                     SelectStmtPtr sq)
    : Expr(ExprKind::kQuantifiedCmp), lhs(std::move(l)), op(o), quantifier(q),
      subquery(std::move(sq)) {}
QuantifiedCmpExpr::~QuantifiedCmpExpr() = default;

ExprPtr QuantifiedCmpExpr::CloneWith(const SlotValues* slots) const {
  return std::make_unique<QuantifiedCmpExpr>(
      lhs->CloneWith(slots), op, quantifier, subquery->Clone(slots));
}

ExprPtr ParamExpr::CloneWith(const SlotValues*) const {
  return std::make_unique<ParamExpr>(name);
}

TableRefPtr BaseTableRef::CloneWith(const SlotValues*) const {
  return std::make_unique<BaseTableRef>(name, alias);
}

DerivedTableRef::DerivedTableRef(SelectStmtPtr q, std::string a)
    : TableRef(TableRefKind::kDerived), subquery(std::move(q)),
      alias(std::move(a)) {}
DerivedTableRef::~DerivedTableRef() = default;

TableRefPtr DerivedTableRef::CloneWith(const SlotValues* slots) const {
  return std::make_unique<DerivedTableRef>(subquery->Clone(slots), alias);
}

TableRefPtr JoinTableRef::CloneWith(const SlotValues* slots) const {
  return std::make_unique<JoinTableRef>(
      join_type, left->CloneWith(slots), right->CloneWith(slots),
      condition ? condition->CloneWith(slots) : nullptr);
}

SelectItem SelectItem::Clone(const SlotValues* slots) const {
  SelectItem out;
  out.expr = expr ? expr->CloneWith(slots) : nullptr;
  out.alias = alias;
  out.is_star = is_star;
  return out;
}

WithItem WithItem::Clone(const SlotValues* slots) const {
  WithItem out;
  out.name = name;
  out.query = query->Clone(slots);
  return out;
}

OrderItem OrderItem::Clone(const SlotValues* slots) const {
  OrderItem out;
  out.expr = expr->CloneWith(slots);
  out.descending = descending;
  return out;
}

SelectStmtPtr SelectStmt::Clone(const SlotValues* slots) const {
  auto out = std::make_unique<SelectStmt>();
  out->with.reserve(with.size());
  for (const auto& w : with) out->with.push_back(w.Clone(slots));
  out->distinct = distinct;
  out->items.reserve(items.size());
  for (const auto& it : items) out->items.push_back(it.Clone(slots));
  out->from.reserve(from.size());
  for (const auto& f : from) out->from.push_back(f->CloneWith(slots));
  out->where = where ? where->CloneWith(slots) : nullptr;
  out->group_by.reserve(group_by.size());
  for (const auto& g : group_by) out->group_by.push_back(g->CloneWith(slots));
  out->having = having ? having->CloneWith(slots) : nullptr;
  out->order_by.reserve(order_by.size());
  for (const auto& o : order_by) out->order_by.push_back(o.Clone(slots));
  out->limit = limit;
  return out;
}

ChainLink ChainLink::Clone(const SlotValues* slots) const {
  ChainLink out;
  out.var = var;
  out.query = query->Clone(slots);
  return out;
}

QueryCombination::Term QueryCombination::Term::Clone(
    const SlotValues* slots) const {
  Term out;
  out.coeff = coeff;
  out.query = query->Clone(slots);
  return out;
}

QueryCombination QueryCombination::Clone(const SlotValues* slots) const {
  QueryCombination out;
  out.terms.reserve(terms.size());
  for (const auto& t : terms) out.terms.push_back(t.Clone(slots));
  return out;
}

RewrittenQuery RewrittenQuery::Clone(const SlotValues* slots) const {
  RewrittenQuery out;
  out.chain.reserve(chain.size());
  for (const auto& l : chain) out.chain.push_back(l.Clone(slots));
  out.combination = combination.Clone(slots);
  return out;
}

// Convenience constructors ---------------------------------------------------

ExprPtr MakeLiteral(Value v) {
  return std::make_unique<LiteralExpr>(std::move(v));
}

ExprPtr MakeIntLiteral(int64_t v) { return MakeLiteral(Value::Int(v)); }

ExprPtr MakeColumnRef(std::string table, std::string column) {
  return std::make_unique<ColumnRefExpr>(std::move(table), std::move(column));
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<BinaryExpr>(op, std::move(l), std::move(r));
}

ExprPtr MakeAnd(ExprPtr l, ExprPtr r) {
  if (!l) return r;
  if (!r) return l;
  return MakeBinary(BinaryOp::kAnd, std::move(l), std::move(r));
}

ExprPtr MakeOr(ExprPtr l, ExprPtr r) {
  if (!l) return r;
  if (!r) return l;
  return MakeBinary(BinaryOp::kOr, std::move(l), std::move(r));
}

ExprPtr MakeNot(ExprPtr e) {
  return std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(e));
}

ExprPtr MakeFuncCall(std::string name, std::vector<ExprPtr> args,
                     bool distinct) {
  return std::make_unique<FuncCallExpr>(ToLower(name), std::move(args),
                                        distinct);
}

namespace {

/// One pending node of the iterative AST walk: exactly one pointer set.
struct WalkItem {
  const Expr* expr = nullptr;
  const TableRef* ref = nullptr;
  const SelectStmt* stmt = nullptr;
  size_t depth = 0;
};

}  // namespace

AstStats ComputeAstStats(const SelectStmt& stmt) {
  AstStats stats;
  std::vector<WalkItem> work;
  work.push_back({nullptr, nullptr, &stmt, 1});
  auto push_expr = [&work](const Expr* e, size_t d) {
    if (e != nullptr) work.push_back({e, nullptr, nullptr, d});
  };
  auto push_stmt = [&work](const SelectStmt* s, size_t d) {
    if (s != nullptr) work.push_back({nullptr, nullptr, s, d});
  };
  while (!work.empty()) {
    WalkItem item = work.back();
    work.pop_back();
    ++stats.nodes;
    if (item.depth > stats.depth) stats.depth = item.depth;
    const size_t d = item.depth + 1;
    if (item.expr != nullptr) {
      switch (item.expr->kind) {
        case ExprKind::kLiteral:
        case ExprKind::kColumnRef:
        case ExprKind::kStar:
        case ExprKind::kParam:
          break;
        case ExprKind::kBinary: {
          const auto* b = static_cast<const BinaryExpr*>(item.expr);
          push_expr(b->left.get(), d);
          push_expr(b->right.get(), d);
          break;
        }
        case ExprKind::kUnary:
          push_expr(static_cast<const UnaryExpr*>(item.expr)->operand.get(),
                    d);
          break;
        case ExprKind::kFuncCall: {
          const auto* f = static_cast<const FuncCallExpr*>(item.expr);
          for (const auto& a : f->args) push_expr(a.get(), d);
          break;
        }
        case ExprKind::kScalarSubquery:
          push_stmt(
              static_cast<const ScalarSubqueryExpr*>(item.expr)->subquery.get(),
              d);
          break;
        case ExprKind::kIn: {
          const auto* in = static_cast<const InExpr*>(item.expr);
          push_expr(in->lhs.get(), d);
          push_stmt(in->subquery.get(), d);
          for (const auto& v : in->value_list) push_expr(v.get(), d);
          break;
        }
        case ExprKind::kExists:
          push_stmt(static_cast<const ExistsExpr*>(item.expr)->subquery.get(),
                    d);
          break;
        case ExprKind::kQuantifiedCmp: {
          const auto* q = static_cast<const QuantifiedCmpExpr*>(item.expr);
          push_expr(q->lhs.get(), d);
          push_stmt(q->subquery.get(), d);
          break;
        }
      }
    } else if (item.ref != nullptr) {
      switch (item.ref->kind) {
        case TableRefKind::kBase:
          break;
        case TableRefKind::kDerived:
          push_stmt(
              static_cast<const DerivedTableRef*>(item.ref)->subquery.get(),
              d);
          break;
        case TableRefKind::kJoin: {
          const auto* j = static_cast<const JoinTableRef*>(item.ref);
          if (j->left) work.push_back({nullptr, j->left.get(), nullptr, d});
          if (j->right) work.push_back({nullptr, j->right.get(), nullptr, d});
          push_expr(j->condition.get(), d);
          break;
        }
      }
    } else {
      const SelectStmt* s = item.stmt;
      for (const auto& w : s->with) push_stmt(w.query.get(), d);
      for (const auto& it : s->items) push_expr(it.expr.get(), d);
      for (const auto& f : s->from) {
        if (f) work.push_back({nullptr, f.get(), nullptr, d});
      }
      push_expr(s->where.get(), d);
      for (const auto& g : s->group_by) push_expr(g.get(), d);
      push_expr(s->having.get(), d);
      for (const auto& o : s->order_by) push_expr(o.expr.get(), d);
    }
  }
  return stats;
}

std::vector<const Expr*> CollectConjuncts(const Expr* e) {
  std::vector<const Expr*> out;
  if (e == nullptr) return out;
  if (e->kind == ExprKind::kBinary) {
    const auto* b = static_cast<const BinaryExpr*>(e);
    if (b->op == BinaryOp::kAnd) {
      auto l = CollectConjuncts(b->left.get());
      auto r = CollectConjuncts(b->right.get());
      out.insert(out.end(), l.begin(), l.end());
      out.insert(out.end(), r.begin(), r.end());
      return out;
    }
  }
  out.push_back(e);
  return out;
}

ExprPtr ConjunctionOf(const std::vector<const Expr*>& conjuncts) {
  ExprPtr out;
  for (const Expr* c : conjuncts) {
    out = MakeAnd(std::move(out), c->Clone());
  }
  return out;
}

}  // namespace viewrewrite
