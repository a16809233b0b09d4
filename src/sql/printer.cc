#include "sql/printer.h"

#include <sstream>

#include "common/strings.h"

namespace viewrewrite {

namespace {

/// The output stream plus the optional literal visitor, threaded through
/// every print routine.
struct Out {
  std::ostream& os;
  const LiteralVisitor* visit = nullptr;
};

void PrintExpr(const Expr& e, Out& out);
void PrintSelect(const SelectStmt& s, Out& out);

void PrintExpr(const Expr& e, Out& out) {
  std::ostream& os = out.os;
  switch (e.kind) {
    case ExprKind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(e);
      if (out.visit != nullptr) {
        (*out.visit)(lit, static_cast<size_t>(os.tellp()));
      }
      os << lit.value.ToString();
      return;
    }
    case ExprKind::kColumnRef: {
      const auto& c = static_cast<const ColumnRefExpr&>(e);
      os << c.FullName();
      return;
    }
    case ExprKind::kStar:
      os << "*";
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      os << "(";
      PrintExpr(*b.left, out);
      os << " " << BinaryOpName(b.op) << " ";
      PrintExpr(*b.right, out);
      os << ")";
      return;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      os << (u.op == UnaryOp::kNot ? "(NOT " : "(-");
      PrintExpr(*u.operand, out);
      os << ")";
      return;
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCallExpr&>(e);
      os << ToUpper(f.name) << "(";
      if (f.distinct) os << "DISTINCT ";
      for (size_t i = 0; i < f.args.size(); ++i) {
        if (i > 0) os << ", ";
        PrintExpr(*f.args[i], out);
      }
      os << ")";
      return;
    }
    case ExprKind::kScalarSubquery: {
      const auto& sq = static_cast<const ScalarSubqueryExpr&>(e);
      os << "(";
      PrintSelect(*sq.subquery, out);
      os << ")";
      return;
    }
    case ExprKind::kIn: {
      const auto& in = static_cast<const InExpr&>(e);
      PrintExpr(*in.lhs, out);
      os << (in.negated ? " NOT IN (" : " IN (");
      if (in.subquery) {
        PrintSelect(*in.subquery, out);
      } else {
        for (size_t i = 0; i < in.value_list.size(); ++i) {
          if (i > 0) os << ", ";
          PrintExpr(*in.value_list[i], out);
        }
      }
      os << ")";
      return;
    }
    case ExprKind::kExists: {
      const auto& ex = static_cast<const ExistsExpr&>(e);
      os << (ex.negated ? "NOT EXISTS (" : "EXISTS (");
      PrintSelect(*ex.subquery, out);
      os << ")";
      return;
    }
    case ExprKind::kQuantifiedCmp: {
      const auto& q = static_cast<const QuantifiedCmpExpr&>(e);
      PrintExpr(*q.lhs, out);
      os << " " << BinaryOpName(q.op) << " "
         << (q.quantifier == Quantifier::kAny ? "ANY (" : "ALL (");
      PrintSelect(*q.subquery, out);
      os << ")";
      return;
    }
    case ExprKind::kParam: {
      const auto& p = static_cast<const ParamExpr&>(e);
      os << "$" << p.name;
      return;
    }
  }
}

void PrintTableRef(const TableRef& r, Out& out) {
  std::ostream& os = out.os;
  switch (r.kind) {
    case TableRefKind::kBase: {
      const auto& b = static_cast<const BaseTableRef&>(r);
      os << b.name;
      if (!b.alias.empty()) os << " AS " << b.alias;
      return;
    }
    case TableRefKind::kDerived: {
      const auto& d = static_cast<const DerivedTableRef&>(r);
      os << "(";
      PrintSelect(*d.subquery, out);
      os << ") AS " << d.alias;
      return;
    }
    case TableRefKind::kJoin: {
      const auto& j = static_cast<const JoinTableRef&>(r);
      PrintTableRef(*j.left, out);
      switch (j.join_type) {
        case JoinType::kInner:
          os << " JOIN ";
          break;
        case JoinType::kLeft:
          os << " LEFT JOIN ";
          break;
        case JoinType::kNatural:
          os << " NATURAL JOIN ";
          break;
      }
      PrintTableRef(*j.right, out);
      if (j.condition) {
        os << " ON ";
        PrintExpr(*j.condition, out);
      }
      return;
    }
  }
}

void PrintSelect(const SelectStmt& s, Out& out) {
  std::ostream& os = out.os;
  if (!s.with.empty()) {
    os << "WITH ";
    for (size_t i = 0; i < s.with.size(); ++i) {
      if (i > 0) os << ", ";
      os << s.with[i].name << " AS (";
      PrintSelect(*s.with[i].query, out);
      os << ")";
    }
    os << " ";
  }
  os << "SELECT ";
  if (s.distinct) os << "DISTINCT ";
  for (size_t i = 0; i < s.items.size(); ++i) {
    if (i > 0) os << ", ";
    if (s.items[i].is_star) {
      os << "*";
    } else {
      PrintExpr(*s.items[i].expr, out);
      if (!s.items[i].alias.empty()) os << " AS " << s.items[i].alias;
    }
  }
  if (!s.from.empty()) {
    os << " FROM ";
    for (size_t i = 0; i < s.from.size(); ++i) {
      if (i > 0) os << ", ";
      PrintTableRef(*s.from[i], out);
    }
  }
  if (s.where) {
    os << " WHERE ";
    PrintExpr(*s.where, out);
  }
  if (!s.group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < s.group_by.size(); ++i) {
      if (i > 0) os << ", ";
      PrintExpr(*s.group_by[i], out);
    }
  }
  if (s.having) {
    os << " HAVING ";
    PrintExpr(*s.having, out);
  }
  if (!s.order_by.empty()) {
    os << " ORDER BY ";
    for (size_t i = 0; i < s.order_by.size(); ++i) {
      if (i > 0) os << ", ";
      PrintExpr(*s.order_by[i].expr, out);
      if (s.order_by[i].descending) os << " DESC";
    }
  }
  if (s.limit >= 0) {
    os << " LIMIT " << s.limit;
  }
}

void PrintRewritten(const RewrittenQuery& rq, Out& out) {
  std::ostream& os = out.os;
  for (const auto& link : rq.chain) {
    os << link.var << " := (";
    PrintSelect(*link.query, out);
    os << "); ";
  }
  for (size_t i = 0; i < rq.combination.terms.size(); ++i) {
    const auto& t = rq.combination.terms[i];
    if (i > 0) os << (t.coeff >= 0 ? " + " : " - ");
    else if (t.coeff < 0) os << "- ";
    double mag = t.coeff >= 0 ? t.coeff : -t.coeff;
    if (mag != 1.0) os << mag << " * ";
    os << "(";
    PrintSelect(*t.query, out);
    os << ")";
  }
}

template <typename Node>
std::string Render(const Node& node, void (*print)(const Node&, Out&),
                   const LiteralVisitor* visit = nullptr) {
  std::ostringstream os;
  Out out{os, visit};
  print(node, out);
  return os.str();
}

}  // namespace

std::string ToSql(const Expr& expr) { return Render(expr, PrintExpr); }

std::string ToSql(const TableRef& ref) { return Render(ref, PrintTableRef); }

std::string ToSql(const SelectStmt& stmt) { return Render(stmt, PrintSelect); }

std::string ToSql(const RewrittenQuery& rq) {
  return Render(rq, PrintRewritten);
}

std::string ToSql(const Expr& expr, const LiteralVisitor& visit) {
  return Render(expr, PrintExpr, &visit);
}

std::string ToSql(const TableRef& ref, const LiteralVisitor& visit) {
  return Render(ref, PrintTableRef, &visit);
}

std::string ToSql(const RewrittenQuery& rq, const LiteralVisitor& visit) {
  return Render(rq, PrintRewritten, &visit);
}

}  // namespace viewrewrite
