#include "view/cell_eval.h"

#include <cmath>

namespace viewrewrite {

namespace {

enum class Tri { kFalse, kTrue, kNull };

Tri ToTri(const Value& v) {
  if (v.is_null()) return Tri::kNull;
  if (v.is_numeric()) return v.ToDouble() != 0 ? Tri::kTrue : Tri::kFalse;
  return v.AsString().empty() ? Tri::kFalse : Tri::kTrue;
}

Value FromTri(Tri t) {
  switch (t) {
    case Tri::kTrue: return Value::Int(1);
    case Tri::kFalse: return Value::Int(0);
    case Tri::kNull: return Value::Null();
  }
  return Value::Null();
}

}  // namespace

Result<Value> EvalCellExpr(const Expr& e, const CellContext& ctx) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(e).value;
    case ExprKind::kColumnRef: {
      const auto& c = static_cast<const ColumnRefExpr&>(e);
      auto slot = ctx.ref_dims.find(&c);
      if (slot != ctx.ref_dims.end()) return *ctx.dim_values[slot->second];
      auto it = ctx.attr_values.find(c.FullName());
      if (it != ctx.attr_values.end()) return it->second;
      // Qualified miss: try the bare column (merged-view remaps can leave
      // either form); unqualified miss: no fallback.
      if (!c.table.empty()) {
        it = ctx.attr_values.find(c.column);
        if (it != ctx.attr_values.end()) return it->second;
      }
      return Status::NotFound("cell context has no attribute '" +
                              c.FullName() + "'");
    }
    case ExprKind::kParam: {
      const auto& p = static_cast<const ParamExpr&>(e);
      auto it = ctx.params.find(p.name);
      if (it == ctx.params.end()) {
        return Status::NotFound("unbound parameter '$" + p.name + "'");
      }
      return it->second;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      if (b.op == BinaryOp::kAnd || b.op == BinaryOp::kOr) {
        VR_ASSIGN_OR_RETURN(Value lv, EvalCellExpr(*b.left, ctx));
        VR_ASSIGN_OR_RETURN(Value rv, EvalCellExpr(*b.right, ctx));
        Tri l = ToTri(lv);
        Tri r = ToTri(rv);
        if (b.op == BinaryOp::kAnd) {
          if (l == Tri::kFalse || r == Tri::kFalse) return FromTri(Tri::kFalse);
          if (l == Tri::kNull || r == Tri::kNull) return FromTri(Tri::kNull);
          return FromTri(Tri::kTrue);
        }
        if (l == Tri::kTrue || r == Tri::kTrue) return FromTri(Tri::kTrue);
        if (l == Tri::kNull || r == Tri::kNull) return FromTri(Tri::kNull);
        return FromTri(Tri::kFalse);
      }
      VR_ASSIGN_OR_RETURN(Value l, EvalCellExpr(*b.left, ctx));
      VR_ASSIGN_OR_RETURN(Value r, EvalCellExpr(*b.right, ctx));
      if (IsComparisonOp(b.op)) {
        VR_ASSIGN_OR_RETURN(Value::TriCompare c, l.CompareSql(r));
        if (c.is_null) return Value::Null();
        bool res = false;
        switch (b.op) {
          case BinaryOp::kEq: res = c.cmp == 0; break;
          case BinaryOp::kNe: res = c.cmp != 0; break;
          case BinaryOp::kLt: res = c.cmp < 0; break;
          case BinaryOp::kLe: res = c.cmp <= 0; break;
          case BinaryOp::kGt: res = c.cmp > 0; break;
          case BinaryOp::kGe: res = c.cmp >= 0; break;
          default: break;
        }
        return Value::Int(res ? 1 : 0);
      }
      if (l.is_null() || r.is_null()) return Value::Null();
      if (!l.is_numeric() || !r.is_numeric()) {
        return Status::TypeMismatch("cell arithmetic on non-numeric values");
      }
      double a = l.ToDouble();
      double b2 = r.ToDouble();
      switch (b.op) {
        case BinaryOp::kAdd: return Value::Double(a + b2);
        case BinaryOp::kSub: return Value::Double(a - b2);
        case BinaryOp::kMul: return Value::Double(a * b2);
        case BinaryOp::kDiv:
          if (b2 == 0) return Status::ExecutionError("cell division by zero");
          return Value::Double(a / b2);
        default:
          return Status::Internal("unhandled cell binary op");
      }
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(*u.operand, ctx));
      if (u.op == UnaryOp::kNot) {
        Tri t = ToTri(v);
        if (t == Tri::kNull) return Value::Null();
        return Value::Int(t == Tri::kTrue ? 0 : 1);
      }
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Double(-v.AsDoubleExact());
      return Status::TypeMismatch("negating non-numeric cell value");
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCallExpr&>(e);
      if (f.name == "coalesce") {
        for (const auto& a : f.args) {
          VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(*a, ctx));
          if (!v.is_null()) return v;
        }
        return Value::Null();
      }
      if (f.name == "isnull" || f.name == "isnotnull") {
        VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(*f.args[0], ctx));
        return Value::Int((f.name == "isnull") == v.is_null() ? 1 : 0);
      }
      if (f.name == "ifpos") {
        VR_ASSIGN_OR_RETURN(Value cond, EvalCellExpr(*f.args[0], ctx));
        if (ToTri(cond) != Tri::kTrue) return Value::Null();
        return EvalCellExpr(*f.args[1], ctx);
      }
      if (f.name == "abs") {
        VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(*f.args[0], ctx));
        if (v.is_null()) return Value::Null();
        return Value::Double(std::fabs(v.ToDouble()));
      }
      return Status::Unsupported("cell function '" + f.name + "'");
    }
    case ExprKind::kIn: {
      const auto& in = static_cast<const InExpr&>(e);
      if (in.subquery) {
        return Status::Unsupported("cell IN over a subquery (not rewritten?)");
      }
      VR_ASSIGN_OR_RETURN(Value lhs, EvalCellExpr(*in.lhs, ctx));
      if (lhs.is_null()) return Value::Null();
      bool any_null = false;
      for (const auto& item : in.value_list) {
        VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(*item, ctx));
        if (v.is_null()) {
          any_null = true;
          continue;
        }
        VR_ASSIGN_OR_RETURN(Value::TriCompare c, lhs.CompareSql(v));
        if (!c.is_null && c.cmp == 0) {
          return Value::Int(in.negated ? 0 : 1);
        }
      }
      if (any_null) return Value::Null();
      return Value::Int(in.negated ? 1 : 0);
    }
    default:
      return Status::Unsupported(
          "cell evaluation of subquery expression (not rewritten?)");
  }
}

Result<bool> EvalCellPredicate(const Expr& e, const CellContext& ctx) {
  VR_ASSIGN_OR_RETURN(Value v, EvalCellExpr(e, ctx));
  return ToTri(v) == Tri::kTrue;
}

}  // namespace viewrewrite
