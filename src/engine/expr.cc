#include "engine/expr.h"

#include <cmath>

#include "engine/path_extractor.h"

namespace maxson::engine {

using storage::Value;

ExprPtr Expr::Literal(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::ColumnRef(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column = std::move(name);
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bin_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->un_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::Function(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->func_name = std::move(name);
  e->children = std::move(args);
  return e;
}

ExprPtr Expr::Aggregate(AggKind agg, ExprPtr arg) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggregate;
  e->agg = agg;
  if (arg != nullptr) e->children.push_back(std::move(arg));
  return e;
}

ExprPtr Expr::Star() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->column = column;
  e->column_index = column_index;
  e->bin_op = bin_op;
  e->un_op = un_op;
  e->func_name = func_name;
  e->path_slot = path_slot;
  e->agg = agg;
  e->children.reserve(children.size());
  for (const ExprPtr& child : children) e->children.push_back(child->Clone());
  return e;
}

namespace {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
  }
  return "?";
}

const char* AggName(AggKind agg) {
  switch (agg) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.is_string() ? "'" + literal.ToString() + "'"
                                 : literal.ToString();
    case ExprKind::kColumnRef:
      return column;
    case ExprKind::kBinary:
      return "(" + children[0]->ToString() + " " + BinaryOpName(bin_op) + " " +
             children[1]->ToString() + ")";
    case ExprKind::kUnary:
      switch (un_op) {
        case UnaryOp::kNot:
          return "(NOT " + children[0]->ToString() + ")";
        case UnaryOp::kNeg:
          return "(-" + children[0]->ToString() + ")";
        case UnaryOp::kIsNull:
          return "(" + children[0]->ToString() + " IS NULL)";
        case UnaryOp::kIsNotNull:
          return "(" + children[0]->ToString() + " IS NOT NULL)";
      }
      return "?";
    case ExprKind::kFunction: {
      std::string out = func_name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kAggregate:
      return std::string(AggName(agg)) + "(" +
             (children.empty() ? "*" : children[0]->ToString()) + ")";
    case ExprKind::kStar:
      return "*";
  }
  return "?";
}

bool Expr::ContainsAggregate() const {
  if (kind == ExprKind::kAggregate) return true;
  for (const ExprPtr& child : children) {
    if (child->ContainsAggregate()) return true;
  }
  return false;
}

bool IsTruthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_bool()) return v.bool_value();
  if (v.is_int64()) return v.int64_value() != 0;
  if (v.is_double()) return v.double_value() != 0.0;
  return !v.string_value().empty();
}

namespace {

Result<Value> EvaluateBinary(const Expr& expr, const EvalContext& ctx) {
  // AND/OR: short-circuit with NULL-as-false semantics at this boundary.
  if (expr.bin_op == BinaryOp::kAnd) {
    MAXSON_ASSIGN_OR_RETURN(Value lhs, EvaluateExpr(*expr.children[0], ctx));
    if (!IsTruthy(lhs)) return Value::Bool(false);
    MAXSON_ASSIGN_OR_RETURN(Value rhs, EvaluateExpr(*expr.children[1], ctx));
    return Value::Bool(IsTruthy(rhs));
  }
  if (expr.bin_op == BinaryOp::kOr) {
    MAXSON_ASSIGN_OR_RETURN(Value lhs, EvaluateExpr(*expr.children[0], ctx));
    if (IsTruthy(lhs)) return Value::Bool(true);
    MAXSON_ASSIGN_OR_RETURN(Value rhs, EvaluateExpr(*expr.children[1], ctx));
    return Value::Bool(IsTruthy(rhs));
  }

  MAXSON_ASSIGN_OR_RETURN(Value lhs, EvaluateExpr(*expr.children[0], ctx));
  MAXSON_ASSIGN_OR_RETURN(Value rhs, EvaluateExpr(*expr.children[1], ctx));

  switch (expr.bin_op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      const int cmp = lhs.Compare(rhs);
      switch (expr.bin_op) {
        case BinaryOp::kEq:
          return Value::Bool(cmp == 0);
        case BinaryOp::kNe:
          return Value::Bool(cmp != 0);
        case BinaryOp::kLt:
          return Value::Bool(cmp < 0);
        case BinaryOp::kLe:
          return Value::Bool(cmp <= 0);
        case BinaryOp::kGt:
          return Value::Bool(cmp > 0);
        default:
          return Value::Bool(cmp >= 0);
      }
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      // Integer arithmetic stays integral except division.
      if (lhs.is_int64() && rhs.is_int64() && expr.bin_op != BinaryOp::kDiv) {
        const int64_t a = lhs.int64_value();
        const int64_t b = rhs.int64_value();
        switch (expr.bin_op) {
          case BinaryOp::kAdd:
            return Value::Int64(a + b);
          case BinaryOp::kSub:
            return Value::Int64(a - b);
          case BinaryOp::kMul:
            return Value::Int64(a * b);
          case BinaryOp::kMod:
            if (b == 0) return Value::Null();
            return Value::Int64(a % b);
          default:
            break;
        }
      }
      const double a = lhs.AsDouble();
      const double b = rhs.AsDouble();
      switch (expr.bin_op) {
        case BinaryOp::kAdd:
          return Value::Double(a + b);
        case BinaryOp::kSub:
          return Value::Double(a - b);
        case BinaryOp::kMul:
          return Value::Double(a * b);
        case BinaryOp::kDiv:
          if (b == 0.0) return Value::Null();
          return Value::Double(a / b);
        case BinaryOp::kMod:
          if (b == 0.0) return Value::Null();
          return Value::Double(std::fmod(a, b));
        default:
          break;
      }
      break;
    }
    default:
      break;
  }
  return Status::Internal("unhandled binary operator");
}

}  // namespace

Result<Value> EvaluateExpr(const Expr& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      if (expr.column_index < 0) {
        return Status::Internal("unbound column reference: " + expr.column);
      }
      return ctx.batch->column(static_cast<size_t>(expr.column_index))
          .GetValue(ctx.row);
    }
    case ExprKind::kBinary:
      return EvaluateBinary(expr, ctx);
    case ExprKind::kUnary: {
      MAXSON_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*expr.children[0], ctx));
      switch (expr.un_op) {
        case UnaryOp::kNot:
          return Value::Bool(!IsTruthy(v));
        case UnaryOp::kNeg:
          if (v.is_null()) return Value::Null();
          if (v.is_int64()) return Value::Int64(-v.int64_value());
          return Value::Double(-v.AsDouble());
        case UnaryOp::kIsNull:
          return Value::Bool(v.is_null());
        case UnaryOp::kIsNotNull:
          return Value::Bool(!v.is_null());
      }
      return Status::Internal("unhandled unary operator");
    }
    case ExprKind::kFunction: {
      if (expr.path_slot >= 0 && ctx.paths != nullptr && !ctx.paths->empty()) {
        return ctx.paths->Get(static_cast<size_t>(expr.path_slot), *ctx.batch,
                              ctx.row, ctx.metrics);
      }
      if (ctx.lookup_function == nullptr) {
        return Status::Internal("no function registry in EvalContext");
      }
      const ScalarFunction* fn =
          ctx.lookup_function(expr.func_name, ctx.lookup_hook);
      if (fn == nullptr) {
        return Status::InvalidArgument("unknown function: " + expr.func_name);
      }
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const ExprPtr& child : expr.children) {
        MAXSON_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*child, ctx));
        args.push_back(std::move(v));
      }
      return (*fn)(args, ctx);
    }
    case ExprKind::kAggregate:
      return Status::Internal(
          "aggregate expression evaluated outside aggregation");
    case ExprKind::kStar:
      return Status::Internal("'*' evaluated as a scalar");
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace maxson::engine
