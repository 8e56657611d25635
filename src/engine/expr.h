#ifndef MAXSON_ENGINE_EXPR_H_
#define MAXSON_ENGINE_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/record_batch.h"
#include "storage/types.h"

namespace maxson::json {
class MisonParser;
}  // namespace maxson::json

namespace maxson::engine {

class ScopePaths;
struct QueryMetrics;

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kBinary,
  kUnary,
  kFunction,   // scalar function, e.g. get_json_object
  kAggregate,  // COUNT/SUM/AVG/MIN/MAX
  kStar,       // the '*' of COUNT(*)
};

enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
};

enum class UnaryOp {
  kNot,
  kNeg,
  kIsNull,
  kIsNotNull,
};

/// N-ary membership test: children[0] IN (children[1..]). NOT IN is
/// expressed as kNot over a kIn node.
/// LIKE is a kFunction named "like" with (subject, pattern) arguments.

enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One node of an expression tree. A single representation is used from SQL
/// parsing through plan rewriting to evaluation: column references carry the
/// textual name from the query and get a resolved index at bind time.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  storage::Value literal;

  // kColumnRef: name as written (possibly "alias.column"); `column_index`
  // is -1 until bound against the executor's input schema.
  std::string column;
  int column_index = -1;

  // kBinary / kUnary
  BinaryOp bin_op = BinaryOp::kEq;
  UnaryOp un_op = UnaryOp::kNot;

  // kFunction
  std::string func_name;
  /// get_json_object/get_xml_object over a string column and a literal
  /// path: the site's slot in its operator scope's path list
  /// (PhysicalPlan::paths), read from the scope's row walk. -1 (and any
  /// context without a walk) evaluates the builtin.
  int path_slot = -1;

  // kAggregate
  AggKind agg = AggKind::kCount;

  std::vector<ExprPtr> children;

  static ExprPtr Literal(storage::Value v);
  static ExprPtr ColumnRef(std::string name);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Function(std::string name, std::vector<ExprPtr> args);
  static ExprPtr Aggregate(AggKind agg, ExprPtr arg);  // arg null = COUNT(*)
  static ExprPtr Star();

  /// Deep copy.
  ExprPtr Clone() const;

  /// SQL-ish rendering for diagnostics and plan printing.
  std::string ToString() const;

  /// True when any node in the subtree is an aggregate.
  bool ContainsAggregate() const;

  /// Invokes `fn` on every node of the subtree (pre-order). `fn` receives
  /// `Expr*` on mutable trees and may accept `const Expr*` on const ones.
  template <typename Fn>
  void Visit(Fn&& fn) {
    fn(this);
    for (ExprPtr& child : children) child->Visit(fn);
  }
  template <typename Fn>
  void Visit(Fn&& fn) const {
    fn(this);
    for (const ExprPtr& child : children) child->Visit(fn);
  }
};

struct EvalContext;

/// Callback evaluating a scalar function: given argument values and the
/// evaluation environment, produce the function result. Registered
/// per-engine so get_json_object can carry the configured parser backend;
/// the context supplies the per-worker metrics sink and speculative parser
/// so one engine can evaluate rows on many threads at once.
using ScalarFunction = std::function<storage::Value(
    const std::vector<storage::Value>& args, const EvalContext& ctx)>;

/// Evaluation environment: the input batch/row plus the function registry
/// and the per-worker execution state. One EvalContext is private to one
/// worker; parallel operators hand each row chunk its own copy.
struct EvalContext {
  const storage::RecordBatch* batch = nullptr;
  size_t row = 0;
  /// Resolves a function by lowercase name; nullptr when unknown.
  const ScalarFunction* (*lookup_function)(const std::string& name,
                                           void* hook) = nullptr;
  void* lookup_hook = nullptr;
  /// Per-worker parse accounting sink; null when parse time is unmeasured.
  QueryMetrics* metrics = nullptr;
  /// Per-worker speculative Mison parser (its pattern memoization mutates
  /// on every extraction, so workers must not share one); ExecutePlan
  /// gives every context one.
  json::MisonParser* mison = nullptr;
  /// Per-worker row walk of the current operator scope, which resolves
  /// the scope's bound path references. Null or empty (the on-demand tier
  /// off, or the kMison backend) evaluates every site through its builtin.
  ScopePaths* paths = nullptr;
};

/// Evaluates a bound, aggregate-free expression for one row. NULL propagates
/// through arithmetic; comparisons with NULL yield NULL (falsy); AND/OR use
/// three-valued logic collapsed to NULL-as-false at the filter boundary.
Result<storage::Value> EvaluateExpr(const Expr& expr, const EvalContext& ctx);

/// True when `v` is non-null and truthy (boolean true or nonzero number).
bool IsTruthy(const storage::Value& v);

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_EXPR_H_
