#include "engine/planner.h"

#include <functional>
#include <optional>
#include <set>

#include "common/string_util.h"
#include "xml/xml_path.h"

namespace maxson::engine {

using storage::Schema;
using storage::TypeKind;
using storage::Value;

storage::Schema ScanOutputSchema(const ScanNode& scan) {
  Schema out;
  for (const std::string& name : scan.columns) {
    const int idx = scan.table_schema.FindField(name);
    const TypeKind type = idx >= 0
                              ? scan.table_schema.field(static_cast<size_t>(idx)).type
                              : TypeKind::kString;
    out.AddField(scan.OutputName(name), type);
  }
  for (const CacheColumnRequest& req : scan.cache_columns) {
    out.AddField(req.output_name, TypeKind::kString);
  }
  return out;
}

int ResolveColumn(const storage::Schema& schema, const std::string& name) {
  const int exact = schema.FindField(name);
  if (exact >= 0) return exact;
  // Unique suffix match: "x" resolves to "a.x" when only one qualifier has x.
  int found = -1;
  const std::string suffix = "." + name;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (EndsWith(schema.field(i).name, suffix)) {
      if (found >= 0) return -1;  // ambiguous
      found = static_cast<int>(i);
    }
  }
  if (found >= 0) return found;
  // Qualified reference against an unqualified schema ("a.x" -> "x"): accept
  // when the bare name is unique. This covers single-table queries that use
  // an alias prefix.
  const size_t dot = name.find('.');
  if (dot != std::string::npos) {
    return schema.FindField(name.substr(dot + 1));
  }
  return -1;
}

Status BindExpr(Expr* expr, const storage::Schema& schema) {
  Status status;
  expr->Visit([&](Expr* node) {
    if (!status.ok() || node->kind != ExprKind::kColumnRef) return;
    const int idx = ResolveColumn(schema, node->column);
    if (idx < 0) {
      status = Status::InvalidArgument("cannot resolve column '" +
                                       node->column + "'");
      return;
    }
    node->column_index = idx;
  });
  return status;
}

namespace {

/// Collects top-level AND conjuncts.
void CollectConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr->kind == ExprKind::kBinary && expr->bin_op == BinaryOp::kAnd) {
    CollectConjuncts(expr->children[0].get(), out);
    CollectConjuncts(expr->children[1].get(), out);
    return;
  }
  out->push_back(expr);
}

bool ToSargOp(BinaryOp op, bool flipped, storage::SargOp* out) {
  switch (op) {
    case BinaryOp::kEq:
      *out = storage::SargOp::kEq;
      return true;
    case BinaryOp::kNe:
      *out = storage::SargOp::kNe;
      return true;
    case BinaryOp::kLt:
      *out = flipped ? storage::SargOp::kGt : storage::SargOp::kLt;
      return true;
    case BinaryOp::kLe:
      *out = flipped ? storage::SargOp::kGe : storage::SargOp::kLe;
      return true;
    case BinaryOp::kGt:
      *out = flipped ? storage::SargOp::kLt : storage::SargOp::kGt;
      return true;
    case BinaryOp::kGe:
      *out = flipped ? storage::SargOp::kLe : storage::SargOp::kGe;
      return true;
    default:
      return false;
  }
}

/// Strips a leading "qualifier." when it matches the scan's qualifier.
std::string UnqualifiedName(const ScanNode& scan, const std::string& name) {
  if (!scan.qualifier.empty() && StartsWith(name, scan.qualifier + ".")) {
    return name.substr(scan.qualifier.size() + 1);
  }
  return name;
}

}  // namespace

namespace {

/// Peels numeric-cast wrappers: `to_int(col)` / `to_double(col)` compare
/// like the column itself when the column's storage is numeric (typed cache
/// columns, int64 raw columns), so the cast is transparent to row-group
/// min/max pruning.
const Expr* UnwrapNumericCast(const Expr* e) {
  if (e->kind == ExprKind::kFunction &&
      (e->func_name == "to_int" || e->func_name == "to_double") &&
      e->children.size() == 1 &&
      e->children[0]->kind == ExprKind::kColumnRef) {
    return e->children[0].get();
  }
  return e;
}

/// The path reference `node` binds to against `schema` (VisitPathSites).
std::optional<PathSlot> PathSiteOf(const Expr& node,
                                   const storage::Schema& schema) {
  if (node.kind != ExprKind::kFunction || node.children.size() != 2) {
    return std::nullopt;
  }
  const bool xml = node.func_name == "get_xml_object";
  const Expr& column = *node.children[0];
  const Expr& path = *node.children[1];
  if ((!xml && node.func_name != "get_json_object") ||
      column.kind != ExprKind::kColumnRef || column.column_index < 0 ||
      static_cast<size_t>(column.column_index) >= schema.num_fields() ||
      schema.field(static_cast<size_t>(column.column_index)).type !=
          TypeKind::kString ||
      path.kind != ExprKind::kLiteral || !path.literal.is_string()) {
    return std::nullopt;
  }
  const std::string& text = path.literal.string_value();
  if (xml::IsXmlPathText(text) != xml) return std::nullopt;
  return PathSlot{column.column_index, text};
}

}  // namespace

void VisitPathSites(
    const PhysicalPlan& plan,
    const std::function<void(Expr&, PathScope, const std::optional<PathSlot>&)>&
        fn) {
  const Schema left = ScanOutputSchema(plan.scan);
  Schema right;
  Schema input = left;
  if (plan.join_scan.has_value()) {
    right = ScanOutputSchema(*plan.join_scan);
    for (const storage::Field& f : right.fields()) {
      input.AddField(f.name, f.type);
    }
  }
  auto walk = [&fn](auto& self, const ExprPtr& e, PathScope scope,
                    const Schema& schema) -> void {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kAggregate) scope = PathScope::kAggregate;
    fn(*e, scope, PathSiteOf(*e, schema));
    for (const ExprPtr& child : e->children) self(self, child, scope, schema);
  };
  auto walk_all = [&](const std::vector<ExprPtr>& exprs, PathScope scope,
                      const Schema& schema) {
    for (const ExprPtr& e : exprs) walk(walk, e, scope, schema);
  };
  walk_all(plan.join_keys_left, PathScope::kJoinLeft, left);
  walk_all(plan.join_keys_right, PathScope::kJoinRight, right);
  walk(walk, plan.where, PathScope::kFilter, input);
  const bool aggregates = plan.has_aggregates || !plan.group_by.empty();
  walk_all(plan.projections,
           aggregates ? PathScope::kFinalize : PathScope::kProject, input);
  if (aggregates) {
    walk_all(plan.group_by, PathScope::kAggregate, input);
    walk(walk, plan.having, PathScope::kFinalize, input);
  } else {
    for (const auto& key : plan.order_by) {
      walk(walk, key.first, PathScope::kSort, input);
    }
  }
}

void ExtractSargs(const Expr* where, ScanNode* scan) {
  if (where == nullptr) return;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(where, &conjuncts);
  for (const Expr* conjunct : conjuncts) {
    if (conjunct->kind != ExprKind::kBinary) continue;
    const Expr* lhs = UnwrapNumericCast(conjunct->children[0].get());
    const Expr* rhs = UnwrapNumericCast(conjunct->children[1].get());
    const Expr* col = nullptr;
    const Expr* lit = nullptr;
    bool flipped = false;
    if (lhs->kind == ExprKind::kColumnRef && rhs->kind == ExprKind::kLiteral) {
      col = lhs;
      lit = rhs;
    } else if (rhs->kind == ExprKind::kColumnRef &&
               lhs->kind == ExprKind::kLiteral) {
      col = rhs;
      lit = lhs;
      flipped = true;
    } else {
      continue;
    }
    storage::SargOp op;
    if (!ToSargOp(conjunct->bin_op, flipped, &op)) continue;

    const std::string bare = UnqualifiedName(*scan, col->column);
    // A raw table column?
    if (scan->table_schema.FindField(bare) >= 0) {
      scan->raw_sarg.AddLeaf(storage::SargLeaf{bare, op, lit->literal});
      continue;
    }
    // A cache output column? Push down on the cache field (Algorithm 3).
    for (const CacheColumnRequest& req : scan->cache_columns) {
      if (req.output_name == col->column || req.output_name == bare) {
        scan->cache_sarg.AddLeaf(
            storage::SargLeaf{req.cache_field, op, lit->literal});
        break;
      }
    }
  }
}

Result<ScanNode> Planner::BuildScan(const TableRef& ref, bool qualify) const {
  const std::string database =
      ref.database.empty() ? default_database_ : ref.database;
  MAXSON_ASSIGN_OR_RETURN(const catalog::TableInfo* info,
                          catalog_->GetTable(database, ref.table));
  ScanNode scan;
  scan.table_dir = info->location;
  scan.table_schema = info->schema;
  if (qualify) scan.qualifier = ref.Qualifier();
  return scan;
}

Result<PhysicalPlan> Planner::Plan(const SelectStatement& stmt,
                                   PlanRewriter* rewriter) const {
  PhysicalPlan plan;
  const bool has_join = stmt.join.has_value();
  MAXSON_ASSIGN_OR_RETURN(plan.scan, BuildScan(stmt.from, has_join));
  if (has_join) {
    MAXSON_ASSIGN_OR_RETURN(ScanNode right, BuildScan(*stmt.join, true));
    plan.join_scan = std::move(right);
  }

  // Copy expressions into the plan.
  plan.distinct = stmt.distinct;
  for (const SelectItem& item : stmt.items) {
    plan.projections.push_back(item.expr->Clone());
    plan.projection_names.push_back(
        item.alias.empty() ? item.expr->ToString() : item.alias);
    if (item.expr->ContainsAggregate()) plan.has_aggregates = true;
  }
  if (stmt.where != nullptr) plan.where = stmt.where->Clone();

  // GROUP BY / HAVING / ORDER BY may name a projection alias ("ORDER BY
  // cnt", "HAVING n > 1"); substitute the aliased expression recursively so
  // binding sees real columns. Real table columns shadow aliases.
  auto alias_target = [&](const std::string& name) -> const Expr* {
    if (plan.scan.table_schema.FindField(name) >= 0) return nullptr;
    for (const SelectItem& item : stmt.items) {
      if (!item.alias.empty() && item.alias == name) return item.expr.get();
    }
    return nullptr;
  };
  std::function<ExprPtr(const Expr&)> resolve_alias_rec =
      [&](const Expr& e) -> ExprPtr {
    if (e.kind == ExprKind::kColumnRef) {
      if (const Expr* target = alias_target(e.column)) {
        return target->Clone();
      }
    }
    ExprPtr copy = e.Clone();
    for (ExprPtr& child : copy->children) {
      child = resolve_alias_rec(*child);
    }
    return copy;
  };
  auto resolve_alias = [&](const ExprPtr& e) { return resolve_alias_rec(*e); };
  for (const ExprPtr& g : stmt.group_by) {
    plan.group_by.push_back(resolve_alias(g));
  }
  if (stmt.having != nullptr) {
    plan.having = resolve_alias(stmt.having);
    if (plan.having->ContainsAggregate()) plan.has_aggregates = true;
  }
  for (const OrderKey& key : stmt.order_by) {
    plan.order_by.emplace_back(resolve_alias(key.expr), key.descending);
  }
  plan.limit = stmt.limit;

  // Split an equi-join condition into pairwise key expressions.
  if (has_join) {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(stmt.join_condition.get(), &conjuncts);
    for (const Expr* conjunct : conjuncts) {
      if (conjunct->kind != ExprKind::kBinary ||
          conjunct->bin_op != BinaryOp::kEq) {
        return Status::Unimplemented(
            "only conjunctive equi-join conditions are supported");
      }
      plan.join_keys_left.push_back(conjunct->children[0]->Clone());
      plan.join_keys_right.push_back(conjunct->children[1]->Clone());
    }
  }

  // Determine the raw columns each scan must read: every column reference
  // that resolves to it, plus arguments of get_json_object.
  auto collect_columns = [&](ScanNode* scan) {
    std::set<std::string> needed;
    auto note = [&](const Expr* node) {
      if (node->kind != ExprKind::kColumnRef) return;
      const std::string bare = UnqualifiedName(*scan, node->column);
      if (scan->table_schema.FindField(bare) >= 0) needed.insert(bare);
    };
    for (const ExprPtr& e : plan.projections) e->Visit(note);
    if (plan.where != nullptr) plan.where->Visit(note);
    if (plan.having != nullptr) plan.having->Visit(note);
    for (const ExprPtr& e : plan.group_by) e->Visit(note);
    for (const auto& [e, desc] : plan.order_by) e->Visit(note);
    for (const ExprPtr& e : plan.join_keys_left) e->Visit(note);
    for (const ExprPtr& e : plan.join_keys_right) e->Visit(note);
    scan->columns.assign(needed.begin(), needed.end());
    // A scan that references no columns at all (e.g. SELECT COUNT(*)) must
    // still produce one row per table row: read the cheapest column.
    if (scan->columns.empty() && scan->cache_columns.empty() &&
        scan->table_schema.num_fields() > 0) {
      std::string cheapest = scan->table_schema.field(0).name;
      for (const storage::Field& f : scan->table_schema.fields()) {
        if (f.type != TypeKind::kString) {
          cheapest = f.name;
          break;
        }
      }
      scan->columns.push_back(std::move(cheapest));
    }
  };
  collect_columns(&plan.scan);
  if (plan.join_scan.has_value()) collect_columns(&*plan.join_scan);

  // Maxson's plan modification happens here, before binding, so placeholders
  // participate in column resolution like ordinary columns (Algorithm 1).
  if (rewriter != nullptr) {
    MAXSON_ASSIGN_OR_RETURN(int substitutions, rewriter->Rewrite(&plan));
    if (substitutions > 0) {
      // Raw JSON columns whose every use was replaced no longer need to be
      // read; recompute the scan column lists.
      collect_columns(&plan.scan);
      if (plan.join_scan.has_value()) collect_columns(&*plan.join_scan);
    }
  }

  // SARG extraction (WHERE only applies to the joined row, so in join
  // queries push down only to the left scan when unambiguous; for
  // simplicity we extract per-scan and rely on SARGs being advisory).
  ExtractSargs(plan.where.get(), &plan.scan);
  if (plan.join_scan.has_value()) {
    ExtractSargs(plan.where.get(), &*plan.join_scan);
  }

  // Bind every expression against the executor's input schema.
  Schema input = ScanOutputSchema(plan.scan);
  if (plan.join_scan.has_value()) {
    Schema right = ScanOutputSchema(*plan.join_scan);
    // Join keys bind against their own side.
    for (ExprPtr& e : plan.join_keys_left) {
      MAXSON_RETURN_NOT_OK(BindExpr(e.get(), input));
    }
    for (ExprPtr& e : plan.join_keys_right) {
      MAXSON_RETURN_NOT_OK(BindExpr(e.get(), right));
    }
    // Everything downstream sees the concatenated schema.
    Schema joined = input;
    for (const storage::Field& f : right.fields()) {
      joined.AddField(f.name, f.type);
    }
    input = std::move(joined);
  }

  for (ExprPtr& e : plan.projections) {
    MAXSON_RETURN_NOT_OK(BindExpr(e.get(), input));
  }
  if (plan.where != nullptr) {
    MAXSON_RETURN_NOT_OK(BindExpr(plan.where.get(), input));
  }
  if (plan.having != nullptr) {
    MAXSON_RETURN_NOT_OK(BindExpr(plan.having.get(), input));
  }
  for (ExprPtr& e : plan.group_by) {
    MAXSON_RETURN_NOT_OK(BindExpr(e.get(), input));
  }
  for (auto& [e, desc] : plan.order_by) {
    MAXSON_RETURN_NOT_OK(BindExpr(e.get(), input));
  }

  // The sites the rewrite left on raw strings become path references, so
  // each operator scope walks a row once per source column; identical
  // sites share a slot.
  VisitPathSites(plan, [&](Expr& node, PathScope scope,
                           const std::optional<PathSlot>& site) {
    if (!site.has_value()) return;
    std::vector<PathSlot>& slots = plan.paths[static_cast<size_t>(scope)];
    size_t slot = 0;
    while (slot < slots.size() && slots[slot] != *site) ++slot;
    if (slot == slots.size()) slots.push_back(*site);
    node.path_slot = static_cast<int>(slot);
  });
  return plan;
}

}  // namespace maxson::engine
