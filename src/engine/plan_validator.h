#ifndef MAXSON_ENGINE_PLAN_VALIDATOR_H_
#define MAXSON_ENGINE_PLAN_VALIDATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/plan.h"

namespace maxson::engine {

/// One cached-column binding the validator checks placeholder requests
/// against: a (cache table directory, field) pair currently backed by a
/// registry entry. The engine cannot see core::CacheRegistry (core links
/// against engine, not the reverse), so the session flattens its registry
/// snapshot into this form.
struct CacheBinding {
  std::string cache_table_dir;
  std::string cache_field;
};

/// Produces the live set of cache bindings at validation time. Installed
/// into the engine by MaxsonSession; a null source — or a source returning
/// null — skips only the binding-existence check (every structural check
/// still runs). Returned as a shared immutable snapshot so the session can
/// rebuild it only when the registry actually changes (keyed off
/// CacheRegistry::version()) instead of copying the registry per plan.
using CacheBindingSource =
    std::function<std::shared_ptr<const std::vector<CacheBinding>>()>;

/// Validates the structural invariants of a fully planned (and, when Maxson
/// is installed, rewritten) physical plan — the properties the compiler
/// cannot see but the executor silently depends on:
///
///  - operator schema agreement: the projection list matches its name list,
///    join key lists pair up, and every operator input is the schema the
///    planner bound against;
///  - expression resolution: every column reference is bound to an index
///    that exists in — and resolves back to the same field of — its input
///    schema; expression nodes are structurally well formed (arity, no
///    aggregates below Filter/Scan);
///  - cache-placeholder binding: every CacheColumnRequest names a real
///    (cache table dir, field) pair of `bindings` — a dangling request
///    would read garbage or fail deep inside the value combiner;
///  - pushdown soundness: a predicate moved to the cache-table reader
///    references only cached fields requested by the scan, and raw-table
///    SARGs reference only raw table columns (Algorithm 3's precondition);
///  - dual-reader alignment: all cache columns of one scan come from one
///    cache table directory (the value combiner opens a single cache file
///    per split) distinct from the raw table, and output names are unique
///    so the combined schema has no ambiguous positions;
///  - path binding: every path reference (Expr::path_slot) names a slot of
///    its operator scope's path list whose column is a string column of
///    that scope's input schema and whose column and path are the call's.
///
/// Returns OK, or an Internal status naming the violated invariant with the
/// offending node and the EXPLAIN rendering of the whole plan. Pass null
/// `bindings` when no registry snapshot is available (plain engine without
/// Maxson): the binding-existence check is skipped.
Status ValidatePlan(const PhysicalPlan& plan,
                    const std::vector<CacheBinding>* bindings);

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_PLAN_VALIDATOR_H_
