#ifndef MAXSON_ENGINE_TABLE_SCAN_H_
#define MAXSON_ENGINE_TABLE_SCAN_H_

#include "common/result.h"
#include "engine/exec_context.h"
#include "engine/plan.h"
#include "storage/record_batch.h"

namespace maxson::engine {

/// Executes one ScanNode: enumerates the table's splits (one file = one
/// split), and for each split runs the value combiner of Algorithm 2 —
/// a PrimaryReader over the raw part file and, when cache columns are
/// requested, a synchronized CacheReader over the cache part file with the
/// same index. When a cache SARG is present and the two files' row groups
/// align (same group size, single stripe — the paper's Section IV-F
/// condition), the CacheReader's row-group exclusions are shared with the
/// PrimaryReader so both skip the same groups (Algorithm 3).
///
/// One execution path: the scan chops its splits into morsels (one per
/// split unless ctx.morsel_rows asks for finer stripe ranges) and
/// subscribes its (table, morsels, columns, SARGs) interest to a
/// SharedScanManager — ctx.shared_scan when set, so concurrent queries
/// parse each morsel once per subscriber group, else a private manager of
/// its own (see exec/shared_scan.h and DESIGN.md, "Morsel-driven shared
/// scans"). Passes fan across ctx.pool (null = sequential); columns are
/// stitched whole in morsel (split/stripe) order, so the output is
/// byte-identical at every parallelism degree, morsel size and sharing
/// mode. Per-query *metrics* attribute a pass to whichever query executed
/// it, so under sharing they are a scheduling property; a private
/// subscription executes every pass itself and its metrics are
/// deterministic.
///
/// Returns the concatenated scan output (raw columns, qualified when the
/// scan has a qualifier, followed by cache columns). Metrics accumulate
/// read time, bytes, and shared-skip counts into `metrics`.
Result<storage::RecordBatch> ExecuteScan(const ScanNode& scan,
                                         QueryMetrics* metrics,
                                         const ExecContext& ctx);

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_TABLE_SCAN_H_
