#ifndef MAXSON_ENGINE_EXEC_CONTEXT_H_
#define MAXSON_ENGINE_EXEC_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "engine/path_extractor.h"

namespace maxson::exec {
class SharedScanManager;
class ThreadPool;
}  // namespace maxson::exec

namespace maxson::engine {

/// Everything one plan execution needs besides the plan itself, gathered
/// into a single struct threaded from ExecutePlan through the scan into the
/// operators. Replaces the parameter list that grew one entry per PR
/// (plan_seconds, then the pool, then validity snapshots): new per-query
/// execution state lands here once instead of rippling through every
/// signature on the path.
///
/// Plain pointers are non-owning and may be null; a default-constructed
/// context executes sequentially, unshared, and uncancellable — the
/// simplest correct configuration.
struct ExecContext {
  /// Planning time carried into the result's metrics.
  double plan_seconds = 0;
  /// Pool fanning morsels and row chunks; null runs inline.
  exec::ThreadPool* pool = nullptr;
  /// The manager scans subscribe to, so concurrent queries share parse
  /// passes (the engine passes its manager only when the sharedscan knob
  /// is on). Null: each scan subscribes to a private manager of its own —
  /// the same morsel path, with nobody to share it.
  exec::SharedScanManager* shared_scan = nullptr;
  /// Cache-state stamp (CacheRegistry version) keying shared-scan groups:
  /// queries planned across an invalidation never share passes.
  uint64_t scan_validity = 0;
  /// Target rows per scan morsel; 0 = one morsel per split (the paper's
  /// one-file-one-split granularity).
  size_t morsel_rows = 0;
  /// The parser the corruption fallback re-derives cache columns with:
  /// the engine's get_json_object backend, so re-derived rows equal an
  /// uncached run's.
  JsonBackend json_backend = JsonBackend::kDom;
  /// Cooperative cancellation: checked between morsels and between
  /// operators, never mid-pass. Null = uncancellable.
  const std::atomic<bool>* cancel = nullptr;

  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_EXEC_CONTEXT_H_
