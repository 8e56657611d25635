#ifndef MAXSON_SERVE_SERVER_H_
#define MAXSON_SERVE_SERVER_H_

#include <memory>
#include <string>
#include <utility>

#include "catalog/catalog.h"
#include "common/options.h"
#include "common/thread_annotations.h"
#include "common/result.h"
#include "core/maxson.h"
#include "engine/plan.h"
#include "serve/admission.h"
#include "serve/canonicalizer.h"
#include "serve/result_cache.h"

namespace maxson::serve {

/// Server-level knobs; admission limits apply per tenant.
struct ServeOptions {
  TenantLimits default_limits;
  bool enable_result_cache = true;
  ResultCacheConfig result_cache;
  /// Route the session's scans through the shared-scan manager so
  /// concurrent tenants querying one table coalesce into one parse pass
  /// per morsel (see exec/shared_scan.h). On by default here — the serving
  /// layer is exactly the concurrent-identical-scan workload sharing
  /// targets — and applied to the session at construction; flip off so
  /// each query scans its morsels alone.
  bool enable_shared_scan = true;
  /// Executions that fail with kIoError are retried this many times: a
  /// midnight recache can unlink a cache part file between plan and read,
  /// and the registry contract is "re-plan against the new state".
  int max_io_error_retries = 2;
};

class MaxsonServer;

/// One client's handle onto the server: a tenant name plus the server
/// connection. Handles are cheap, movable, and must not outlive the
/// server. All handles multiplex onto the server's one MaxsonSession —
/// one shared CacheRegistry, one shared exec::ThreadPool.
class ClientSession {
 public:
  /// Result of one served query.
  struct Outcome {
    engine::QueryResult result;
    bool result_cache_hit = false;
    int io_retries = 0;
  };

  /// Executes SQL for this client's tenant, subject to admission control
  /// and the semantic result cache. Fails with kResourceExhausted when
  /// the tenant is over capacity or the server is shutting down.
  Result<Outcome> Execute(const std::string& sql);

  const std::string& tenant() const { return tenant_; }

 private:
  friend class MaxsonServer;
  ClientSession(MaxsonServer* server, std::string tenant)
      : server_(server), tenant_(std::move(tenant)) {}

  MaxsonServer* server_;
  std::string tenant_;
};

/// Multiplexes N concurrent client sessions onto one MaxsonSession: shared
/// CacheRegistry, shared engine and thread pool, per-tenant admission
/// control, and a semantic result cache above the plan/JSONPath cache
/// tiers. Serving metrics (maxson_serve_*) publish to the session's
/// metrics registry. Does not own the session or catalog; creates no
/// threads (clients call Execute from their own threads, execution runs
/// on the session's pool).
class MaxsonServer {
 public:
  MaxsonServer(core::MaxsonSession* session, const catalog::Catalog* catalog,
               ServeOptions options);
  ~MaxsonServer() { Shutdown(); }

  MaxsonServer(const MaxsonServer&) = delete;
  MaxsonServer& operator=(const MaxsonServer&) = delete;

  /// Opens a client session for `tenant`. Unknown tenants get the default
  /// admission limits.
  ClientSession Connect(const std::string& tenant);

  /// Overrides one tenant's admission limits (effective immediately).
  void SetTenantLimits(const std::string& tenant, TenantLimits limits);

  /// Turns the result cache on/off at runtime; turning it off clears it.
  /// Acquires ResultCache::mutex_ (via Clear) while holding options_mutex_
  /// — the declared server-layer lock order.
  void EnableResultCache(bool enabled) MAXSON_EXCLUDES(options_mutex_);
  bool result_cache_enabled() const MAXSON_EXCLUDES(options_mutex_);

  /// Drops all cached results (admin hook; staleness is otherwise handled
  /// by the ResultValidity snapshots).
  void InvalidateResultCache();

  /// Rejects queued and future queries, waits for in-flight ones to
  /// drain. Idempotent; also run by the destructor.
  void Shutdown();

  ResultCache::Stats result_cache_stats() const {
    return result_cache_.GetStats();
  }
  AdmissionController::TenantSnapshot admission_snapshot(
      const std::string& tenant) const {
    return admission_.Snapshot(tenant);
  }
  const ServeOptions& options() const { return options_; }

 private:
  friend class ClientSession;

  Result<ClientSession::Outcome> ExecuteForTenant(const std::string& tenant,
                                                  const std::string& sql);

  /// Snapshots everything a cached result for `query` depends on; see
  /// ResultValidity.
  ResultValidity CurrentValidity(const CanonicalQuery& query) const;

  void PublishAdmissionGauges(const std::string& tenant);

  core::MaxsonSession* session_;
  const catalog::Catalog* catalog_;
  ServeOptions options_;
  AdmissionController admission_;
  ResultCache result_cache_;
  /// Guards the result-cache toggle.
  mutable Mutex options_mutex_;
  bool result_cache_enabled_ MAXSON_GUARDED_BY(options_mutex_);
};

/// Registers the serving-layer knobs on `registry`: resultcache,
/// sharedscan (server-level toggle, applied to the session), maxinflight,
/// and maxqueue. Admission limits apply to `tenant` and are read-modify-
/// written through `limits`, which the caller owns (so its display of the
/// current limits stays in sync). All pointees must outlive the registry.
void RegisterServeOptions(OptionRegistry* registry, MaxsonServer* server,
                          const std::string& tenant, TenantLimits* limits);

}  // namespace maxson::serve

#endif  // MAXSON_SERVE_SERVER_H_
