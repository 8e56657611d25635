#ifndef MAXSON_PERFBENCH_PROBES_H_
#define MAXSON_PERFBENCH_PROBES_H_

// Per-layer probes of the traced run: each one times a single layer's
// public functions over the workload's own data, outside the timed query
// phase, plus the host facts every result carries.

#include <cstdint>
#include <string>
#include <vector>

#include "core/maxson.h"
#include "workload/query_templates.h"

namespace perfbench {

struct JsonProbeResult {
  double dom_ns_per_path = 0;
  double mison_ns_per_path = 0;
  double ondemand_ns_per_path = 0;
  double classify_gbps = 0;
  uint64_t extractions = 0;  // (record, path) pairs per tier per repetition
  uint64_t mismatches = 0;   // pairs where a tier disagreed with DOM
};

/// Times json::GetJsonObject, MisonParser::Extract and
/// OndemandParser::Extract over the first `records` records of every query's
/// table with that query's paths (median of `reps` repetitions), and
/// simd::ClassifyJson over the same bytes. Every tier's answer is compared
/// with the DOM tier's.
JsonProbeResult ProbeJson(const maxson::catalog::Catalog& catalog,
                          const std::vector<maxson::workload::BenchmarkQuery>&
                              queries,
                          size_t records, int reps);

/// Times CorcReader::Open plus ReadStripe of every stripe and column of
/// every part file under `dirs`; returns MiB/s of file bytes (median of
/// `reps`), 0 when there are no files.
double ProbeDecodeMibPerSecond(const std::vector<std::string>& dirs, int reps,
                               uint64_t* failures);

/// Median microseconds per serve::Canonicalize call over `sqls`.
double ProbeCanonicalizeMicros(const std::vector<std::string>& sqls, int reps,
                               uint64_t* failures);

struct PlanProbeResult {
  double plan_ms = 0;
  double plan_raw_ms = 0;
  uint64_t failures = 0;
};

/// Median milliseconds per MaxsonSession::Plan and PlanWithoutCache call.
PlanProbeResult ProbePlan(maxson::core::MaxsonSession* session,
                          const std::vector<std::string>& sqls, int reps);

/// Spin-probe "effective cores": the same fixed spin loop on 1 thread, then
/// on `threads` threads at once; threads * t1 / tN (median of `reps`).
double SpinEffectiveCores(size_t threads, int reps);

/// Name of the filesystem holding `dir` (statfs magic), e.g. "ext4".
std::string FilesystemType(const std::string& dir);

/// Bytes of all regular files under `dir` (0 when it does not exist).
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // MAXSON_PERFBENCH_PROBES_H_
