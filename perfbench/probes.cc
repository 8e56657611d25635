#include "probes.h"

#include <sys/vfs.h>

#include <filesystem>
#include <optional>
#include <thread>

#include "bench_common.h"
#include "json/json_path.h"
#include "json/mison_parser.h"
#include "json/ondemand_parser.h"
#include "serve/canonicalizer.h"
#include "simd/kernels.h"
#include "storage/corc_reader.h"
#include "storage/file_system.h"

namespace perfbench {

namespace {

using maxson::Result;
using maxson::json::JsonPath;

/// Result rendered for comparison: the value, or the error's code.
std::string Outcome(const Result<std::string>& r) {
  if (r.ok()) return "v:" + *r;
  return "e:" + std::to_string(static_cast<int>(r.status().code()));
}

struct ProbeTable {
  std::vector<std::string> records;
  std::vector<JsonPath> paths;
};

}  // namespace

JsonProbeResult ProbeJson(
    const maxson::catalog::Catalog& catalog,
    const std::vector<maxson::workload::BenchmarkQuery>& queries,
    size_t records, int reps) {
  JsonProbeResult out;
  std::vector<ProbeTable> tables;
  uint64_t total_bytes = 0;
  for (const auto& q : queries) {
    auto info = catalog.GetTable(q.table_spec.database, q.table_spec.table);
    if (!info.ok()) {
      ++out.mismatches;
      continue;
    }
    auto splits = maxson::storage::FileSystem::ListSplits((*info)->location);
    if (!splits.ok() || splits->empty()) {
      ++out.mismatches;
      continue;
    }
    maxson::storage::CorcReader reader((*splits)[0].path);
    if (!reader.Open().ok()) {
      ++out.mismatches;
      continue;
    }
    const int column = reader.schema().FindField("payload");
    if (column < 0) {
      ++out.mismatches;
      continue;
    }
    auto batch = reader.ReadStripe(0, {column}, std::nullopt, nullptr);
    if (!batch.ok()) {
      ++out.mismatches;
      continue;
    }
    ProbeTable table;
    for (size_t r = 0; r < batch->num_rows() && table.records.size() < records;
         ++r) {
      if (batch->column(0).IsNull(r)) continue;
      table.records.push_back(batch->column(0).GetString(r));
      total_bytes += table.records.back().size();
    }
    for (const auto& loc : q.paths) {
      auto path = JsonPath::Parse(loc.path);
      if (path.ok()) table.paths.push_back(*path);
    }
    out.extractions += table.records.size() * table.paths.size();
    tables.push_back(std::move(table));
  }
  if (out.extractions == 0) return out;

  // Agreement of the three tiers, once.
  {
    maxson::json::MisonParser mison;
    maxson::json::OndemandParser ondemand;
    for (const ProbeTable& t : tables) {
      for (const std::string& rec : t.records) {
        for (const JsonPath& p : t.paths) {
          const std::string dom = Outcome(maxson::json::GetJsonObject(rec, p));
          if (Outcome(mison.Extract(rec, p)) != dom ||
              Outcome(ondemand.Extract(rec, p)) != dom) {
            ++out.mismatches;
          }
        }
      }
    }
  }

  std::vector<double> dom_ns, mison_ns, ondemand_ns, classify_gbps;
  uint64_t sink = 0;
  const double pairs = static_cast<double>(out.extractions);
  for (int rep = 0; rep < reps; ++rep) {
    {
      ScopedSpan span("json", "GetJsonObject");
      const int64_t t0 = NowNs();
      for (const ProbeTable& t : tables) {
        for (const std::string& rec : t.records) {
          for (const JsonPath& p : t.paths) {
            auto v = maxson::json::GetJsonObject(rec, p);
            sink += v.ok() ? v->size() : 1;
          }
        }
      }
      dom_ns.push_back(static_cast<double>(NowNs() - t0) / pairs);
    }
    {
      ScopedSpan span("json", "MisonParser::Extract");
      maxson::json::MisonParser mison;
      const int64_t t0 = NowNs();
      for (const ProbeTable& t : tables) {
        for (const std::string& rec : t.records) {
          for (const JsonPath& p : t.paths) {
            auto v = mison.Extract(rec, p);
            sink += v.ok() ? v->size() : 1;
          }
        }
      }
      mison_ns.push_back(static_cast<double>(NowNs() - t0) / pairs);
    }
    {
      ScopedSpan span("json", "OndemandParser::Extract");
      maxson::json::OndemandParser ondemand;
      const int64_t t0 = NowNs();
      for (const ProbeTable& t : tables) {
        for (const std::string& rec : t.records) {
          for (const JsonPath& p : t.paths) {
            auto v = ondemand.Extract(rec, p);
            sink += v.ok() ? v->size() : 1;
          }
        }
      }
      ondemand_ns.push_back(static_cast<double>(NowNs() - t0) / pairs);
    }
    {
      ScopedSpan span("simd", "ClassifyJson");
      std::vector<uint64_t> quotes, backslashes, structurals;
      const int64_t t0 = NowNs();
      // The kernel is ~100x faster than parsing; repeat it so one
      // measurement spans milliseconds.
      constexpr int kClassifyRounds = 20;
      for (int round = 0; round < kClassifyRounds; ++round) {
        for (const ProbeTable& t : tables) {
          for (const std::string& rec : t.records) {
            const size_t words = maxson::simd::BitmapWords(rec.size());
            quotes.resize(words);
            backslashes.resize(words);
            structurals.resize(words);
            maxson::simd::ClassifyJson(rec.data(), rec.size(), quotes.data(),
                                       backslashes.data(), structurals.data());
            sink += words > 0 ? structurals[0] & 1 : 0;
          }
        }
      }
      const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
      classify_gbps.push_back(static_cast<double>(total_bytes) *
                              kClassifyRounds / seconds * 1e-9);
    }
  }
  if (sink == 0) ++out.mismatches;  // keeps the loops observable
  out.dom_ns_per_path = Median(dom_ns);
  out.mison_ns_per_path = Median(mison_ns);
  out.ondemand_ns_per_path = Median(ondemand_ns);
  out.classify_gbps = Median(classify_gbps);
  return out;
}

double ProbeDecodeMibPerSecond(const std::vector<std::string>& dirs, int reps,
                               uint64_t* failures) {
  std::vector<std::string> files;
  uint64_t total = 0;
  for (const std::string& dir : dirs) {
    auto splits = maxson::storage::FileSystem::ListSplits(dir);
    if (!splits.ok()) continue;
    for (const auto& split : *splits) {
      files.push_back(split.path);
      std::error_code ec;
      total += std::filesystem::file_size(split.path, ec);
    }
  }
  if (files.empty() || total == 0) return 0.0;
  std::vector<double> rates;
  for (int rep = 0; rep < reps; ++rep) {
    ScopedSpan span("storage", "CorcReader::Open+ReadStripe");
    const int64_t t0 = NowNs();
    for (const std::string& file : files) {
      maxson::storage::CorcReader reader(file);
      if (!reader.Open().ok()) {
        ++*failures;
        continue;
      }
      std::vector<int> columns;
      for (size_t c = 0; c < reader.schema().num_fields(); ++c) {
        columns.push_back(static_cast<int>(c));
      }
      for (size_t s = 0; s < reader.num_stripes(); ++s) {
        if (!reader.ReadStripe(s, columns, std::nullopt, nullptr).ok()) {
          ++*failures;
        }
      }
    }
    const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    rates.push_back(static_cast<double>(total) / (1 << 20) / seconds);
  }
  return Median(rates);
}

double ProbeCanonicalizeMicros(const std::vector<std::string>& sqls, int reps,
                               uint64_t* failures) {
  if (sqls.empty()) return 0.0;
  std::vector<double> per_call;
  for (int rep = 0; rep < reps; ++rep) {
    ScopedSpan span("serve", "Canonicalize");
    const int64_t t0 = NowNs();
    for (const std::string& sql : sqls) {
      if (!maxson::serve::Canonicalize(sql).ok()) ++*failures;
    }
    per_call.push_back(static_cast<double>(NowNs() - t0) * 1e-3 /
                       static_cast<double>(sqls.size()));
  }
  return Median(per_call);
}

PlanProbeResult ProbePlan(maxson::core::MaxsonSession* session,
                          const std::vector<std::string>& sqls, int reps) {
  PlanProbeResult out;
  std::vector<double> plan_ms, raw_ms;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& sql : sqls) {
      {
        ScopedSpan span("engine", "MaxsonSession::Plan");
        const int64_t t0 = NowNs();
        if (!session->Plan(sql).ok()) ++out.failures;
        plan_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      }
      {
        ScopedSpan span("engine", "MaxsonSession::PlanWithoutCache");
        const int64_t t0 = NowNs();
        if (!session->PlanWithoutCache(sql).ok()) ++out.failures;
        raw_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      }
    }
  }
  out.plan_ms = Median(plan_ms);
  out.plan_raw_ms = Median(raw_ms);
  return out;
}

double SpinEffectiveCores(size_t threads, int reps) {
  auto spin = [] {
    volatile uint64_t x = 0;
    for (uint64_t i = 0; i < 30'000'000; ++i) x = x + i;
    return x;
  };
  std::vector<double> ratios;
  for (int rep = 0; rep < reps; ++rep) {
    int64_t t0 = NowNs();
    spin();
    const double one = static_cast<double>(NowNs() - t0);
    t0 = NowNs();
    std::vector<std::thread> pool;
    for (size_t i = 0; i < threads; ++i) pool.emplace_back(spin);
    for (std::thread& t : pool) t.join();
    const double many = static_cast<double>(NowNs() - t0);
    ratios.push_back(static_cast<double>(threads) * one / many);
  }
  return Median(ratios);
}

std::string FilesystemType(const std::string& dir) {
  struct statfs fs;
  if (::statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x65735546UL: return "fuse";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
