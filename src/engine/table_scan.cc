#include "engine/table_scan.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/time_util.h"
#include "engine/path_extractor.h"
#include "engine/planner.h"
#include "exec/shared_scan.h"
#include "storage/corc_reader.h"
#include "storage/file_system.h"

namespace maxson::engine {

using storage::CorcReader;
using storage::FileSystem;
using storage::RecordBatch;
using storage::Schema;
using storage::Split;

namespace {

using storage::SargLeaf;
using storage::SargOp;
using storage::SearchArgument;
using storage::TypeKind;

/// Reconciles a SARG with the column types of the file it will prune:
/// a numeric literal against a numeric column passes through; a string
/// literal against a numeric column is coerced to numeric; a numeric
/// literal against a string column is dropped (string-ordered min/max
/// statistics cannot soundly bound numeric comparisons). Dropping a leaf
/// only loses pruning — the residual filter re-checks every row.
SearchArgument ReconcileSargWithSchema(const SearchArgument& sarg,
                                       const Schema& schema) {
  SearchArgument out;
  for (const SargLeaf& leaf : sarg.leaves()) {
    if (leaf.op == SargOp::kIsNull || leaf.op == SargOp::kIsNotNull) {
      out.AddLeaf(leaf);
      continue;
    }
    const int idx = schema.FindField(leaf.column);
    if (idx < 0) continue;
    const TypeKind type = schema.field(static_cast<size_t>(idx)).type;
    const bool numeric_column = type != TypeKind::kString;
    const bool numeric_literal =
        leaf.literal.is_int64() || leaf.literal.is_double() ||
        leaf.literal.is_bool();
    if (numeric_column == numeric_literal) {
      out.AddLeaf(leaf);
    } else if (numeric_column) {
      SargLeaf coerced = leaf;
      coerced.literal = storage::Value::Double(leaf.literal.AsDouble());
      out.AddLeaf(std::move(coerced));
    }
    // numeric literal vs string column: dropped.
  }
  return out;
}

/// The physical columns one pass decodes: raw columns by name, cache
/// columns by binding — the decoded *union* of every subscriber's columns.
struct ScanSpec {
  std::vector<std::string> raw_columns;
  std::vector<CacheColumnRequest> cache_columns;
  /// Backend the corruption fallback re-derives cache columns with; copied
  /// from ExecContext::json_backend.
  JsonBackend json_backend = JsonBackend::kDom;
};

/// Appends every cell of `src` to `dst`: the whole column when the types
/// match, otherwise cell by cell through AppendValue (a typed int64/double
/// cache column feeding a string output) — the conversion a boxed row gets.
void StitchColumn(storage::ColumnVector&& src, storage::ColumnVector* dst) {
  if (src.type() == dst->type()) {
    dst->AppendColumn(std::move(src));
    return;
  }
  for (size_t r = 0; r < src.size(); ++r) dst->AppendValue(src.GetValue(r));
}

/// One subscriber's (raw SARG, cache SARG) pair. A pass prunes row groups
/// with the *disjunction* of its predicates: a group is read when any
/// subscriber's pair keeps it. Sound because pruning is advisory — every
/// subscriber's residual WHERE filter re-checks the surviving rows — and a
/// non-empty SARG implies the plan carries that residual filter.
using SargPair = std::pair<SearchArgument, SearchArgument>;

/// Stripes [begin, end) of a split; nullopt = every stripe.
struct StripeRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Reads one stripe range of one split, combining raw and cached columns
/// column-wise. The cache half of the combiner; on cache corruption the
/// caller retries with ScanSplitRawFallback. `out`'s columns are
/// spec.raw_columns followed by spec.cache_columns, in order.
Status ScanSplitCached(const ScanSpec& spec,
                       const std::vector<SargPair>& predicates,
                       const std::string& path, size_t split_index,
                       std::optional<StripeRange> range, RecordBatch* out,
                       QueryMetrics* metrics) {
  CorcReader primary(path);
  MAXSON_RETURN_NOT_OK(primary.Open());

  // Resolve raw column indexes in the file schema.
  std::vector<int> raw_indexes;
  raw_indexes.reserve(spec.raw_columns.size());
  for (const std::string& name : spec.raw_columns) {
    const int idx = primary.schema().FindField(name);
    if (idx < 0) {
      return Status::NotFound("column " + name + " missing in " + path);
    }
    raw_indexes.push_back(idx);
  }

  // Open the synchronized cache reader when cache columns are requested.
  std::unique_ptr<CorcReader> cache;
  std::vector<int> cache_indexes;
  if (!spec.cache_columns.empty()) {
    const std::string cache_path = spec.cache_columns[0].cache_table_dir +
                                   "/" + FileSystem::PartFileName(split_index);
    cache = std::make_unique<CorcReader>(cache_path);
    MAXSON_RETURN_NOT_OK(cache->Open());
    if (cache->num_rows() != primary.num_rows()) {
      return Status::Internal("cache/raw row count mismatch on split " +
                              std::to_string(split_index));
    }
    for (const CacheColumnRequest& req : spec.cache_columns) {
      const int idx = cache->schema().FindField(req.cache_field);
      if (idx < 0) {
        return Status::NotFound("cache field " + req.cache_field +
                                " missing in " + cache_path);
      }
      cache_indexes.push_back(idx);
    }
  }

  // The paper's single-stripe condition for sharing row-group skips: both
  // files must have the same stripe structure and group size.
  const bool aligned =
      cache != nullptr && cache->num_stripes() == primary.num_stripes() &&
      cache->footer().rows_per_group == primary.footer().rows_per_group;

  // Reconcile every subscriber's SARG pair against the file schemas. When
  // the stripe structures diverge, primary pruning is disabled entirely
  // (a skipped group would shift the positional combiner below).
  struct ReconciledPair {
    SearchArgument raw;
    SearchArgument cache;
  };
  std::vector<ReconciledPair> preds;
  preds.reserve(predicates.size());
  for (const SargPair& p : predicates) {
    ReconciledPair rp;
    rp.raw = (cache != nullptr && !aligned)
                 ? SearchArgument()
                 : ReconcileSargWithSchema(p.first, primary.schema());
    rp.cache = cache != nullptr
                   ? ReconcileSargWithSchema(p.second, cache->schema())
                   : SearchArgument();
    preds.push_back(std::move(rp));
  }

  const StripeRange stripes =
      range.value_or(StripeRange{0, primary.num_stripes()});

  // When the two files' stripe structures diverge (the paper's alignment
  // optimization only covers single-stripe files), fall back to positional
  // combining: read the whole cache file once and slice cache rows by
  // absolute offset (the primary row offset of the range's first stripe).
  RecordBatch cache_full;
  size_t cache_row_offset = 0;
  if (cache != nullptr && !aligned) {
    for (size_t cs = 0; cs < cache->num_stripes(); ++cs) {
      MAXSON_ASSIGN_OR_RETURN(
          RecordBatch part,
          cache->ReadStripe(cs, cache_indexes, std::nullopt,
                            metrics != nullptr ? &metrics->read : nullptr));
      if (cs == 0) {
        cache_full = std::move(part);
      } else {
        for (size_t r = 0; r < part.num_rows(); ++r) {
          cache_full.AppendRow(part.GetRow(r));
        }
      }
    }
    for (size_t s = 0; s < stripes.begin; ++s) {
      cache_row_offset +=
          static_cast<size_t>(primary.footer().stripes[s].num_rows);
    }
  }

  for (size_t s = stripes.begin; s < stripes.end; ++s) {
    // Row-group inclusion, per subscriber: the raw SARG's exclusions ANDed
    // with the cache SARG's exclusions when alignment permits (Algorithm
    // 3); the pass then reads the union — a group survives when any
    // subscriber keeps it. raw_union tracks what raw pruning alone would
    // have read, so shared_skips still counts exactly the groups the cache
    // SARGs additionally excluded.
    std::vector<bool> include;
    std::vector<bool> raw_union;
    for (const ReconciledPair& rp : preds) {
      MAXSON_ASSIGN_OR_RETURN(std::vector<bool> inc,
                              primary.ComputeRowGroupInclusion(s, rp.raw));
      if (raw_union.empty()) raw_union.assign(inc.size(), false);
      for (size_t g = 0; g < inc.size(); ++g) {
        if (inc[g]) raw_union[g] = true;
      }
      if (aligned && !rp.cache.empty()) {
        MAXSON_ASSIGN_OR_RETURN(
            std::vector<bool> cache_include,
            cache->ComputeRowGroupInclusion(s, rp.cache));
        if (cache_include.size() == inc.size()) {
          for (size_t g = 0; g < inc.size(); ++g) {
            if (!cache_include[g]) inc[g] = false;
          }
        }
      }
      if (include.empty()) include.assign(inc.size(), false);
      for (size_t g = 0; g < inc.size(); ++g) {
        if (inc[g]) include[g] = true;
      }
    }
    if (metrics != nullptr) {
      for (size_t g = 0; g < include.size(); ++g) {
        if (raw_union[g] && !include[g]) ++metrics->shared_skips;
      }
    }

    MAXSON_ASSIGN_OR_RETURN(
        RecordBatch raw_batch,
        primary.ReadStripe(s, raw_indexes, include,
                           metrics != nullptr ? &metrics->read : nullptr));
    RecordBatch cache_batch;
    if (cache != nullptr) {
      if (aligned) {
        // The CacheReader honors the same inclusion vector, so the two
        // readers stay on identical rows (Algorithm 2's alignment
        // guarantee).
        MAXSON_ASSIGN_OR_RETURN(
            cache_batch,
            cache->ReadStripe(s, cache_indexes, include,
                              metrics != nullptr ? &metrics->read : nullptr));
      } else {
        // Positional fallback: slice the pre-read cache rows matching this
        // stripe's absolute row range.
        storage::Schema cache_schema;
        for (size_t c = 0; c < cache_indexes.size(); ++c) {
          cache_schema.AddField(cache_full.schema().field(c).name,
                                cache_full.schema().field(c).type);
        }
        cache_batch = RecordBatch(cache_schema);
        // Cache-only scans read no raw columns; the stripe's row count
        // comes from the primary footer in that case.
        const size_t stripe_rows =
            raw_indexes.empty()
                ? static_cast<size_t>(primary.footer().stripes[s].num_rows)
                : raw_batch.num_rows();
        for (size_t r = 0; r < stripe_rows; ++r) {
          cache_batch.AppendRow(cache_full.GetRow(cache_row_offset + r));
        }
        cache_row_offset += stripe_rows;
      }
      // Cache-only reading (every requested value is cached, Section
      // IV-B's relevance rationale) leaves the raw batch empty; row counts
      // must agree whenever both readers produced columns.
      if (!raw_indexes.empty() &&
          cache_batch.num_rows() != raw_batch.num_rows()) {
        return Status::Internal("value combiner row misalignment");
      }
      if (metrics != nullptr) {
        metrics->cache_columns_read += cache_indexes.size();
      }
    }

    // Value combiner: stitch each column into its position in the output
    // schema (Algorithm 2's index-by-name step happened once, at schema
    // build), a whole column at a time.
    for (size_t c = 0; c < raw_indexes.size(); ++c) {
      StitchColumn(std::move(raw_batch.column(c)), &out->column(c));
    }
    for (size_t c = 0; c < cache_indexes.size(); ++c) {
      StitchColumn(std::move(cache_batch.column(c)),
                   &out->column(raw_indexes.size() + c));
    }
  }
  return Status::Ok();
}

/// Degraded-mode scan of one stripe range: the cache file is unusable, so
/// every requested cache column is re-derived by parsing the raw string
/// column it was originally extracted from, through the PathExtractor the
/// cache build writes through — exactly what the query would have done with
/// caching disabled, so the rows are byte-identical either way. Only
/// possible when the spec carries the source column/path of every cache
/// column (MaxsonParser always fills them).
Status ScanSplitRawFallback(const ScanSpec& spec,
                            const std::vector<SargPair>& predicates,
                            const std::string& path,
                            std::optional<StripeRange> range,
                            RecordBatch* out, QueryMetrics* metrics) {
  CorcReader primary(path);
  MAXSON_RETURN_NOT_OK(primary.Open());

  // Read raw + source columns together (deduplicated): read_columns[c] is
  // batch slot c. Each distinct source column gets one extractor over the
  // paths derived from it; source_of[i] and path_of[i] locate cache
  // column i's (extractor, path).
  std::vector<int> read_columns;
  read_columns.reserve(spec.raw_columns.size());
  for (const std::string& name : spec.raw_columns) {
    const int idx = primary.schema().FindField(name);
    if (idx < 0) {
      return Status::NotFound("column " + name + " missing in " + path);
    }
    read_columns.push_back(idx);
  }
  struct Source {
    size_t slot = 0;
    std::vector<std::string> paths;
  };
  std::vector<Source> sources;
  std::vector<size_t> source_of;
  std::vector<size_t> path_of;
  for (const CacheColumnRequest& req : spec.cache_columns) {
    const int column = primary.schema().FindField(req.source_column);
    if (column < 0) {
      return Status::NotFound("fallback source column " + req.source_column +
                              " missing in " + path);
    }
    const size_t slot = static_cast<size_t>(
        std::find(read_columns.begin(), read_columns.end(), column) -
        read_columns.begin());
    if (slot == read_columns.size()) read_columns.push_back(column);
    size_t s = 0;
    while (s < sources.size() && sources[s].slot != slot) ++s;
    if (s == sources.size()) sources.push_back({slot, {}});
    source_of.push_back(s);
    path_of.push_back(sources[s].paths.size());
    sources[s].paths.push_back(req.source_path);
  }
  std::vector<PathExtractor> extractors;
  extractors.reserve(sources.size());
  for (const Source& source : sources) {
    extractors.emplace_back(source.paths, spec.json_backend);
    for (size_t k = 0; k < source.paths.size(); ++k) {
      MAXSON_RETURN_NOT_OK(extractors.back().status(k));
    }
  }

  // Pruning uses the raw SARGs only (their disjunction across
  // subscribers): the cache SARGs name cache fields, and the residual
  // filters re-check every surviving row anyway.
  std::vector<SearchArgument> raw_sargs;
  raw_sargs.reserve(predicates.size());
  for (const SargPair& p : predicates) {
    raw_sargs.push_back(ReconcileSargWithSchema(p.first, primary.schema()));
  }

  const StripeRange stripes =
      range.value_or(StripeRange{0, primary.num_stripes()});
  std::vector<storage::Value> row;
  for (size_t s = stripes.begin; s < stripes.end; ++s) {
    std::vector<bool> include;
    for (const SearchArgument& raw_sarg : raw_sargs) {
      MAXSON_ASSIGN_OR_RETURN(std::vector<bool> inc,
                              primary.ComputeRowGroupInclusion(s, raw_sarg));
      if (include.empty()) include.assign(inc.size(), false);
      for (size_t g = 0; g < inc.size(); ++g) {
        if (inc[g]) include[g] = true;
      }
    }
    MAXSON_ASSIGN_OR_RETURN(
        RecordBatch batch,
        primary.ReadStripe(s, read_columns, include,
                           metrics != nullptr ? &metrics->read : nullptr));
    Stopwatch parse_timer;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      row.clear();
      for (size_t c = 0; c < spec.raw_columns.size(); ++c) {
        row.push_back(batch.column(c).GetValue(r));
      }
      // One parse per record per source column, however many paths derive
      // from it.
      for (size_t i = 0; i < sources.size(); ++i) {
        const storage::ColumnVector& column = batch.column(sources[i].slot);
        if (column.IsNull(r)) continue;
        extractors[i].Load(column.GetString(r));
        if (metrics != nullptr) {
          ++metrics->parse.records_parsed;
          metrics->parse.bytes_parsed += column.GetString(r).size();
        }
      }
      for (size_t i = 0; i < source_of.size(); ++i) {
        // A NULL record or a missing path is NULL, as get_json_object.
        Result<std::string> value = Status::NotFound("");
        if (!batch.column(sources[source_of[i]].slot).IsNull(r)) {
          value = extractors[source_of[i]].Extract(path_of[i]);
        }
        row.push_back(value.ok() ? storage::Value::String(std::move(*value))
                                 : storage::Value::Null());
      }
      out->AppendRow(row);
    }
    if (metrics != nullptr) {
      metrics->parse_seconds += parse_timer.ElapsedSeconds();
    }
  }
  return Status::Ok();
}

/// One pass over one stripe range: the cached path first; on cache-side
/// corruption, quarantine the cache file and degrade to raw parsing so the
/// query still returns correct rows. Corruption of the *raw* file is not
/// recoverable — the fallback reads the same file and surfaces the same
/// error.
Status ScanSplit(const ScanSpec& spec,
                 const std::vector<SargPair>& predicates,
                 const std::string& path, size_t split_index,
                 std::optional<StripeRange> range, RecordBatch* out,
                 QueryMetrics* metrics) {
  Status status =
      ScanSplitCached(spec, predicates, path, split_index, range, out,
                      metrics);
  if (!status.IsCorruption() || spec.cache_columns.empty()) return status;
  for (const CacheColumnRequest& req : spec.cache_columns) {
    if (req.source_column.empty() || req.source_path.empty()) return status;
  }
  MAXSON_LOG(Warning) << "cache corruption on split " << split_index << " ("
                      << status.message() << "); re-deriving from raw";
  // Restart the pass from scratch: drop partially combined rows and the
  // failed attempt's accounting so totals stay deterministic.
  *out = RecordBatch(out->schema());
  if (metrics != nullptr) {
    *metrics = QueryMetrics();
    ++metrics->cache_corruption_fallbacks;
  }
  return ScanSplitRawFallback(spec, predicates, path, range, out, metrics);
}

// ---------------------------------------------------------------------------
// The scan: column keys, morsel construction, subscription.
// ---------------------------------------------------------------------------

/// Opaque column keys the scheduler unions and compares. Raw columns key by
/// physical name (so two plans spelling "o.price" and "price" share one
/// decode); cache columns key by their full binding including the fallback
/// source, so a pass can re-derive any subscriber's cache column on
/// corruption. Output names are per-subscriber and deliberately excluded.
constexpr char kKeySep = '\x1f';

std::string RawColumnKey(const std::string& name) {
  std::string key = "r";
  key.push_back(kKeySep);
  key.append(name);
  return key;
}

std::string CacheColumnKey(const CacheColumnRequest& req) {
  std::string key = "c";
  key.push_back(kKeySep);
  key.append(req.cache_table_dir);
  key.push_back(kKeySep);
  key.append(req.cache_field);
  key.push_back(kKeySep);
  key.append(req.source_column);
  key.push_back(kKeySep);
  key.append(req.source_path);
  return key;
}

Result<ScanSpec> SpecFromUnionKeys(const std::vector<std::string>& keys) {
  ScanSpec spec;
  for (const std::string& key : keys) {
    std::vector<std::string> parts;
    size_t start = 0;
    for (size_t i = 0; i <= key.size(); ++i) {
      if (i == key.size() || key[i] == kKeySep) {
        parts.push_back(key.substr(start, i - start));
        start = i + 1;
      }
    }
    if (parts.size() == 2 && parts[0] == "r") {
      spec.raw_columns.push_back(parts[1]);
    } else if (parts.size() == 5 && parts[0] == "c") {
      CacheColumnRequest req;
      req.cache_table_dir = parts[1];
      req.cache_field = parts[2];
      req.output_name = parts[2];  // internal to the pass; renamed on fanout
      req.source_column = parts[3];
      req.source_path = parts[4];
      spec.cache_columns.push_back(std::move(req));
    } else {
      return Status::Internal("malformed shared-scan column key");
    }
  }
  return spec;
}

/// Schema of a shared pass's union batch: one column per union key, *named
/// by the key* (keys are unique; subscribers map their columns by name), in
/// the pass's layout order — raw columns then cache columns, matching what
/// ScanSplitCached/RawFallback append. Types mirror ScanOutputSchema (raw
/// columns by the table schema, cache columns as strings) so each
/// subscriber's fan-out copies whole columns without conversion.
Schema UnionSchema(const ScanSpec& spec, const Schema& table_schema) {
  Schema out;
  for (const std::string& name : spec.raw_columns) {
    const int idx = table_schema.FindField(name);
    out.AddField(RawColumnKey(name),
                 idx >= 0 ? table_schema.field(static_cast<size_t>(idx)).type
                          : TypeKind::kString);
  }
  for (const CacheColumnRequest& req : spec.cache_columns) {
    out.AddField(CacheColumnKey(req), TypeKind::kString);
  }
  return out;
}

/// Chops the table's splits into morsels: stripe ranges of at least
/// `morsel_rows` rows. With `morsel_rows == 0` every split is one morsel
/// over all its stripes and no footer is opened here — the pass reads it
/// once. Only the primary files' footers are consulted — cache-side
/// problems must surface inside the pass, where the corruption fallback
/// can handle them.
Result<std::vector<exec::Morsel>> BuildMorsels(
    const std::vector<Split>& splits, size_t morsel_rows) {
  std::vector<exec::Morsel> morsels;
  for (const Split& split : splits) {
    exec::Morsel m;
    m.split_index = split.index;
    m.split_path = split.path;
    if (morsel_rows == 0) {
      m.end_stripe = exec::Morsel::kAllStripes;
      morsels.push_back(std::move(m));
      continue;
    }
    CorcReader reader(split.path);
    MAXSON_RETURN_NOT_OK(reader.Open());
    const size_t num_stripes = reader.num_stripes();
    uint64_t rows_in_morsel = 0;
    for (size_t s = 0; s < num_stripes; ++s) {
      rows_in_morsel +=
          static_cast<uint64_t>(reader.footer().stripes[s].num_rows);
      if (s + 1 < num_stripes && rows_in_morsel < morsel_rows) continue;
      m.end_stripe = s + 1;
      morsels.push_back(m);
      m.begin_stripe = s + 1;
      rows_in_morsel = 0;
    }
    // Keep one (empty) morsel for a 0-stripe split so every split is
    // represented, as it is with whole-split morsels.
    if (num_stripes == 0) morsels.push_back(std::move(m));
  }
  return morsels;
}

}  // namespace

Result<RecordBatch> ExecuteScan(const ScanNode& scan, QueryMetrics* metrics,
                                const ExecContext& ctx) {
  Stopwatch timer;
  MAXSON_ASSIGN_OR_RETURN(std::vector<Split> splits,
                          FileSystem::ListSplits(scan.table_dir));
  if (splits.empty()) {
    return Status::NotFound("no part files under " + scan.table_dir);
  }

  exec::ScanInterest interest;
  interest.table_key = scan.table_dir;
  interest.validity = ctx.scan_validity;
  for (const std::string& name : scan.columns) {
    interest.columns.push_back(RawColumnKey(name));
  }
  for (const CacheColumnRequest& req : scan.cache_columns) {
    interest.columns.push_back(CacheColumnKey(req));
  }
  interest.predicate.raw_sarg = scan.raw_sarg;
  interest.predicate.cache_sarg = scan.cache_sarg;
  interest.predicate.key =
      exec::ScanPredicate::KeyFor(scan.raw_sarg, scan.cache_sarg);
  MAXSON_ASSIGN_OR_RETURN(interest.morsels,
                          BuildMorsels(splits, ctx.morsel_rows));

  // Per-morsel accumulators for passes this query executes itself; merged
  // below in morsel order. Passes another query executed land in *its*
  // accumulators — per-query metrics under sharing reflect who did the
  // work, while the deterministic result rows are identical regardless.
  std::vector<QueryMetrics> morsel_metrics(interest.morsels.size());
  std::vector<double> morsel_seconds(interest.morsels.size(), 0.0);
  const auto pass_fn =
      [&](const exec::Morsel& morsel, size_t ordinal,
          const std::vector<std::string>& union_columns,
          const std::vector<exec::ScanPredicate>& predicates)
      -> Result<exec::SharedPassOutput> {
    Stopwatch pass_timer;
    MAXSON_ASSIGN_OR_RETURN(ScanSpec spec, SpecFromUnionKeys(union_columns));
    spec.json_backend = ctx.json_backend;
    std::vector<SargPair> pairs;
    pairs.reserve(predicates.size());
    for (const exec::ScanPredicate& p : predicates) {
      pairs.emplace_back(p.raw_sarg, p.cache_sarg);
    }
    std::optional<StripeRange> range;
    if (morsel.end_stripe != exec::Morsel::kAllStripes) {
      range = StripeRange{morsel.begin_stripe, morsel.end_stripe};
    }
    RecordBatch batch(UnionSchema(spec, scan.table_schema));
    QueryMetrics* slot = &morsel_metrics[ordinal];
    MAXSON_RETURN_NOT_OK(ScanSplit(spec, pairs, morsel.split_path,
                                   morsel.split_index, range, &batch, slot));
    morsel_seconds[ordinal] = pass_timer.ElapsedSeconds();
    exec::SharedPassOutput output;
    output.batch = std::move(batch);
    output.input_bytes =
        slot->read.bytes_read + slot->parse.bytes_parsed;
    return output;
  };

  // A lone query subscribes to a manager no other query can reach; with
  // sharing on, concurrent queries may attach to each other's passes.
  exec::SharedScanManager private_manager;
  exec::SharedScanManager& manager =
      ctx.shared_scan != nullptr ? *ctx.shared_scan : private_manager;
  std::unique_ptr<exec::ScanSubscription> sub =
      manager.Subscribe(interest, pass_fn);
  MAXSON_RETURN_NOT_OK(sub->Collect(ctx.pool, ctx.cancel));

  // Fan-out: copy this scan's columns out of each union batch, whole
  // columns in morsel order, so rows match at every sharing mode.
  RecordBatch out(ScanOutputSchema(scan));
  for (size_t i = 0; i < sub->num_morsels(); ++i) {
    const RecordBatch& batch = sub->batch(i);
    const std::vector<size_t> mapping = sub->ColumnMapping(i);
    for (size_t c = 0; c < mapping.size(); ++c) {
      StitchColumn(storage::ColumnVector(batch.column(mapping[c])),
                   &out.column(c));
    }
    if (metrics != nullptr && sub->executed_by_self(i)) {
      metrics->Accumulate(morsel_metrics[i]);
    }
    sub->Release(i);
  }

  if (metrics != nullptr) {
    metrics->read_seconds += timer.ElapsedSeconds();
    OperatorStats op;
    op.name = "Scan";
    op.detail = scan.table_dir;
    op.rows_out = out.num_rows();
    op.units = interest.morsels.size();
    op.cache_columns = scan.cache_columns.size();
    op.wall_seconds = timer.ElapsedSeconds();
    for (double s : morsel_seconds) op.cpu_seconds += s;
    metrics->operators.push_back(std::move(op));
  }
  return out;
}

}  // namespace maxson::engine
