#include "srs/engine/service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "srs/common/hashing.h"
#include "srs/common/logging.h"
#include "srs/common/timer.h"
#include "srs/engine/delta_invalidation.h"
#include "srs/observability/instruments.h"

namespace srs {

namespace {

// Serving-shape tags folded into engine memo keys (private to the
// service's LRU — unrelated to QueryMeasureTag).
constexpr int kShapeFullRow = 0;
constexpr int kShapeRanked = 1;
constexpr int kShapeStream = 2;

SnapshotCache* ResolveSnapshotCache(const SrsServiceOptions& options) {
  return options.snapshot_cache != nullptr ? options.snapshot_cache
                                           : &GlobalSnapshotCache();
}

/// Memo key of one (shape, options) engine configuration. ResultDigest
/// folds every score-affecting option; the shape tag keeps the three
/// engine kinds from ever sharing a slot even under identical options. No
/// version: a slot's engine is rebound to each request's.
uint64_t EngineKey(int shape_tag, const SimilarityOptions& options) {
  const uint64_t h = FnvHashCombine(kFnvOffsetBasis,
                                    static_cast<uint64_t>(shape_tag));
  return FnvHashCombine(h, ResultDigest(options, shape_tag));
}

/// Points a warm engine at `version` of `graph` unless it already serves
/// it. The warm path costs one integer compare; a version step costs a
/// snapshot-cache lookup and the evaluator's O(k_max) rebind, and keeps
/// the engine's pool and workspaces.
template <typename Engine>
Status BindVersion(Engine* engine, const VersionedGraph& graph,
                   uint64_t version, SnapshotCache* cache) {
  if (engine->snapshot()->version == version) return Status::OK();
  SRS_ASSIGN_OR_RETURN(std::shared_ptr<const GraphSnapshot> snapshot,
                       cache->Get(graph, version));
  engine->Rebind(std::move(snapshot));
  return Status::OK();
}

}  // namespace

SrsService::SrsService(VersionedGraph graph, const SrsServiceOptions& options)
    : options_(options), graph_(std::move(graph)) {}

Result<std::unique_ptr<SrsService>> SrsService::Create(
    Graph base, const SrsServiceOptions& options) {
  // The defaults are validated up front so protocol-level merging always
  // starts from a servable configuration; per-request options are
  // validated again by the engines they reach.
  SRS_RETURN_NOT_OK(ValidateSimilarityOptions(options.similarity));
  std::unique_ptr<SrsService> service(
      new SrsService(VersionedGraph(std::move(base)), options));
  SRS_ASSIGN_OR_RETURN(
      service->head_snapshot_,
      ResolveSnapshotCache(service->options_)->Get(service->graph_, 0));
  if (!options.data_dir.empty()) {
    SRS_ASSIGN_OR_RETURN(
        service->store_,
        DurableStore::Initialize(options.data_dir,
                                 *service->graph_.MaterializedBase(0),
                                 *service->head_snapshot_));
    service->stats_.wal_bytes = service->store_->WalSizeBytes();
    ++service->stats_.checkpoints;
  }
  return service;
}

Result<std::unique_ptr<SrsService>> SrsService::Recover(
    const SrsServiceOptions& options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("Recover requires options.data_dir");
  }
  SRS_RETURN_NOT_OK(ValidateSimilarityOptions(options.similarity));
  DurableStore::Recovered recovered;
  SRS_ASSIGN_OR_RETURN(std::unique_ptr<DurableStore> store,
                       DurableStore::Recover(options.data_dir, &recovered));

  // Re-root the chain at the snapshot's version: ids and fingerprints
  // continue the crashed process's chain, so replay below reproduces them
  // exactly.
  std::unique_ptr<SrsService> service(new SrsService(
      VersionedGraph::Restore(std::move(recovered.snapshot.graph),
                              recovered.snapshot.version,
                              recovered.snapshot.version_fingerprint,
                              recovered.snapshot.base_fingerprint),
      options));
  service->store_ = std::move(store);
  service->recovery_info_ = recovered.info;

  // Seed the cache with the file-loaded snapshot: the serving matrices
  // arrive bit-exact from disk, so neither the root nor any replayed
  // version pays the O(m log m) renormalization.
  SnapshotCache* cache = ResolveSnapshotCache(service->options_);
  service->head_snapshot_ = cache->Seed(recovered.snapshot.snapshot);
  service->served_version_ = recovered.snapshot.version;

  for (const Wal::Record& record : recovered.tail) {
    // The log is trusted only if it provably extends this snapshot:
    // recompute each record's version fingerprint from the chain and
    // refuse to serve on a mismatch (foreign log, reordered records).
    const uint64_t expect_vfp =
        service->graph_.NextVersionFingerprint(record.delta);
    if (expect_vfp != record.version_fingerprint) {
      return Status::IoError(
          "wal record for version " + std::to_string(record.version) +
          " does not extend the snapshot chain (fingerprint mismatch)");
    }
    SRS_ASSIGN_OR_RETURN(const uint64_t version,
                         service->graph_.Apply(record.delta));
    SRS_CHECK(version == record.version);
    SRS_ASSIGN_OR_RETURN(service->head_snapshot_,
                         cache->Get(service->graph_, version));
    service->served_version_ = version;
  }
  service->stats_.wal_bytes = service->store_->WalSizeBytes();
  return service;
}

Result<uint64_t> SrsService::ResolveVersion(uint64_t requested) const {
  if (requested == kLatestVersion) return served_version_;
  if (requested < graph_.FirstVersion() ||
      requested > graph_.CurrentVersion()) {
    return Status::InvalidArgument(
        "version " + std::to_string(requested) +
        " out of range; serving [" + std::to_string(graph_.FirstVersion()) +
        ", " + std::to_string(graph_.CurrentVersion()) + "]");
  }
  return requested;
}

template <typename BuildFn>
Result<std::shared_ptr<SrsService::EngineSlot>> SrsService::GetSlot(
    uint64_t key, bool* reused, BuildFn build) {
  for (const std::shared_ptr<EngineSlot>& slot : engines_) {
    if (slot->key == key) {
      slot->last_use = ++use_counter_;
      *reused = true;
      ++stats_.engines_reused;
      return slot;
    }
  }
  // Evict the LRU victim *before* building the newcomer, so peak
  // residency is max_engines warm engines — not max_engines + 1 while the
  // new one constructs. A stream still running on the victim keeps it
  // alive through its own shared_ptr.
  while (engines_.size() >= std::max<size_t>(1, options_.max_engines)) {
    size_t victim = 0;
    for (size_t i = 1; i < engines_.size(); ++i) {
      if (engines_[i]->last_use < engines_[victim]->last_use) victim = i;
    }
    engines_.erase(engines_.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  auto slot = std::make_shared<EngineSlot>();
  slot->key = key;
  SRS_RETURN_NOT_OK(build(slot.get()));
  slot->last_use = ++use_counter_;
  *reused = false;
  ++stats_.engines_created;
  engines_.push_back(slot);
  return slot;
}

Result<QueryResponse> SrsService::Query(const QueryRequest& request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (request.deadline.has_value() &&
      std::chrono::steady_clock::now() >= *request.deadline) {
    return Status::DeadlineExceeded("deadline passed before dispatch");
  }
  // One timing switch for both consumers: the batch-latency histograms
  // and a requested trace. Off, the query path reads the clock zero
  // times beyond the deadline check above.
  const bool timed = MetricsEnabled() || request.collect_trace;
  Timer stage;
  SRS_ASSIGN_OR_RETURN(const uint64_t version,
                       ResolveVersion(request.version));
  const bool ranked = request.options.top_k > 0;

  QueryResponse response;
  response.version = version;
  response.ranked = ranked;
  ++stats_.queries;

  if (ranked) {
    const uint64_t key = EngineKey(kShapeRanked, request.options);
    SRS_ASSIGN_OR_RETURN(
        std::shared_ptr<EngineSlot> slot,
        GetSlot(key, &response.engine_reused, [&](EngineSlot* s) -> Status {
          TopKEngineOptions opts;
          opts.similarity = request.options;
          opts.num_threads = options_.num_threads;
          opts.result_cache = options_.result_cache;
          opts.snapshot_cache = ResolveSnapshotCache(options_);
          SRS_ASSIGN_OR_RETURN(TopKEngine engine,
                               TopKEngine::Create({graph_, version}, opts));
          s->ranked = std::make_unique<TopKEngine>(std::move(engine));
          return Status::OK();
        }));
    SRS_RETURN_NOT_OK(BindVersion(slot->ranked.get(), graph_, version,
                                  ResolveSnapshotCache(options_)));
    const double resolve_s = timed ? stage.Seconds() : 0.0;
    SRS_ASSIGN_OR_RETURN(
        std::vector<TopKResult> results,
        slot->ranked->BatchTopK(request.measure, request.sources));
    if (timed) {
      const double compute_s = stage.Seconds() - resolve_s;
      QueryBatchSecondsHistogram("ranked")->Observe(compute_s);
      QueryBatchSourcesHistogram("ranked")->Observe(
          static_cast<double>(request.sources.size()));
      if (request.collect_trace) {
        response.trace.collected = true;
        response.trace.resolve_ms = resolve_s * 1e3;
        response.trace.compute_ms = compute_s * 1e3;
      }
    }
    response.rows.resize(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
      QueryRowResult& row = response.rows[i];
      row.source = request.sources[i];
      row.ranking = std::move(results[i].ranking);
      row.levels_evaluated = results[i].levels_evaluated;
      row.levels_total = results[i].levels_total;
      row.residual_bound = results[i].residual_bound;
      row.served_from_cache = results[i].served_from_cache;
    }
  } else {
    const uint64_t key = EngineKey(kShapeFullRow, request.options);
    SRS_ASSIGN_OR_RETURN(
        std::shared_ptr<EngineSlot> slot,
        GetSlot(key, &response.engine_reused, [&](EngineSlot* s) -> Status {
          QueryEngineOptions opts;
          opts.similarity = request.options;
          opts.num_threads = options_.num_threads;
          opts.result_cache = options_.result_cache;
          opts.snapshot_cache = ResolveSnapshotCache(options_);
          SRS_ASSIGN_OR_RETURN(QueryEngine engine,
                               QueryEngine::Create({graph_, version}, opts));
          s->full = std::make_unique<QueryEngine>(std::move(engine));
          return Status::OK();
        }));
    SRS_RETURN_NOT_OK(BindVersion(slot->full.get(), graph_, version,
                                  ResolveSnapshotCache(options_)));
    const double resolve_s = timed ? stage.Seconds() : 0.0;
    SRS_ASSIGN_OR_RETURN(
        std::vector<std::vector<double>> scores,
        slot->full->BatchScores(request.measure, request.sources));
    if (timed) {
      const double compute_s = stage.Seconds() - resolve_s;
      QueryBatchSecondsHistogram("full")->Observe(compute_s);
      QueryBatchSourcesHistogram("full")->Observe(
          static_cast<double>(request.sources.size()));
      if (request.collect_trace) {
        response.trace.collected = true;
        response.trace.resolve_ms = resolve_s * 1e3;
        response.trace.compute_ms = compute_s * 1e3;
      }
    }
    response.rows.resize(scores.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      response.rows[i].source = request.sources[i];
      response.rows[i].scores = std::move(scores[i]);
    }
  }
  stats_.rows_served += response.rows.size();
  if (request.collect_trace) {
    response.trace.engine_reused = response.engine_reused;
  }
  return response;
}

Status SrsService::StreamRows(const QueryRequest& request,
                              const RowCallback& fn) {
  // The service lock covers only version, snapshot and slot resolution.
  // The stream itself — and therefore every `fn` invocation — runs outside
  // it, so a callback that re-enters the service (Stats(), Query(), another
  // StreamRows) cannot self-deadlock. The engine only reads its immutable
  // snapshot, so a concurrent ApplyDelta is safe; eviction of this slot
  // mid-stream is safe too (the shared_ptr keeps the engine alive).
  std::shared_ptr<EngineSlot> slot;
  std::shared_ptr<const GraphSnapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (request.deadline.has_value() &&
        std::chrono::steady_clock::now() >= *request.deadline) {
      return Status::DeadlineExceeded("deadline passed before dispatch");
    }
    SRS_ASSIGN_OR_RETURN(const uint64_t version,
                         ResolveVersion(request.version));
    // The chain is read here, under the lock; the engine is rebound to
    // this snapshot only once its own lock is held below.
    SRS_ASSIGN_OR_RETURN(snapshot,
                         ResolveSnapshotCache(options_)->Get(graph_, version));
    const uint64_t key = EngineKey(kShapeStream, request.options);
    bool reused = false;
    SRS_ASSIGN_OR_RETURN(
        slot, GetSlot(key, &reused, [&](EngineSlot* s) -> Status {
          AllPairsOptions opts;
          opts.similarity = request.options;
          opts.num_threads = options_.num_threads;
          opts.tile_size = options_.tile_size;
          opts.result_cache = options_.result_cache;
          opts.snapshot_cache = ResolveSnapshotCache(options_);
          SRS_ASSIGN_OR_RETURN(
              AllPairsEngine engine,
              AllPairsEngine::Create({graph_, version}, opts));
          s->rows = std::make_unique<AllPairsEngine>(std::move(engine));
          return Status::OK();
        }));
    ++stats_.queries;
  }
  {
    // Engines are thread-compatible: two streams that resolved the same
    // slot serialize here, outside the service lock, and each points the
    // engine at its own version.
    std::lock_guard<std::mutex> exec(slot->exec_mu);
    if (slot->rows->snapshot()->version != snapshot->version) {
      slot->rows->Rebind(std::move(snapshot));
    }
    Timer stream_timer;
    SRS_RETURN_NOT_OK(
        slot->rows->ForEachRow(request.measure, request.sources, fn));
    if (MetricsEnabled()) {
      QueryBatchSecondsHistogram("allpairs")->Observe(stream_timer.Seconds());
      QueryBatchSourcesHistogram("allpairs")->Observe(
          static_cast<double>(request.sources.size()));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.rows_served += request.sources.size();
  return Status::OK();
}

Result<uint64_t> SrsService::ApplyDelta(const EdgeDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  // srs_delta_stage_seconds{stage}: each stage is timed from the end of
  // the previous one.
  Timer stage_timer;
  auto end_stage = [&stage_timer](std::string_view stage) {
    if (MetricsEnabled()) {
      DeltaStageSecondsHistogram(stage)->Observe(stage_timer.Seconds());
    }
    stage_timer.Restart();
  };
  if (store_ != nullptr) {
    // Write-ahead ordering: validate what Apply would validate, frame the
    // record with the version/fingerprint the chain is about to mint, and
    // fsync it — only then mutate. An acknowledged delta is durable even
    // if the process dies on the very next instruction.
    if (delta.num_nodes() != graph_.NumNodes()) {
      return Status::InvalidArgument(
          "delta built for " + std::to_string(delta.num_nodes()) +
          " nodes applied to a graph of " +
          std::to_string(graph_.NumNodes()));
    }
    Wal::Record record;
    record.version = graph_.CurrentVersion() + 1;
    record.version_fingerprint = graph_.NextVersionFingerprint(delta);
    record.delta = delta;
    SRS_RETURN_NOT_OK(store_->LogDelta(record));
    end_stage("wal");
  }
  SRS_ASSIGN_OR_RETURN(const uint64_t version, graph_.Apply(delta));
  end_stage("apply");
  // Deriving through the cache is the incremental path: only the rows the
  // delta touched are recomputed and patched over the head snapshot.
  SRS_ASSIGN_OR_RETURN(
      std::shared_ptr<const GraphSnapshot> child,
      ResolveSnapshotCache(options_)->Get(graph_, version));
  end_stage("derive");
  if (options_.result_cache != nullptr && head_snapshot_ != nullptr &&
      child->version == head_snapshot_->version + 1) {
    // Carry provably-unaffected rows (under the service's default digest)
    // across the version step; rows cached under other option digests age
    // out on their own. Propagation failure would leave stale-but-
    // unreachable entries, never a wrong answer — the version fingerprint
    // in every digest guarantees that — so it is logged, not fatal.
    Result<DeltaInvalidationStats> propagated =
        PropagateResultCacheAcrossDelta(options_.result_cache.get(),
                                        *head_snapshot_, *child,
                                        options_.similarity);
    if (propagated.ok()) {
      stats_.cache_rows_retained += propagated.ValueOrDie().retained;
      stats_.cache_rows_evicted += propagated.ValueOrDie().evicted;
    } else {
      SRS_LOG(Warning) << "result-cache propagation to version " << version
                       << " failed: " << propagated.status().ToString();
    }
    end_stage("propagate");
  }
  // The swap: from here on, kLatestVersion resolves to the child. Requests
  // already dispatched finished before we took the lock, so every response
  // is wholly one version.
  head_snapshot_ = std::move(child);
  served_version_ = version;
  ++stats_.deltas_applied;
  if (store_ != nullptr) {
    // Checkpoint when the chain just compacted (the materialized graph is
    // sitting right there) or the log has outgrown its budget — the
    // on-disk mirror of the in-memory compact_fraction policy. A failed
    // checkpoint is not fatal: the delta above is already durable in the
    // WAL, so recovery still lands on this exact version.
    const bool compacted = graph_.IsCompacted(version);
    if (compacted || store_->WalSizeBytes() > options_.wal_max_bytes) {
      Status persisted = Status::OK();
      if (compacted) {
        persisted = store_->WriteCheckpoint(*graph_.MaterializedBase(version),
                                            *head_snapshot_);
      } else {
        Result<Graph> materialized = graph_.Materialize(version);
        persisted = materialized.ok()
                        ? store_->WriteCheckpoint(
                              materialized.ValueOrDie(), *head_snapshot_)
                        : materialized.status();
      }
      end_stage("checkpoint");
      if (persisted.ok()) {
        ++stats_.checkpoints;
      } else {
        SRS_LOG(Warning) << "checkpoint failed (will retry after next "
                            "delta): "
                         << persisted.ToString();
      }
    }
    stats_.wal_bytes = store_->WalSizeBytes();
  }
  return version;
}

uint64_t SrsService::ServedVersion() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_version_;
}

int64_t SrsService::NumNodes() const { return graph_.NumNodes(); }

ServiceStats SrsService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

RecoveryInfo SrsService::recovery_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_info_;
}

size_t SrsService::WarmEngineCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engines_.size();
}

void SrsService::RegisterMetrics(MetricsRegistry* registry) {
  MetricsRegistry* reg = registry != nullptr ? registry : &GlobalMetrics();
  metrics_.Reset();
  struct Field {
    const char* name;
    const char* help;
    MetricType type;
    double (*get)(const ServiceStats&);
  };
  static constexpr Field kFields[] = {
      {"srs_service_queries_total", "Query()/StreamRows() calls served",
       MetricType::kCounter,
       [](const ServiceStats& s) { return static_cast<double>(s.queries); }},
      {"srs_service_rows_served_total", "Individual source rows answered",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.rows_served);
       }},
      {"srs_service_engines_created_total", "Cold engine constructions",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.engines_created);
       }},
      {"srs_service_engines_reused_total",
       "Requests served by a warm engine", MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.engines_reused);
       }},
      {"srs_service_deltas_applied_total", "Successful ApplyDelta() calls",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.deltas_applied);
       }},
      {"srs_service_cache_rows_retained_total",
       "ResultCache rows carried across deltas bit-intact",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.cache_rows_retained);
       }},
      {"srs_service_cache_rows_evicted_total",
       "ResultCache rows dropped by delta invalidation",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.cache_rows_evicted);
       }},
      {"srs_service_checkpoints_total",
       "Snapshot checkpoint files written (durable mode)",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.checkpoints);
       }},
      {"srs_service_wal_bytes", "Current WAL size (durable mode)",
       MetricType::kGauge,
       [](const ServiceStats& s) {
         return static_cast<double>(s.wal_bytes);
       }},
  };
  for (const Field& field : kFields) {
    metrics_.Add(reg, field.name, field.help, field.type, {},
                 [this, get = field.get] { return get(Stats()); });
  }
  metrics_.Add(reg, "srs_service_served_version",
               "Graph version kLatestVersion currently resolves to",
               MetricType::kGauge, {},
               [this] { return static_cast<double>(ServedVersion()); });
  metrics_.Add(reg, "srs_service_num_nodes", "Nodes in the served graph",
               MetricType::kGauge, {},
               [this] { return static_cast<double>(NumNodes()); });
  metrics_.Add(reg, "srs_service_warm_engines",
               "Warm engines resident in the service LRU",
               MetricType::kGauge, {},
               [this] { return static_cast<double>(WarmEngineCount()); });
  struct RecoveryField {
    const char* name;
    const char* help;
    double (*get)(const RecoveryInfo&);
  };
  static constexpr RecoveryField kRecovery[] = {
      {"srs_recovery_from_disk",
       "1 when this process restarted from on-disk state",
       [](const RecoveryInfo& r) {
         return r.recovered_from_disk ? 1.0 : 0.0;
       }},
      {"srs_recovery_snapshot_version",
       "Version of the snapshot file recovery loaded",
       [](const RecoveryInfo& r) {
         return static_cast<double>(r.snapshot_version);
       }},
      {"srs_recovery_replayed_deltas",
       "WAL records replayed on top of the recovered snapshot",
       [](const RecoveryInfo& r) {
         return static_cast<double>(r.replayed_deltas);
       }},
      {"srs_recovery_skipped_obsolete",
       "Obsolete WAL records recovery skipped",
       [](const RecoveryInfo& r) {
         return static_cast<double>(r.skipped_obsolete);
       }},
      {"srs_recovery_wal_tail_truncated",
       "1 when recovery truncated a torn WAL tail",
       [](const RecoveryInfo& r) {
         return r.wal_tail_truncated ? 1.0 : 0.0;
       }},
  };
  for (const RecoveryField& field : kRecovery) {
    metrics_.Add(reg, field.name, field.help, MetricType::kGauge, {},
                 [this, get = field.get] { return get(recovery_info()); });
  }
  if (options_.result_cache != nullptr) {
    options_.result_cache->RegisterMetrics(reg);
  }
  ResolveSnapshotCache(options_)->RegisterMetrics(reg);
}

}  // namespace srs
