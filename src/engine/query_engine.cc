#include "srs/engine/query_engine.h"

#include <algorithm>

#include "srs/core/single_source_kernel.h"
#include "srs/core/topk.h"

namespace srs {

const char* QueryMeasureToString(QueryMeasure measure) {
  switch (measure) {
    case QueryMeasure::kSimRankStarGeometric:
      return "gsr-star";
    case QueryMeasure::kSimRankStarExponential:
      return "esr-star";
    case QueryMeasure::kRwr:
      return "rwr";
  }
  return "unknown";
}

int QueryMeasureTag(QueryMeasure measure) {
  return static_cast<int>(measure);
}

MeasureEvaluator::MeasureEvaluator(
    std::shared_ptr<const GraphSnapshot> snapshot,
    const SimilarityOptions& similarity)
    : backend_(MakeKernelBackend(similarity)),
      damping_(similarity.damping) {
  const int k_geo = EffectiveIterations(similarity, /*exponential=*/false);
  const int k_exp = EffectiveIterations(similarity, /*exponential=*/true);
  geometric_weights_ = GeometricStarLengthWeights(similarity.damping, k_geo);
  exponential_weights_ =
      ExponentialStarLengthWeights(similarity.damping, k_exp);
  rwr_iterations_ = k_geo;
  Rebind(std::move(snapshot), similarity);
}

void MeasureEvaluator::Rebind(std::shared_ptr<const GraphSnapshot> snapshot,
                              const SimilarityOptions& similarity) {
  SRS_CHECK(snapshot_ == nullptr ||
            snapshot->num_nodes == snapshot_->num_nodes)
      << "rebind across graphs of different sizes";
  snapshot_ = std::move(snapshot);
  for (QueryMeasure m : {QueryMeasure::kSimRankStarGeometric,
                         QueryMeasure::kSimRankStarExponential,
                         QueryMeasure::kRwr}) {
    // The snapshot's version fingerprint goes into every digest: the key's
    // graph fingerprint is version-stable, so this is what keeps answers
    // from different versions of one chain apart in a shared cache.
    digests_[QueryMeasureTag(m)] = ResultDigest(
        similarity, QueryMeasureTag(m), snapshot_->version_fingerprint);
  }
  // O(k_max) from the snapshot's memoized row sums — binding a cached
  // snapshot does no O(nnz) work.
  tails_[QueryMeasureTag(QueryMeasure::kSimRankStarGeometric)] =
      BinomialResidualTails(geometric_weights_, snapshot_->gamma_q,
                            snapshot_->gamma_qt);
  tails_[QueryMeasureTag(QueryMeasure::kSimRankStarExponential)] =
      BinomialResidualTails(exponential_weights_, snapshot_->gamma_q,
                            snapshot_->gamma_qt);
  tails_[QueryMeasureTag(QueryMeasure::kRwr)] = RwrResidualTails(
      damping_, rwr_iterations_, snapshot_->gamma_wt);
}

void MeasureEvaluator::Compute(QueryMeasure measure, NodeId query,
                               KernelWorkspace* workspace,
                               std::vector<double>* out) const {
  switch (measure) {
    case QueryMeasure::kSimRankStarGeometric:
      backend_->AccumulateBinomialColumn(snapshot_->q, snapshot_->qt, query,
                                         geometric_weights_, workspace, out);
      return;
    case QueryMeasure::kSimRankStarExponential:
      backend_->AccumulateBinomialColumn(snapshot_->q, snapshot_->qt, query,
                                         exponential_weights_, workspace,
                                         out);
      return;
    case QueryMeasure::kRwr:
      backend_->RwrColumn(snapshot_->wt, snapshot_->w, query, damping_,
                          rwr_iterations_, workspace, out);
      return;
  }
  SRS_CHECK(false) << "unknown QueryMeasure";
}

PartialColumnEvaluation* MeasureEvaluator::BeginCompute(
    QueryMeasure measure, NodeId query, KernelWorkspace* workspace,
    std::vector<double>* out) const {
  switch (measure) {
    case QueryMeasure::kSimRankStarGeometric:
      return backend_->BeginBinomialColumn(snapshot_->q, snapshot_->qt,
                                           query, geometric_weights_,
                                           workspace, out);
    case QueryMeasure::kSimRankStarExponential:
      return backend_->BeginBinomialColumn(snapshot_->q, snapshot_->qt,
                                           query, exponential_weights_,
                                           workspace, out);
    case QueryMeasure::kRwr:
      return backend_->BeginRwrColumn(snapshot_->wt, snapshot_->w, query,
                                      damping_, rwr_iterations_, workspace,
                                      out);
  }
  SRS_CHECK(false) << "unknown QueryMeasure";
  return nullptr;
}

Status MeasureEvaluator::ValidateBatch(const std::vector<NodeId>& nodes,
                                       const char* what) const {
  if (nodes.empty()) {
    return Status::InvalidArgument(std::string(what) + " batch is empty");
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] < 0 || nodes[i] >= snapshot_->num_nodes) {
      return Status::OutOfRange(
          "batch entry " + std::to_string(i) + ": " + what + " node " +
          std::to_string(nodes[i]) + " out of range for " +
          std::to_string(snapshot_->num_nodes) + " nodes");
    }
  }
  return Status::OK();
}

QueryEngine::QueryEngine(std::shared_ptr<const GraphSnapshot> snapshot,
                         const QueryEngineOptions& options)
    : options_(options), eval_(std::move(snapshot), options.similarity) {
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  workspaces_ =
      std::make_unique<std::vector<std::unique_ptr<KernelWorkspace>>>();
  workspaces_->reserve(static_cast<size_t>(pool_->NumWorkers()));
  for (int i = 0; i < pool_->NumWorkers(); ++i) {
    workspaces_->push_back(eval_.NewWorkspace());
  }
  score_buffers_ = std::make_unique<std::vector<std::vector<double>>>(
      static_cast<size_t>(pool_->NumWorkers()));
}

namespace {

/// Shared option resolution of the full-row engines: pool sizing plus the
/// top-k knob normalization that keeps their digests canonical.
Result<QueryEngineOptions> ResolveFullRowOptions(
    const QueryEngineOptions& options) {
  SRS_RETURN_NOT_OK(ValidateSimilarityOptions(options.similarity));
  QueryEngineOptions resolved = options;
  if (resolved.num_threads <= 0) resolved.num_threads = HardwareThreads();
  // This engine serves full rows whatever the top-k knobs say; normalize
  // them so its cache digests are the canonical full-row ones.
  resolved.similarity.top_k = 0;
  resolved.similarity.topk_early_termination = true;
  return resolved;
}

}  // namespace

Result<QueryEngine> QueryEngine::Create(const GraphRef& graph,
                                        const QueryEngineOptions& options) {
  SRS_ASSIGN_OR_RETURN(QueryEngineOptions resolved,
                       ResolveFullRowOptions(options));
  SRS_ASSIGN_OR_RETURN(std::shared_ptr<const GraphSnapshot> snapshot,
                       graph.Resolve(resolved.snapshot_cache));
  return QueryEngine(std::move(snapshot), resolved);
}

Result<std::vector<std::vector<double>>> QueryEngine::BatchScores(
    QueryMeasure measure, const std::vector<NodeId>& queries) {
  SRS_RETURN_NOT_OK(eval_.ValidateBatch(queries, "query"));
  std::vector<std::vector<double>> results(queries.size());
  ResultCache* cache = options_.result_cache.get();
  auto compute = [&](size_t i, int worker) {
    eval_.Compute(measure, queries[i],
                  (*workspaces_)[static_cast<size_t>(worker)].get(),
                  &results[i]);
  };
  if (cache == nullptr) {
    pool_->ParallelForIndexed(
        0, static_cast<int64_t>(queries.size()),
        [&](int64_t i, int worker) { compute(static_cast<size_t>(i), worker); });
    return results;
  }
  // Cached path: probe serially (a hit is a hash lookup plus one vector
  // copy), then fan the misses out across the pool. Duplicate misses in one
  // batch are each computed; the second Put merely refreshes the entry.
  std::vector<int64_t> miss;
  miss.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (ResultCache::Value hit = cache->Get(eval_.KeyFor(measure, queries[i]))) {
      results[i] = *hit;
    } else {
      miss.push_back(static_cast<int64_t>(i));
    }
  }
  pool_->ParallelForIndexed(
      0, static_cast<int64_t>(miss.size()), [&](int64_t mi, int worker) {
        const size_t i = static_cast<size_t>(miss[static_cast<size_t>(mi)]);
        compute(i, worker);
        cache->Put(eval_.KeyFor(measure, queries[i]),
                   std::make_shared<const std::vector<double>>(results[i]));
      });
  return results;
}

Result<std::vector<std::vector<RankedNode>>> QueryEngine::BatchTopK(
    QueryMeasure measure, const std::vector<NodeId>& queries, size_t k) {
  SRS_RETURN_NOT_OK(eval_.ValidateBatch(queries, "query"));
  std::vector<std::vector<RankedNode>> results(queries.size());
  // All result storage is reserved before dispatch (a ranking can never
  // exceed the node count, whatever k the caller asks for); inside the hot
  // loop the workers reuse their workspaces and score buffers, so the
  // steady state allocates nothing per query. With a result cache, misses
  // additionally allocate the cached copy.
  const size_t reserve = std::min(k, static_cast<size_t>(NumNodes()));
  for (std::vector<RankedNode>& r : results) r.reserve(reserve);
  ResultCache* cache = options_.result_cache.get();
  pool_->ParallelForIndexed(
      0, static_cast<int64_t>(queries.size()), [&](int64_t i, int worker) {
        const NodeId query = queries[static_cast<size_t>(i)];
        if (cache != nullptr) {
          if (ResultCache::Value hit = cache->Get(eval_.KeyFor(measure, query))) {
            TopKInto(*hit, k, query, &results[static_cast<size_t>(i)]);
            return;
          }
        }
        std::vector<double>& scores =
            (*score_buffers_)[static_cast<size_t>(worker)];
        eval_.Compute(measure, query,
                      (*workspaces_)[static_cast<size_t>(worker)].get(),
                      &scores);
        TopKInto(scores, k, query, &results[static_cast<size_t>(i)]);
        if (cache != nullptr) {
          cache->Put(eval_.KeyFor(measure, query),
                     std::make_shared<const std::vector<double>>(scores));
        }
      });
  return results;
}

}  // namespace srs
