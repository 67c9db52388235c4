#pragma once

/// \file query_engine.h
/// \brief Batched single-source similarity serving over a graph snapshot.
///
/// The one-off entry points in core/single_source.h rebuild the normalized
/// transition matrices (`Q`, `Qᵀ`, `Wᵀ`) and allocate fresh level-vector
/// buffers on every call — fine for a CLI invocation, hopeless for serving
/// heavy query traffic. The QueryEngine is the serving path:
///
///  * it obtains the graph's transition structure as a shared immutable
///    `GraphSnapshot` (engine/snapshot.h) — memoized in a SnapshotCache, so
///    several engines over one graph share a single copy;
///  * it owns a reusable ThreadPool (common/parallel.h) whose workers stay
///    parked between batches;
///  * each worker owns a backend workspace (core/kernel_backend.h) that is
///    sized on first use and reused for every subsequent query, so the
///    steady-state hot loop performs **zero per-query heap allocations**;
///  * batches of query nodes are claimed dynamically across workers, which
///    load-balances the skewed per-query cost of power-law graphs;
///  * optionally, a shared `ResultCache` (engine/result_cache.h) serves
///    repeated queries without recomputation — cached answers are the very
///    vectors a cold computation produced, hence bit-identical.
///
/// Results are bit-identical to the sequential single-source functions for
/// any thread count, any batch composition, and any cache state (asserted
/// by tests/query_engine_test.cpp and tests/engine_property_test.cpp).
/// Queries run through frontier propagation (core/kernel_backend.h):
/// exactly under the default `backend: dense`, and under
/// `KernelBackendKind::kSparse` within the analytic bound of its
/// `prune_epsilon` (tests/kernel_backend_test.cpp).
///
/// \code
///   SRS_ASSIGN_OR_RETURN(QueryEngine engine, QueryEngine::Create(g, opts));
///   auto rankings = engine.BatchTopK(QueryMeasure::kSimRankStarGeometric,
///                                    {7, 42, 99}, /*k=*/10);
/// \endcode
///
/// For source *sets* up to full all-pairs, see engine/all_pairs_engine.h,
/// which streams tiled rows through the same kernels.

#include <memory>
#include <vector>

#include "srs/common/parallel.h"
#include "srs/common/result.h"
#include "srs/core/kernel_backend.h"
#include "srs/core/options.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/snapshot.h"
#include "srs/eval/ranking.h"
#include "srs/graph/graph.h"
#include "srs/graph/versioned_graph.h"

namespace srs {

/// Similarity measures the engine can serve in single-source form.
enum class QueryMeasure {
  kSimRankStarGeometric,
  kSimRankStarExponential,
  kRwr,
};

/// Human-readable name of a measure ("gsr-star", "esr-star", "rwr").
const char* QueryMeasureToString(QueryMeasure measure);

/// Stable small-integer tag of a measure, used in result-cache digests.
int QueryMeasureTag(QueryMeasure measure);

/// \brief Shared evaluation core of the serving engines: the kernel
/// backend, precomputed series weights, and result-cache digests of one
/// (snapshot, SimilarityOptions) pair.
///
/// QueryEngine and AllPairsEngine both evaluate and key their cache
/// entries through this one component — which is exactly what makes their
/// rows bit-identical and their ResultCache entries interchangeable. Any
/// new measure, backend, or digest ingredient is added here once. The
/// backend (core/kernel_backend.h: the frontier, exact or pruned) is
/// selected by `similarity.backend`, and both
/// the backend and its prune epsilon are folded into the digests so
/// pruned and exact answers never alias in a shared cache.
class MeasureEvaluator {
 public:
  MeasureEvaluator() = default;
  MeasureEvaluator(std::shared_ptr<const GraphSnapshot> snapshot,
                   const SimilarityOptions& similarity);

  const std::shared_ptr<const GraphSnapshot>& snapshot() const {
    return snapshot_;
  }
  int64_t num_nodes() const { return snapshot_->num_nodes; }

  /// Points the evaluator at another version of the same graph (equal
  /// node count): swaps the snapshot and recomputes what depends on it,
  /// the version-fingerprinted digests and the residual tails, in
  /// O(k_max). The backend, and so every workspace it made, and the
  /// series weights are kept. `similarity` must be the options this
  /// evaluator was built with.
  void Rebind(std::shared_ptr<const GraphSnapshot> snapshot,
              const SimilarityOptions& similarity);

  /// Fresh per-worker scratch owned by this evaluator's backend.
  std::unique_ptr<KernelWorkspace> NewWorkspace() const {
    return backend_->NewWorkspace();
  }

  /// Result-cache key of ŝ(query, ·) under `measure`.
  ResultKey KeyFor(QueryMeasure measure, NodeId query) const {
    return ResultKey{snapshot_->fingerprint,
                     digests_[QueryMeasureTag(measure)], query};
  }

  /// Writes ŝ(query, ·) into `*out` (resized and overwritten), using
  /// `workspace` (from NewWorkspace()) for scratch. The caller validates
  /// `query`.
  void Compute(QueryMeasure measure, NodeId query,
               KernelWorkspace* workspace, std::vector<double>* out) const;

  /// Stepwise variant of Compute for bound-based early termination
  /// (engine/topk_engine.h): seeds level 0 of ŝ(query, ·) into `*out` and
  /// returns the backend's cursor (owned by `workspace`, valid until the
  /// next Begin on it). Draining the cursor is bitwise identical to
  /// Compute.
  PartialColumnEvaluation* BeginCompute(QueryMeasure measure, NodeId query,
                                        KernelWorkspace* workspace,
                                        std::vector<double>* out) const;

  /// Residual tails of `measure`'s series (core/topk.h): tails[L] bounds
  /// what levels > L can still add to any score entry; tails.back() == 0.
  /// Precomputed from the series weights and the snapshot's transition
  /// row sums.
  const std::vector<double>& ResidualTails(QueryMeasure measure) const {
    return tails_[QueryMeasureTag(measure)];
  }

  /// Rejects an empty batch (InvalidArgument) or any out-of-range node
  /// (OutOfRange); `what` names the entries in messages ("query",
  /// "source").
  Status ValidateBatch(const std::vector<NodeId>& nodes,
                       const char* what) const;

 private:
  std::shared_ptr<const GraphSnapshot> snapshot_;
  std::shared_ptr<const KernelBackend> backend_;
  double damping_ = 0.0;
  std::vector<double> geometric_weights_;
  std::vector<double> exponential_weights_;
  int rwr_iterations_ = 0;
  // ResultDigest per measure, indexed by QueryMeasureTag.
  uint64_t digests_[3] = {0, 0, 0};
  // ResidualTails per measure, indexed by QueryMeasureTag.
  std::vector<double> tails_[3];
};

/// \brief Configuration of a QueryEngine.
struct QueryEngineOptions {
  /// Damping / iterations / epsilon for every measure served. `num_threads`
  /// inside is ignored; the pool size below governs parallelism.
  SimilarityOptions similarity;

  /// Worker threads in the reusable pool (the dispatching thread counts as
  /// one). <= 0 means HardwareThreads().
  int num_threads = 1;

  /// Optional shared cache of score vectors; null disables result caching.
  /// Safe to share with other engines and across threads.
  std::shared_ptr<ResultCache> result_cache;

  /// Snapshot memo used at Create(); null means GlobalSnapshotCache().
  SnapshotCache* snapshot_cache = nullptr;
};

/// \brief Serves batches of single-source similarity queries over one
/// immutable graph snapshot.
///
/// Thread-compatible: concurrent calls into one engine are not supported
/// (the pool and per-worker workspaces are reused across calls); create one
/// engine per serving thread or serialize access externally. The snapshot
/// and the result cache *are* safely shared between engines on different
/// threads.
class QueryEngine {
 public:
  /// Snapshots the referenced graph's transition structure (via the
  /// snapshot cache) and spins up the worker pool. `graph` is either a
  /// plain Graph or `{versioned_graph, version}` (engine/snapshot.h): a
  /// versioned ref is resolved through the cache by (fingerprint, version)
  /// and built incrementally from the nearest cached ancestor, sharing
  /// every unmodified transition row with it — scores are bit-identical to
  /// an engine over `vg.Materialize(version)`. InvalidArgument on bad
  /// options or an out-of-range version.
  static Result<QueryEngine> Create(const GraphRef& graph,
                                    const QueryEngineOptions& options = {});

  QueryEngine(QueryEngine&&) = default;
  QueryEngine& operator=(QueryEngine&&) = default;

  /// Nodes in the snapshot.
  int64_t NumNodes() const { return eval_.num_nodes(); }

  /// Workers in the pool.
  int NumWorkers() const { return pool_->NumWorkers(); }

  const QueryEngineOptions& options() const { return options_; }

  /// The shared snapshot this engine serves from.
  const std::shared_ptr<const GraphSnapshot>& snapshot() const {
    return eval_.snapshot();
  }

  /// Serves `snapshot`, another version of the same graph, from the next
  /// batch on (MeasureEvaluator::Rebind); the pool, workspaces and score
  /// buffers stay warm. Answers are bit-identical to a new engine's over
  /// `snapshot`.
  void Rebind(std::shared_ptr<const GraphSnapshot> snapshot) {
    eval_.Rebind(std::move(snapshot), options_.similarity);
  }

  /// Full score vectors ŝ(q, ·), one per query, in batch order. The batch
  /// must be non-empty (InvalidArgument) and every node in range
  /// (OutOfRange); on error no query is evaluated. With a result cache,
  /// repeated queries are served from it bit-identically.
  Result<std::vector<std::vector<double>>> BatchScores(
      QueryMeasure measure, const std::vector<NodeId>& queries);

  /// Top-k rankings (query node excluded, ties broken by ascending id),
  /// one per query, in batch order. Uses a bounded min-heap per query —
  /// O(n log k) — instead of materializing a full sort. This computes the
  /// full rows at full accuracy first; engine/topk_engine.h serves the
  /// same rankings with bound-based early termination instead.
  Result<std::vector<std::vector<RankedNode>>> BatchTopK(
      QueryMeasure measure, const std::vector<NodeId>& queries, size_t k);

 private:
  QueryEngine(std::shared_ptr<const GraphSnapshot> snapshot,
              const QueryEngineOptions& options);

  QueryEngineOptions options_;
  MeasureEvaluator eval_;

  // unique_ptr keeps the engine movable (ThreadPool and the workspaces are
  // address-stable for the worker threads). One backend-owned workspace
  // per worker, created by the evaluator's backend.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<std::vector<std::unique_ptr<KernelWorkspace>>> workspaces_;
  std::unique_ptr<std::vector<std::vector<double>>> score_buffers_;
};

}  // namespace srs
