#pragma once

/// \file topk_engine.h
/// \brief Batched top-k similarity serving with bound-based early
/// termination.
///
/// "Give me the k most similar nodes" is the dominant user-facing workload
/// for link-based similarity, yet the full-row engines pay for all n
/// scores at full series accuracy before ranking them. The TopKEngine
/// serves top-k directly: it evaluates the level recurrence *stepwise*
/// through the kernel backend's partial-evaluation hook
/// (KernelBackend::Begin*Column, core/kernel_backend.h) and, after every
/// level, consults the analytic residual tails of core/topk.h — an upper
/// bound on everything the remaining levels can still add to any score.
/// Because all level contributions are non-negative, partial scores only
/// grow, which yields a classic branch-and-bound loop:
///
///  * **sieve** — a candidate whose partial score plus the tail falls
///    below the running k-th partial score can never reach the top-k and
///    is dropped; the sieve is monotone (a dropped candidate can never
///    re-qualify), so the candidate set only shrinks;
///  * **terminate** — once every adjacent pair among the top k+1 partial
///    scores is separated by more than the tail, the remaining levels can
///    change neither the top-k set nor its order, and iteration stops.
///
/// The loop's work follows the row's support, not n. The frontier cursor
/// reports which output entries are nonzero
/// (PartialColumnEvaluation::Support), and the candidates come in two
/// parts:
///
///  * **explicit candidates** — the support nodes other than the query
///    that survived every sieve; each scan absorbs the nodes that turned
///    nonzero since the last one;
///  * **the implicit block** — every other node, at partial exactly +0.0.
///    It is alive while `0.0 + tail >= θ`, the sieve's own test; its
///    smallest ids are offered to the collector, which ranks them after
///    every positive partial and breaks their ties by ascending id (how a
///    row with fewer than k nonzeros fills its ranking); once a sieve
///    drops it, it is gone for good, nodes that join the support later
///    included.
///
/// A scan then costs O(support + k). The scan schedule counts the
/// explicit survivors plus the live block's size, which is the length of
/// a list holding every surviving node, so scans fall on the same levels
/// as if every node were listed. When a level vector densifies, the
/// support turns null (**saturation fallback**): the engine rebuilds that
/// ascending list of every surviving node once and scans it from then on;
/// a saturated row's levels cost far more than such a scan.
///
/// Early termination is *exact*: the returned set and order equal those of
/// the backend's full-row scores sorted under RankedBefore (higher score
/// first, ties by ascending node id) — bit-for-bit the dense reference's
/// ranking at prune_epsilon = 0, and the sparse backend's own (analytically
/// bounded) ranking otherwise. The reported scores are the partial sums at
/// the termination level: guaranteed lower bounds within
/// `TopKResult::residual_bound` of the full-accuracy scores, and 0 when
/// the series ran to completion. Because per-level cost of the binomial
/// kernels grows linearly with the level, stopping even halfway saves
/// quadratically — see bench/bench_topk.cpp.
///
/// The engine mirrors QueryEngine's serving shape: one shared immutable
/// GraphSnapshot, a reusable ThreadPool with per-worker backend workspaces
/// and collector scratch (zero steady-state allocations), and an optional
/// shared ResultCache. Top-k answers are cached under digests that fold
/// the `top_k` / `topk_early_termination` knobs (engine/result_cache.h),
/// so they never alias full rows or other k's, and a cached answer is the
/// encoded bits of the cold one.
///
/// \code
///   SimilarityOptions sim;
///   sim.epsilon = 1e-6;  // accuracy-driven K — where early stopping wins
///   sim.top_k = 10;
///   TopKEngineOptions opts;
///   opts.similarity = sim;
///   SRS_ASSIGN_OR_RETURN(TopKEngine engine, TopKEngine::Create(g, opts));
///   auto results = engine.BatchTopK(QueryMeasure::kSimRankStarGeometric,
///                                   {7, 42, 99});
/// \endcode

#include <memory>
#include <vector>

#include "srs/common/parallel.h"
#include "srs/common/result.h"
#include "srs/core/kernel_backend.h"
#include "srs/core/options.h"
#include "srs/core/topk.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/snapshot.h"
#include "srs/eval/ranking.h"
#include "srs/graph/graph.h"

namespace srs {

/// \brief Configuration of a TopKEngine.
struct TopKEngineOptions {
  /// Measure parameters; `similarity.top_k` must be >= 1 and is the k
  /// every batch is served with. `similarity.num_threads` is ignored; the
  /// pool size below governs parallelism.
  SimilarityOptions similarity;

  /// Worker threads in the reusable pool (the dispatching thread counts as
  /// one). <= 0 means HardwareThreads().
  int num_threads = 1;

  /// Optional shared cache; null disables result caching. Safe to share
  /// with full-row engines — top-k digests never alias theirs.
  std::shared_ptr<ResultCache> result_cache;

  /// Snapshot memo used at Create(); null means GlobalSnapshotCache().
  SnapshotCache* snapshot_cache = nullptr;
};

/// \brief One query's top-k answer plus early-termination diagnostics.
struct TopKResult {
  /// Best-first ranking (RankedBefore order), the query node excluded;
  /// size min(top_k, n − 1). Scores are partial sums: lower bounds within
  /// `residual_bound` of the backend's full-accuracy scores.
  std::vector<RankedNode> ranking;

  /// Levels of the series actually evaluated (1 = only level 0) and the
  /// total the configuration would run without early termination.
  int levels_evaluated = 0;
  int levels_total = 0;

  /// Residual tail at the termination level: every full-accuracy score
  /// exceeds its reported partial by at most this. Exactly 0 when the
  /// series ran to completion.
  double residual_bound = 0.0;

  /// True when this answer was decoded from the ResultCache instead of
  /// evaluated — `levels_evaluated` then describes the original cold
  /// computation, not work done by this call. Not part of the cached
  /// encoding (it is provenance of the answer, not the answer).
  bool served_from_cache = false;
};

/// \brief Serves batches of top-k similarity queries over one immutable
/// graph snapshot, stopping each query's level recurrence as soon as its
/// top-k is provably settled.
///
/// Thread-compatible like QueryEngine: one engine per serving thread (or
/// external serialization); snapshots and result caches are safely shared
/// between engines.
class TopKEngine {
 public:
  /// Snapshots the referenced graph's transition structure and spins up
  /// the worker pool. `graph` is a plain Graph or `{versioned_graph,
  /// version}` (engine/snapshot.h); a versioned ref serves the
  /// incrementally resolved snapshot, bit-identical to an engine over
  /// `vg.Materialize(version)`. InvalidArgument on bad options — including
  /// `similarity.top_k` < 1 — or an out-of-range version.
  static Result<TopKEngine> Create(const GraphRef& graph,
                                   const TopKEngineOptions& options = {});

  TopKEngine(TopKEngine&&) = default;
  TopKEngine& operator=(TopKEngine&&) = default;

  /// Nodes in the snapshot.
  int64_t NumNodes() const { return eval_.num_nodes(); }

  /// Workers in the pool.
  int NumWorkers() const { return pool_->NumWorkers(); }

  /// The k every batch is served with (options().similarity.top_k).
  int TopK() const { return options_.similarity.top_k; }

  const TopKEngineOptions& options() const { return options_; }

  /// The shared snapshot this engine serves from.
  const std::shared_ptr<const GraphSnapshot>& snapshot() const {
    return eval_.snapshot();
  }

  /// Serves `snapshot`, another version of the same graph, from the next
  /// batch on (MeasureEvaluator::Rebind); the pool and the per-worker
  /// state stay warm. Answers are bit-identical to a new engine's over
  /// `snapshot`.
  void Rebind(std::shared_ptr<const GraphSnapshot> snapshot) {
    eval_.Rebind(std::move(snapshot), options_.similarity);
  }

  /// Top-k answers, one per query, in batch order. The batch must be
  /// non-empty (InvalidArgument) and every node in range (OutOfRange); on
  /// error no query is evaluated. With a result cache, repeated queries
  /// decode to bit-identical answers.
  Result<std::vector<TopKResult>> BatchTopK(
      QueryMeasure measure, const std::vector<NodeId>& queries);

 private:
  /// Per-worker scratch: backend workspace plus the branch-and-bound
  /// state, all reused across queries. A query's candidates are split in
  /// two while the cursor reports its support (file comment):
  struct WorkerState {
    std::unique_ptr<KernelWorkspace> workspace;
    std::vector<double> partial;      // the growing score vector
    // The explicit candidates: support nodes other than the query that
    // survived every sieve, in the order they turned nonzero. After the
    // saturation fallback: every surviving candidate, ascending.
    std::vector<NodeId> candidates;
    // The implicit block: every node outside the absorbed support except
    // the query, all at partial +0.0. 0 once a sieve drops it (for good)
    // and after the fallback, which lists its members explicitly.
    int64_t block_size = 0;
    size_t absorbed = 0;              // support entries already absorbed
    bool saturated = false;           // the fallback list is in use
    NodeId query = 0;
    TopKCollector collector;          // top-(k+1) partials per level
    std::vector<RankedNode> top;      // sorted extraction scratch
  };

  TopKEngine(std::shared_ptr<const GraphSnapshot> snapshot,
             const TopKEngineOptions& options);

  /// Evaluates one query to termination (early or exhausted) and fills
  /// `*result`.
  void EvaluateOne(QueryMeasure measure, NodeId query, WorkerState* state,
                   TopKResult* result) const;

  /// Brings the explicit candidates up to date with `eval`'s support:
  /// absorbs the nodes that turned nonzero since the last call (or drops
  /// them when the block is gone). When the support turns null, rebuilds
  /// the ascending list of every surviving candidate once and keeps it.
  /// Returns true while the block is live.
  bool SyncCandidates(const PartialColumnEvaluation& eval,
                      WorkerState* state) const;

  /// Offers the block's `limit` smallest ids (partial +0.0) to the
  /// collector. Requires a synced, live block.
  void OfferBlock(size_t limit, WorkerState* state) const;

  /// One sieve + separation pass at the current level. Fills
  /// `state->top` (sorted best-first, up to k+1 entries), compacts
  /// `state->candidates` (and drops the block when its +0.0 partial
  /// fails the sieve), and returns true when the top-k set and order
  /// are provably settled. On failure `*min_gap` is the smallest adjacent
  /// partial-score gap observed — the tail must drop below it before
  /// separation can possibly pass, which schedules the next scan.
  bool SieveAndCheckSettled(const PartialColumnEvaluation& eval, double tail,
                            WorkerState* state, double* min_gap) const;

  TopKEngineOptions options_;
  MeasureEvaluator eval_;
  size_t effective_k_ = 0;  // min(top_k, n - 1), at least 1 candidate slot

  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<std::vector<WorkerState>> workers_;
};

/// Encodes a TopKResult as the flat vector stored in a ResultCache and the
/// exact inverse. Layout: [levels_evaluated, levels_total, residual_bound,
/// node_0, score_0, ..., node_{m-1}, score_{m-1}] — node ids are exact in
/// a double. Exposed for tests.
void EncodeTopKResult(const TopKResult& result, std::vector<double>* out);
bool DecodeTopKResult(const std::vector<double>& encoded, TopKResult* out);

}  // namespace srs
