#include "srs/engine/topk_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "srs/common/macros.h"
#include "srs/observability/instruments.h"

namespace srs {

TopKEngine::TopKEngine(std::shared_ptr<const GraphSnapshot> snapshot,
                       const TopKEngineOptions& options)
    : options_(options), eval_(std::move(snapshot), options.similarity) {
  // A ranking can never hold more than n − 1 nodes (the query is
  // excluded); clamping here keeps the per-level collector small on tiny
  // graphs. The *requested* k still keys the cache via the options digest.
  effective_k_ = static_cast<size_t>(
      std::max<int64_t>(0, std::min<int64_t>(options_.similarity.top_k,
                                             eval_.num_nodes() - 1)));
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  workers_ = std::make_unique<std::vector<WorkerState>>(
      static_cast<size_t>(pool_->NumWorkers()));
  for (WorkerState& worker : *workers_) {
    worker.workspace = eval_.NewWorkspace();
  }
}

namespace {

Result<TopKEngineOptions> ResolveTopKOptions(
    const TopKEngineOptions& options) {
  // One validation path for every engine: the builder enforces the ranges
  // plus this engine's top_k >= 1 precondition, naming field and value.
  SRS_ASSIGN_OR_RETURN(SimilarityOptions validated,
                       SimilarityOptionsBuilder(options.similarity)
                           .RequireTopK()
                           .Build());
  TopKEngineOptions resolved = options;
  resolved.similarity = validated;
  if (resolved.num_threads <= 0) resolved.num_threads = HardwareThreads();
  return resolved;
}

}  // namespace

Result<TopKEngine> TopKEngine::Create(const GraphRef& graph,
                                      const TopKEngineOptions& options) {
  SRS_ASSIGN_OR_RETURN(TopKEngineOptions resolved,
                       ResolveTopKOptions(options));
  SRS_ASSIGN_OR_RETURN(std::shared_ptr<const GraphSnapshot> snapshot,
                       graph.Resolve(resolved.snapshot_cache));
  return TopKEngine(std::move(snapshot), resolved);
}

void TopKEngine::OfferBlock(size_t limit, WorkerState* state) const {
  // Block members are exactly the zero partials other than the query's
  // (every support node has been absorbed before any offer), so the
  // smallest ids sit among the first |support| + limit + 1 entries.
  const std::vector<double>& partial = state->partial;
  const NodeId n = static_cast<NodeId>(partial.size());
  size_t offered = 0;
  for (NodeId v = 0; v < n && offered < limit; ++v) {
    if (v == state->query || partial[v] != 0.0) continue;
    state->collector.Offer(v, partial[v]);
    ++offered;
  }
}

bool TopKEngine::SyncCandidates(const PartialColumnEvaluation& eval,
                                WorkerState* state) const {
  if (state->saturated) return false;
  const std::vector<int32_t>* support = eval.Support();
  if (support == nullptr) {
    // Saturation fallback: the ascending list of every surviving node,
    // built once. While the block lives no sieve has dropped anything (a
    // sieve that keeps a +0.0 partial keeps every partial), so that is
    // every node but the query; otherwise it is the explicit survivors.
    // Either way its length is the count the scan schedule has used.
    const size_t scheduled = state->candidates.size() +
                             static_cast<size_t>(state->block_size);
    if (state->block_size > 0) {
      state->candidates.clear();
      const NodeId n = static_cast<NodeId>(state->partial.size());
      for (NodeId v = 0; v < n; ++v) {
        if (v != state->query) state->candidates.push_back(v);
      }
    } else {
      std::sort(state->candidates.begin(), state->candidates.end());
    }
    SRS_CHECK_EQ(state->candidates.size(), scheduled);
    state->saturated = true;
    state->block_size = 0;
    return false;
  }
  // Absorb the nodes that turned nonzero since the last scan. Once the
  // block is dropped they were dropped with it.
  for (; state->absorbed < support->size(); ++state->absorbed) {
    const NodeId v = (*support)[state->absorbed];
    if (state->block_size == 0 || v == state->query) continue;
    state->candidates.push_back(v);
    --state->block_size;
  }
  return state->block_size > 0;
}

bool TopKEngine::SieveAndCheckSettled(const PartialColumnEvaluation& eval,
                                      double tail, WorkerState* state,
                                      double* min_gap) const {
  const std::vector<double>& partial = state->partial;
  // Top-(k+1) partials among the surviving candidates: the first k are the
  // running answer, the (k+1)-th is the best any outsider could displace.
  // Every explicit candidate's partial is positive, so the live block
  // ranks behind all of them, smallest ids first.
  const bool block = SyncCandidates(eval, state);
  state->collector.Reset(effective_k_ + 1);
  for (NodeId v : state->candidates) {
    state->collector.Offer(v, partial[v]);
  }
  if (block) OfferBlock(effective_k_ + 1, state);
  const size_t m = state->collector.size();
  state->collector.ExtractSorted(&state->top);

  if (m > effective_k_) {
    // Sieve against the running k-th partial score: a candidate that
    // cannot reach it even with the whole tail is provably outside the
    // top-k. The sieve is monotone — partials grow by at most the tail
    // shrink per level, and the threshold never decreases — so a dropped
    // candidate could never have re-qualified. The block's members all
    // sit at +0.0 and leave together, for good.
    const double theta = state->top[effective_k_ - 1].score;
    size_t kept = 0;
    for (NodeId v : state->candidates) {
      if (partial[v] + tail >= theta) state->candidates[kept++] = v;
    }
    state->candidates.resize(kept);
    if (block && !(0.0 + tail >= theta)) state->block_size = 0;
  }

  // Settled iff every adjacent pair of the collected partials is strictly
  // separated by more than the tail: then no remaining level can reorder
  // them or promote an outsider (everyone else sits at or below the
  // (k+1)-th, which the k-th provably clears). Ties cannot be separated —
  // those queries run to completion, where tie-break by node id is exact.
  bool settled = true;
  *min_gap = tail;
  for (size_t i = 0; i + 1 < m; ++i) {
    const double gap = state->top[i].score - state->top[i + 1].score;
    if (!(gap > tail)) settled = false;
    *min_gap = std::min(*min_gap, gap);
  }
  return settled;
}

void TopKEngine::EvaluateOne(QueryMeasure measure, NodeId query,
                             WorkerState* state, TopKResult* result) const {
  const std::vector<double>& tails = eval_.ResidualTails(measure);
  if (effective_k_ == 0) {  // single-node graph: nothing to rank
    result->ranking.clear();
    result->levels_evaluated = 0;
    result->levels_total = static_cast<int>(tails.size());
    result->residual_bound = 0.0;
    return;
  }

  PartialColumnEvaluation* eval =
      eval_.BeginCompute(measure, query, state->workspace.get(),
                         &state->partial);

  // Every node but the query starts in the implicit block; scans move the
  // support into the explicit list.
  state->candidates.clear();
  state->query = query;
  state->block_size = eval_.num_nodes() - 1;
  state->absorbed = 0;
  state->saturated = false;

  const bool allow_early = options_.similarity.topk_early_termination;
  bool settled = false;
  // Scan scheduling. A full sieve-and-check pass costs O(candidates) — for
  // kernels whose levels are cheap (RWR: one matvec) that can rival the
  // level itself, so passes run only when they can plausibly do work:
  //  * `max_ub` bounds the best candidate partial (refreshed by scans;
  //    between scans it grows by at most the tail mass consumed since,
  //    `ub_tail` − tail). While it stays ≤ the tail, a scan is provably a
  //    no-op: the sieve keeps everyone (θ ≤ max ≤ tail) and no pair can
  //    be separated by more than the tail.
  //  * a scan also runs whenever it is cheap relative to the *next level*
  //    (candidates ≤ ~¼ of the level's edge traversals — always true for
  //    the binomial kernels, whose level l costs l+1 matvecs, and for RWR
  //    on denser graphs) — a delayed stop there would cost far more than
  //    the scan saves;
  //  * otherwise, after a failed scan the next one waits until the tail
  //    drops below the smallest adjacent gap observed (`scan_below`) —
  //    before that, separation cannot pass unless the gaps themselves
  //    moved, which a 4×-decay refresh bounds (`tail/4`: at most every
  //    ~2.7 levels at C = 0.6).
  // The candidate count is the explicit list plus the live block — the
  // count of a list that held every surviving node — so scans fall on the
  // same levels whether or not a scan ever touches the block. The
  // schedule depends only on partials, tails, and the snapshot shape, so
  // it is as deterministic — and backend-independent at prune_epsilon =
  // 0 — as the termination test itself.
  const bool rwr = measure == QueryMeasure::kRwr;
  const int64_t level_nnz =
      rwr ? eval_.snapshot()->wt.nnz() : eval_.snapshot()->q.nnz();
  double max_ub = 0.0;
  double ub_tail = tails[0];
  double scan_below = std::numeric_limits<double>::infinity();
  while (true) {
    const double tail = tails[static_cast<size_t>(eval->Level())];
    // A zero tail means the series is complete (only the last level): the
    // partials *are* the full-row scores, bit for bit.
    if (tail == 0.0) break;
    const bool plausible = max_ub + (ub_tail - tail) > tail;
    const int64_t next_level_cost =
        (rwr ? int64_t{1} : int64_t{eval->Level()} + 2) * level_nnz;
    const int64_t candidate_count =
        static_cast<int64_t>(state->candidates.size()) + state->block_size;
    const bool scheduled =
        4 * candidate_count <= next_level_cost || tail < scan_below;
    if (allow_early && plausible && scheduled) {
      double min_gap = 0.0;
      if (SieveAndCheckSettled(*eval, tail, state, &min_gap)) {
        settled = true;
        break;
      }
      max_ub = state->top.empty() ? 0.0 : state->top[0].score;
      ub_tail = tail;
      scan_below = std::max(min_gap, 0.25 * tail);
    }
    if (!eval->AdvanceLevel()) break;
  }

  if (!settled) {
    // Ran to completion: rank the surviving candidates exactly. The sieve
    // only ever dropped provably-out nodes, so the survivors contain the
    // true top-k.
    const bool block = SyncCandidates(*eval, state);
    state->collector.Reset(effective_k_);
    for (NodeId v : state->candidates) {
      state->collector.Offer(v, state->partial[v]);
    }
    if (block) OfferBlock(effective_k_, state);
    state->collector.ExtractSorted(&state->top);
  }
  const size_t count = std::min(effective_k_, state->top.size());
  result->ranking.assign(state->top.begin(),
                         state->top.begin() + static_cast<int64_t>(count));
  result->levels_evaluated = eval->Level() + 1;
  result->levels_total = eval->MaxLevel() + 1;
  result->residual_bound = tails[static_cast<size_t>(eval->Level())];
}

Result<std::vector<TopKResult>> TopKEngine::BatchTopK(
    QueryMeasure measure, const std::vector<NodeId>& queries) {
  SRS_RETURN_NOT_OK(eval_.ValidateBatch(queries, "query"));
  std::vector<TopKResult> results(queries.size());
  ResultCache* cache = options_.result_cache.get();
  pool_->ParallelForIndexed(
      0, static_cast<int64_t>(queries.size()), [&](int64_t i, int worker) {
        const NodeId query = queries[static_cast<size_t>(i)];
        TopKResult& result = results[static_cast<size_t>(i)];
        // The evaluator's digests fold top_k and the termination policy
        // (engine/result_cache.h), so this key can only ever hit another
        // top-k answer of the same configuration.
        if (cache != nullptr) {
          if (ResultCache::Value hit =
                  cache->Get(eval_.KeyFor(measure, query))) {
            if (DecodeTopKResult(*hit, &result)) {
              result.served_from_cache = true;
              return;
            }
          }
        }
        EvaluateOne(measure, query,
                    &(*workers_)[static_cast<size_t>(worker)], &result);
        if (cache != nullptr) {
          auto encoded = std::make_shared<std::vector<double>>();
          EncodeTopKResult(result, encoded.get());
          cache->Put(eval_.KeyFor(measure, query), std::move(encoded));
        }
      });
  if (MetricsEnabled()) {
    // Cache-served answers are skipped: their level counts describe the
    // original cold computation, not work this call did — the same rule
    // srs_query's early-termination tally applies.
    Histogram* levels = TopKTerminationLevelsHistogram();
    uint64_t evaluated = 0, possible = 0;
    for (const TopKResult& result : results) {
      if (result.served_from_cache) continue;
      levels->Observe(static_cast<double>(result.levels_evaluated));
      evaluated += static_cast<uint64_t>(result.levels_evaluated);
      possible += static_cast<uint64_t>(result.levels_total);
    }
    if (possible > 0) {
      TopKLevelsEvaluatedCounter()->Increment(evaluated);
      TopKLevelsPossibleCounter()->Increment(possible);
    }
  }
  return results;
}

void EncodeTopKResult(const TopKResult& result, std::vector<double>* out) {
  out->clear();
  out->reserve(3 + 2 * result.ranking.size());
  out->push_back(static_cast<double>(result.levels_evaluated));
  out->push_back(static_cast<double>(result.levels_total));
  out->push_back(result.residual_bound);
  for (const RankedNode& r : result.ranking) {
    out->push_back(static_cast<double>(r.node));
    out->push_back(r.score);
  }
}

bool DecodeTopKResult(const std::vector<double>& encoded, TopKResult* out) {
  if (encoded.size() < 3 || (encoded.size() - 3) % 2 != 0) return false;
  out->levels_evaluated = static_cast<int>(encoded[0]);
  out->levels_total = static_cast<int>(encoded[1]);
  out->residual_bound = encoded[2];
  out->served_from_cache = false;  // provenance is the caller's to set
  const size_t count = (encoded.size() - 3) / 2;
  out->ranking.clear();
  out->ranking.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out->ranking.push_back(
        {static_cast<NodeId>(encoded[3 + 2 * i]), encoded[4 + 2 * i]});
  }
  return true;
}

}  // namespace srs
