#include "srs/engine/delta_invalidation.h"

#include <algorithm>
#include <climits>
#include <vector>

#include "srs/engine/query_engine.h"

namespace srs {

namespace {

constexpr int kUnreached = INT_MAX;

/// Expands `frontier` by one undirected hop over the union structure of
/// both snapshots: row x of `q` lists in-neighbors, row x of `qt`
/// out-neighbors, and taking parent + child rows covers edges that the
/// delta removed as well as ones it inserted. This is the sparse backend's
/// frontier scatter applied to reachability: only rows incident to the
/// live frontier are touched, so the pass costs O(edges within the
/// horizon ball), not O(nnz).
void ExpandFrontier(const GraphSnapshot& parent, const GraphSnapshot& child,
                    const std::vector<NodeId>& frontier, int next_dist,
                    std::vector<int>* dist, std::vector<NodeId>* next) {
  next->clear();
  auto visit = [&](const CsrOverlay& m, NodeId x) {
    const CsrRowSpan row = m.Row(x);
    for (int64_t k = 0; k < row.nnz; ++k) {
      const NodeId y = row.cols[k];
      if ((*dist)[static_cast<size_t>(y)] > next_dist) {
        (*dist)[static_cast<size_t>(y)] = next_dist;
        next->push_back(y);
      }
    }
  };
  for (NodeId x : frontier) {
    visit(parent.q, x);
    visit(parent.qt, x);
    visit(child.q, x);
    visit(child.qt, x);
  }
}

}  // namespace

Result<DeltaInvalidationStats> PropagateResultCacheAcrossDelta(
    ResultCache* cache, const GraphSnapshot& parent,
    const GraphSnapshot& child, const SimilarityOptions& options) {
  if (cache == nullptr) {
    return Status::InvalidArgument("null cache in delta propagation");
  }
  if (child.fingerprint != parent.fingerprint ||
      child.version != parent.version + 1 ||
      child.parent_fingerprint != parent.version_fingerprint) {
    return Status::InvalidArgument(
        "child snapshot (version " + std::to_string(child.version) +
        ") is not the direct successor of parent (version " +
        std::to_string(parent.version) + ") in one chain");
  }
  SRS_RETURN_NOT_OK(options.Validate());

  // Per-measure level horizons: the binomial series evaluates products up
  // to its weight count − 1 levels deep; RWR walks the geometric count
  // (MeasureEvaluator's rwr_iterations_).
  const int k_geo = EffectiveIterations(options, /*exponential=*/false);
  const int k_exp = EffectiveIterations(options, /*exponential=*/true);
  int horizon[3] = {0, 0, 0};
  horizon[QueryMeasureTag(QueryMeasure::kSimRankStarGeometric)] = k_geo;
  horizon[QueryMeasureTag(QueryMeasure::kSimRankStarExponential)] = k_exp;
  horizon[QueryMeasureTag(QueryMeasure::kRwr)] = k_geo;

  // The full-row engines normalize the top-k knobs out of their digests;
  // mirror that here so the remap hits the keys they actually use. All
  // three measures go through ONE cache scan — remap index i carries
  // measure tag i's horizon into the survival predicate.
  SimilarityOptions full_row = options;
  full_row.top_k = 0;
  full_row.topk_early_termination = true;

  std::vector<DigestRemap> remap(3);
  for (QueryMeasure m : {QueryMeasure::kSimRankStarGeometric,
                         QueryMeasure::kSimRankStarExponential,
                         QueryMeasure::kRwr}) {
    const int tag = QueryMeasureTag(m);
    remap[static_cast<size_t>(tag)] = DigestRemap{
        ResultDigest(full_row, tag, parent.version_fingerprint),
        ResultDigest(full_row, tag, child.version_fingerprint)};
  }

  DeltaInvalidationStats stats;
  stats.max_horizon = std::max(k_geo, k_exp);
  // No full row under the parent's digests (a cache of top-k entries, or
  // of rows under other options): nothing to carry, so no BFS. A row
  // cached after this check stays under the parent's digest, where it is
  // still exact.
  if (!cache->HasRemapCandidates(child.fingerprint, remap)) return stats;

  // Multi-source BFS from the changed rows, depth-capped at the largest
  // horizon. dist[x] ends as min hops from x to any changed row (capped),
  // for every node — so an entry cached while the BFS runs is decided as
  // exactly as one cached before it.
  std::vector<int> dist(static_cast<size_t>(child.num_nodes), kUnreached);
  std::vector<NodeId> frontier, next;
  for (NodeId seed : child.delta_touched) {
    dist[static_cast<size_t>(seed)] = 0;
    frontier.push_back(seed);
  }
  stats.affected_sources = static_cast<int64_t>(frontier.size());
  for (int d = 1; d <= stats.max_horizon && !frontier.empty(); ++d) {
    ExpandFrontier(parent, child, frontier, d, &dist, &next);
    stats.affected_sources += static_cast<int64_t>(next.size());
    frontier.swap(next);
  }

  const DeltaEvictionStats pass = cache->RekeyForDelta(
      child.fingerprint, remap, [&](NodeId query, size_t remap_index) {
        // Survives iff no changed row is reachable within the measure's
        // horizon — then every product of the level recurrence reads
        // identical bits in both versions.
        return dist[static_cast<size_t>(query)] > horizon[remap_index];
      });
  stats.retained += pass.retained;
  stats.evicted += pass.evicted;
  return stats;
}

}  // namespace srs
