// Property tests of delta-aware ResultCache invalidation
// (engine/delta_invalidation.h):
//
//  * **soundness** — after PropagateResultCacheAcrossDelta, no stale entry
//    survives: every answer served through the carried cache at the new
//    version is bitwise the cold rebuild-from-scratch answer;
//  * **non-vacuity** — the pass is not "evict everything": for a delta
//    provably farther than the level horizon from the queried sources
//    (disjoint communities), survivors exist, and they are then served as
//    cache *hits*;
//  * **paying only for what it carries** — a cache with no full row under
//    the parent's digests runs no BFS at all; otherwise every keep/evict
//    decision is the one a reference BFS out to the horizon makes.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "srs/common/rng.h"
#include "srs/engine/delta_invalidation.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/snapshot.h"
#include "srs/engine/topk_engine.h"
#include "srs/graph/delta.h"
#include "srs/graph/generators.h"
#include "srs/graph/graph_builder.h"
#include "srs/graph/versioned_graph.h"

namespace srs {
namespace {

void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want,
                    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << context << " entry " << i;
  }
}

std::vector<NodeId> AllNodes(int64_t n) {
  std::vector<NodeId> nodes(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) nodes[static_cast<size_t>(i)] = i;
  return nodes;
}

TEST(DeltaInvalidationTest, NoStaleEntrySurvivesRandomDeltas) {
  const uint64_t seed = 20260731;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(round)));
    const int64_t n = 40 + static_cast<int64_t>(rng.Uniform(20));
    Result<Graph> base = ErdosRenyi(n, 2 * n, rng.Next());
    ASSERT_TRUE(base.ok());
    VersionedGraph vg(Graph(base.ValueOrDie()));

    SimilarityOptions sim;
    sim.damping = 0.6;
    sim.iterations = 3;
    if (round == 2) {
      sim.backend = KernelBackendKind::kSparse;
      sim.prune_epsilon = 0.0;
    }

    SnapshotCache snapshots(8);
    auto cache = std::make_shared<ResultCache>();
    QueryEngineOptions opts;
    opts.similarity = sim;
    opts.result_cache = cache;
    opts.snapshot_cache = &snapshots;

    // Warm every row at version 0.
    const std::vector<NodeId> sources = AllNodes(n);
    Result<QueryEngine> warm = QueryEngine::Create({vg, 0}, opts);
    ASSERT_TRUE(warm.ok());
    for (QueryMeasure m : {QueryMeasure::kSimRankStarGeometric,
                           QueryMeasure::kSimRankStarExponential,
                           QueryMeasure::kRwr}) {
      ASSERT_TRUE(warm.ValueOrDie().BatchScores(m, sources).ok());
    }

    // Apply a random delta and carry the cache across it.
    EdgeDelta::Builder builder;
    for (int i = 0; i < 6; ++i) {
      if (rng.Bernoulli(0.5)) {
        builder.Insert(static_cast<NodeId>(rng.Uniform(n)),
                       static_cast<NodeId>(rng.Uniform(n)));
      } else {
        builder.Remove(static_cast<NodeId>(rng.Uniform(n)),
                       static_cast<NodeId>(rng.Uniform(n)));
      }
    }
    Result<EdgeDelta> delta = builder.Build(n);
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(vg.Apply(delta.ValueOrDie()).ok());

    Result<std::shared_ptr<const GraphSnapshot>> parent =
        snapshots.Get(vg, 0);
    Result<std::shared_ptr<const GraphSnapshot>> child =
        snapshots.Get(vg, 1);
    ASSERT_TRUE(parent.ok() && child.ok());
    Result<DeltaInvalidationStats> stats = PropagateResultCacheAcrossDelta(
        cache.get(), *parent.ValueOrDie(), *child.ValueOrDie(), sim);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    // Served-through-carried-cache == cold rebuild, bit for bit, for
    // every source — i.e. no survivor is stale.
    Result<Graph> rebuilt = vg.Materialize(1);
    ASSERT_TRUE(rebuilt.ok());
    SnapshotCache fresh(2);
    QueryEngineOptions cold_opts;
    cold_opts.similarity = sim;
    cold_opts.snapshot_cache = &fresh;
    Result<QueryEngine> served = QueryEngine::Create({vg, 1}, opts);
    Result<QueryEngine> cold =
        QueryEngine::Create(rebuilt.ValueOrDie(), cold_opts);
    ASSERT_TRUE(served.ok() && cold.ok());
    for (QueryMeasure m : {QueryMeasure::kSimRankStarGeometric,
                           QueryMeasure::kSimRankStarExponential,
                           QueryMeasure::kRwr}) {
      SCOPED_TRACE(QueryMeasureToString(m));
      Result<std::vector<std::vector<double>>> got =
          served.ValueOrDie().BatchScores(m, sources);
      Result<std::vector<std::vector<double>>> want =
          cold.ValueOrDie().BatchScores(m, sources);
      ASSERT_TRUE(got.ok() && want.ok());
      for (size_t i = 0; i < sources.size(); ++i) {
        ExpectBitEqual(got.ValueOrDie()[i], want.ValueOrDie()[i],
                       "source " + std::to_string(i));
      }
    }
  }
}

/// Two disjoint directed communities: a delta confined to the first can
/// never reach the second within any horizon, so the second community's
/// cached rows must survive propagation — and be served as hits.
TEST(DeltaInvalidationTest, FarSourcesSurviveAndServeAsHits) {
  const int64_t half = 24;
  GraphBuilder builder(2 * half);
  for (int64_t c = 0; c < 2; ++c) {
    const NodeId off = static_cast<NodeId>(c * half);
    for (int64_t i = 0; i < half; ++i) {
      SRS_CHECK_OK(builder.AddEdge(off + static_cast<NodeId>(i),
                                   off + static_cast<NodeId>((i + 1) % half)));
      SRS_CHECK_OK(builder.AddEdge(off + static_cast<NodeId>(i),
                                   off + static_cast<NodeId>((i + 7) % half)));
    }
  }
  Result<Graph> built = builder.Build();
  ASSERT_TRUE(built.ok());
  VersionedGraph vg(built.MoveValueOrDie());

  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 4;

  SnapshotCache snapshots(8);
  auto cache = std::make_shared<ResultCache>();
  QueryEngineOptions opts;
  opts.similarity = sim;
  opts.result_cache = cache;
  opts.snapshot_cache = &snapshots;

  const std::vector<NodeId> sources = AllNodes(2 * half);
  Result<QueryEngine> warm = QueryEngine::Create({vg, 0}, opts);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.ValueOrDie()
                  .BatchScores(QueryMeasure::kSimRankStarGeometric, sources)
                  .ok());

  // Delta strictly inside community 0.
  EdgeDelta::Builder delta_builder;
  delta_builder.Insert(0, 5).Insert(3, 11).Remove(2, 3);
  Result<EdgeDelta> delta = delta_builder.Build(2 * half);
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(vg.Apply(delta.ValueOrDie()).ok());

  Result<std::shared_ptr<const GraphSnapshot>> parent = snapshots.Get(vg, 0);
  Result<std::shared_ptr<const GraphSnapshot>> child = snapshots.Get(vg, 1);
  ASSERT_TRUE(parent.ok() && child.ok());
  Result<DeltaInvalidationStats> stats = PropagateResultCacheAcrossDelta(
      cache.get(), *parent.ValueOrDie(), *child.ValueOrDie(), sim);
  ASSERT_TRUE(stats.ok());

  // Non-vacuous: community 1's rows survive (half per warmed measure —
  // only gsr-star was warmed here), community 0 cannot reach it.
  EXPECT_GE(stats.ValueOrDie().retained, static_cast<size_t>(half));
  EXPECT_LE(stats.ValueOrDie().affected_sources, half);

  // Survivors serve as hits, bit-identical to a cold rebuild.
  const ResultCacheStats before = cache->Stats();
  std::vector<NodeId> far_sources(sources.begin() + half, sources.end());
  Result<QueryEngine> served = QueryEngine::Create({vg, 1}, opts);
  ASSERT_TRUE(served.ok());
  Result<std::vector<std::vector<double>>> got =
      served.ValueOrDie().BatchScores(QueryMeasure::kSimRankStarGeometric,
                                      far_sources);
  ASSERT_TRUE(got.ok());
  const ResultCacheStats after = cache->Stats();
  EXPECT_EQ(after.hits - before.hits, static_cast<uint64_t>(half))
      << "every far source must be a cache hit after propagation";

  Result<Graph> rebuilt = vg.Materialize(1);
  ASSERT_TRUE(rebuilt.ok());
  SnapshotCache fresh(2);
  QueryEngineOptions cold_opts;
  cold_opts.similarity = sim;
  cold_opts.snapshot_cache = &fresh;
  Result<QueryEngine> cold =
      QueryEngine::Create(rebuilt.ValueOrDie(), cold_opts);
  ASSERT_TRUE(cold.ok());
  Result<std::vector<std::vector<double>>> want =
      cold.ValueOrDie().BatchScores(QueryMeasure::kSimRankStarGeometric,
                                    far_sources);
  ASSERT_TRUE(want.ok());
  for (size_t i = 0; i < far_sources.size(); ++i) {
    ExpectBitEqual(got.ValueOrDie()[i], want.ValueOrDie()[i],
                   "far source " + std::to_string(far_sources[i]));
  }
}

/// Deterministic horizon boundary on a path graph. Note the seed set is
/// *closed* — every changed (row, column) entry has both endpoints among
/// the changed rows — so a source needs a changed row within h−1 hops
/// for its value to be read with live support; sources at exactly h are
/// provably unaffected and `dist > h` is one step conservative. The test
/// pins the sharp edge from both sides: the node whose last evaluated
/// level reads a changed value really moves (and is evicted), the far
/// tail survives, and everything served equals the cold rebuild bitwise.
TEST(DeltaInvalidationTest, HorizonBoundaryIsSharp) {
  const int64_t n = 24;
  GraphBuilder builder(n);
  for (int64_t i = 0; i + 1 < n; ++i) {
    SRS_CHECK_OK(builder.AddEdge(static_cast<NodeId>(i),
                                 static_cast<NodeId>(i + 1)));
  }
  VersionedGraph vg(builder.Build().MoveValueOrDie());

  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 3;  // horizon h = 3 for gsr-star

  SnapshotCache snapshots(8);
  auto cache = std::make_shared<ResultCache>();
  QueryEngineOptions opts;
  opts.similarity = sim;
  opts.result_cache = cache;
  opts.snapshot_cache = &snapshots;

  const std::vector<NodeId> sources = AllNodes(n);
  QueryEngine warm = QueryEngine::Create({vg, 0}, opts).MoveValueOrDie();
  const auto v0_rows =
      warm.BatchScores(QueryMeasure::kSimRankStarGeometric, sources)
          .MoveValueOrDie();

  // Insert 0 -> 2: every changed transition row lies in {0, 1, 2}.
  EdgeDelta::Builder delta;
  delta.Insert(0, 2);
  SRS_CHECK_OK(vg.Apply(delta.Build(n).ValueOrDie()).status());

  auto parent = snapshots.Get(vg, 0).ValueOrDie();
  auto child = snapshots.Get(vg, 1).ValueOrDie();
  for (NodeId seed : child->delta_touched) {
    ASSERT_LE(seed, 2) << "delta unexpectedly touched a far row";
  }
  Result<DeltaInvalidationStats> stats = PropagateResultCacheAcrossDelta(
      cache.get(), *parent, *child, sim);
  ASSERT_TRUE(stats.ok());

  // Serving any source through the carried cache must equal the cold
  // rebuild — including node 4, whose level-3 Qᵀ product reads the
  // rescaled row 1 with live support (the last level that can see it).
  QueryEngine served = QueryEngine::Create({vg, 1}, opts).MoveValueOrDie();
  const auto got =
      served.BatchScores(QueryMeasure::kSimRankStarGeometric, sources)
          .MoveValueOrDie();
  SnapshotCache fresh(2);
  QueryEngineOptions cold_opts;
  cold_opts.similarity = sim;
  cold_opts.snapshot_cache = &fresh;
  QueryEngine cold =
      QueryEngine::Create(vg.Materialize(1).ValueOrDie(), cold_opts)
          .MoveValueOrDie();
  const auto want =
      cold.BatchScores(QueryMeasure::kSimRankStarGeometric, sources)
          .MoveValueOrDie();
  for (size_t i = 0; i < sources.size(); ++i) {
    ExpectBitEqual(got[i], want[i], "source " + std::to_string(i));
  }
  // The boundary case is live, not vacuous: node 4's row really moved,
  // so a survival predicate that kept it would have served stale v0 bits
  // and failed the loop above...
  EXPECT_NE(v0_rows[4], want[4])
      << "delta no longer reaches the horizon boundary; rebuild the case";
  // ...while node 5, one hop farther, is provably unaffected (seed-set
  // closure), and the far tail survives propagation outright.
  EXPECT_EQ(v0_rows[5], want[5]);
  EXPECT_GT(stats.ValueOrDie().retained, 0u);
}

/// A path 0 → 1 → … → n−1 with one edge inserted in its middle: the
/// changed rows are {mid, mid+1, mid+2}.
struct PathWithDelta {
  static constexpr int64_t kNodes = 64;
  static constexpr NodeId kMid = 30;

  VersionedGraph vg;
  SnapshotCache snapshots{8};

  PathWithDelta() : vg(Build()) {}

  static Graph Build() {
    GraphBuilder builder(kNodes);
    for (int64_t i = 0; i + 1 < kNodes; ++i) {
      SRS_CHECK_OK(builder.AddEdge(static_cast<NodeId>(i),
                                   static_cast<NodeId>(i + 1)));
    }
    return builder.Build().MoveValueOrDie();
  }

  /// Applies the delta; returns (parent, child) snapshots.
  std::pair<std::shared_ptr<const GraphSnapshot>,
            std::shared_ptr<const GraphSnapshot>>
  Apply() {
    EdgeDelta::Builder delta;
    delta.Insert(kMid, kMid + 2);
    SRS_CHECK_OK(vg.Apply(delta.Build(kNodes).ValueOrDie()).status());
    return {snapshots.Get(vg, 0).ValueOrDie(),
            snapshots.Get(vg, 1).ValueOrDie()};
  }
};

constexpr int kFar = 1 << 30;

/// Undirected hop distance of every node from the changed rows over both
/// snapshots' q/qt rows, out to `depth` (kFar beyond) — what a BFS run out
/// to the full horizon computes.
std::vector<int> UnionDistances(const GraphSnapshot& parent,
                                const GraphSnapshot& child, int depth) {
  std::vector<int> dist(static_cast<size_t>(child.num_nodes), kFar);
  std::vector<NodeId> frontier;
  for (NodeId seed : child.delta_touched) {
    dist[static_cast<size_t>(seed)] = 0;
    frontier.push_back(seed);
  }
  for (int d = 1; d <= depth; ++d) {
    std::vector<NodeId> next;
    for (NodeId x : frontier) {
      for (const CsrOverlay* m : {&parent.q, &parent.qt, &child.q, &child.qt}) {
        const CsrRowSpan row = m->Row(x);
        for (int64_t k = 0; k < row.nnz; ++k) {
          if (dist[static_cast<size_t>(row.cols[k])] == kFar) {
            dist[static_cast<size_t>(row.cols[k])] = d;
            next.push_back(row.cols[k]);
          }
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

int64_t BallSize(const GraphSnapshot& parent, const GraphSnapshot& child,
                 int depth) {
  const std::vector<int> dist = UnionDistances(parent, child, depth);
  return std::count_if(dist.begin(), dist.end(),
                       [](int d) { return d != kFar; });
}

TEST(DeltaInvalidationTest, NothingToCarryRunsNoBfsAndKeepsEveryEntry) {
  PathWithDelta path;
  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 4;
  auto cache = std::make_shared<ResultCache>();

  // Top-k entries under the served options...
  TopKEngineOptions topk_opts;
  topk_opts.similarity = sim;
  topk_opts.similarity.top_k = 3;
  topk_opts.result_cache = cache;
  topk_opts.snapshot_cache = &path.snapshots;
  TopKEngine topk =
      TopKEngine::Create({path.vg, 0}, topk_opts).MoveValueOrDie();
  const std::vector<NodeId> sources = AllNodes(PathWithDelta::kNodes);
  ASSERT_TRUE(
      topk.BatchTopK(QueryMeasure::kSimRankStarGeometric, sources).ok());
  // ...and full rows under other options (another damping) — neither is
  // keyed under the parent digests the pass remaps.
  QueryEngineOptions other;
  other.similarity = sim;
  other.similarity.damping = 0.7;
  other.result_cache = cache;
  other.snapshot_cache = &path.snapshots;
  QueryEngine rows = QueryEngine::Create({path.vg, 0}, other).MoveValueOrDie();
  ASSERT_TRUE(rows.BatchScores(QueryMeasure::kRwr, sources).ok());
  const size_t entries = cache->Stats().entries;
  ASSERT_EQ(entries, 2 * sources.size());

  const auto [parent, child] = path.Apply();
  const DeltaInvalidationStats stats =
      PropagateResultCacheAcrossDelta(cache.get(), *parent, *child, sim)
          .MoveValueOrDie();
  EXPECT_EQ(stats.affected_sources, 0) << "labeled nodes without a source";
  EXPECT_EQ(stats.retained, 0u);
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_EQ(cache->Stats().entries, entries);
}

TEST(DeltaInvalidationTest, RowsOnChangedRowsAreAllEvicted) {
  PathWithDelta path;
  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 6;
  auto cache = std::make_shared<ResultCache>();
  QueryEngineOptions opts;
  opts.similarity = sim;
  opts.result_cache = cache;
  opts.snapshot_cache = &path.snapshots;

  const auto [parent, child] = path.Apply();
  // Rows only for sources on changed rows: each is at distance 0.
  QueryEngine warm = QueryEngine::Create({path.vg, 0}, opts).MoveValueOrDie();
  const std::vector<NodeId> near = child->delta_touched;
  ASSERT_FALSE(near.empty());
  for (QueryMeasure m : {QueryMeasure::kSimRankStarGeometric,
                         QueryMeasure::kSimRankStarExponential,
                         QueryMeasure::kRwr}) {
    ASSERT_TRUE(warm.BatchScores(m, near).ok());
  }

  const DeltaInvalidationStats stats =
      PropagateResultCacheAcrossDelta(cache.get(), *parent, *child, sim)
          .MoveValueOrDie();
  EXPECT_EQ(stats.evicted, 3 * near.size());
  EXPECT_EQ(stats.retained, 0u);
  EXPECT_EQ(cache->Stats().entries, 0u);
  EXPECT_EQ(stats.affected_sources,
            BallSize(*parent, *child, stats.max_horizon))
      << "affected_sources is not the horizon ball";
}

/// Every entry survives exactly when the full-horizon distance of its
/// source exceeds its measure's horizon, whatever else the cache holds.
/// Sparse random graphs with an accuracy-driven horizon (8 levels
/// geometric, fewer exponential) put sources on both sides of both
/// horizons, including exactly at them; exponential rows are cached for
/// every source but geometric and RWR rows for a third of them only, so a
/// source's deeper-horizon entries are decided with and without its
/// shallower ones beside them.
TEST(DeltaInvalidationTest, DecisionsMatchTheFullHorizonPass) {
  const uint64_t seed = 20261018;
  size_t kept_total = 0, evicted_total = 0;
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(round)));
    const int64_t n = 240 + static_cast<int64_t>(rng.Uniform(60));
    VersionedGraph vg(ErdosRenyi(n, n + n / 8, rng.Next()).MoveValueOrDie());
    SimilarityOptions sim;
    sim.damping = 0.6;
    sim.epsilon = 1e-2;
    SnapshotCache snapshots(8);
    auto cache = std::make_shared<ResultCache>();
    QueryEngineOptions opts;
    opts.similarity = sim;
    opts.result_cache = cache;
    opts.snapshot_cache = &snapshots;
    const std::vector<NodeId> sources = AllNodes(n);
    std::vector<NodeId> every_third;
    for (NodeId q : sources) {
      if (q % 3 == 0) every_third.push_back(q);
    }
    auto cached = [&](QueryMeasure m, NodeId q) {
      return m == QueryMeasure::kSimRankStarExponential || q % 3 == 0;
    };
    QueryEngine warm = QueryEngine::Create({vg, 0}, opts).MoveValueOrDie();
    const QueryMeasure measures[] = {QueryMeasure::kSimRankStarGeometric,
                                     QueryMeasure::kSimRankStarExponential,
                                     QueryMeasure::kRwr};
    size_t warmed = 0;
    for (QueryMeasure m : measures) {
      const std::vector<NodeId>& batch =
          m == QueryMeasure::kSimRankStarExponential ? sources : every_third;
      ASSERT_TRUE(warm.BatchScores(m, batch).ok());
      warmed += batch.size();
    }

    EdgeDelta::Builder delta;
    for (int i = 0; i < 3; ++i) {
      delta.Insert(static_cast<NodeId>(rng.Uniform(n)),
                   static_cast<NodeId>(rng.Uniform(n)));
    }
    SRS_CHECK_OK(vg.Apply(delta.Build(n).MoveValueOrDie()).status());
    const auto parent = snapshots.Get(vg, 0).ValueOrDie();
    const auto child = snapshots.Get(vg, 1).ValueOrDie();
    const DeltaInvalidationStats stats =
        PropagateResultCacheAcrossDelta(cache.get(), *parent, *child, sim)
            .MoveValueOrDie();

    const std::vector<int> dist =
        UnionDistances(*parent, *child, stats.max_horizon);
    size_t kept = 0;
    for (QueryMeasure m : measures) {
      const bool exponential = m == QueryMeasure::kSimRankStarExponential;
      const int horizon = EffectiveIterations(sim, exponential);
      const uint64_t digest = ResultDigest(sim, QueryMeasureTag(m),
                                           child->version_fingerprint);
      for (NodeId q : sources) {
        const bool survives =
            cached(m, q) && dist[static_cast<size_t>(q)] > horizon;
        kept += survives ? 1 : 0;
        EXPECT_EQ(cache->Get({child->fingerprint, digest, q}) != nullptr,
                  survives)
            << QueryMeasureToString(m) << " source " << q << " at distance "
            << dist[static_cast<size_t>(q)] << ", horizon " << horizon;
      }
    }
    EXPECT_EQ(stats.retained, kept);
    EXPECT_EQ(stats.evicted, warmed - kept);
    kept_total += stats.retained;
    evicted_total += stats.evicted;
  }
  EXPECT_GT(kept_total, 0u);
  EXPECT_GT(evicted_total, 0u);
}

TEST(EdgeDeltaBuilderTest, ConsumedOnErrorAndSuccess) {
  EdgeDelta::Builder builder;
  builder.Insert(0, 99);  // out of range for 10 nodes
  EXPECT_FALSE(builder.Build(10).ok());
  EXPECT_EQ(builder.PendingOps(), 0u);
  // Corrected ops recorded afterwards must not replay the stale batch.
  builder.Insert(0, 5).Remove(1, 2).Insert(0, 5);
  Result<EdgeDelta> delta = builder.Build(10);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta.ValueOrDie().size(), 2u);  // duplicate insert deduped
  EXPECT_EQ(builder.PendingOps(), 0u);
}

TEST(DeltaInvalidationTest, RejectsMismatchedSnapshots) {
  Result<Graph> g = ErdosRenyi(20, 40, 7);
  ASSERT_TRUE(g.ok());
  VersionedGraph vg(Graph(g.ValueOrDie()));
  EdgeDelta::Builder b1, b2;
  b1.Insert(1, 2);
  b2.Insert(3, 4);
  ASSERT_TRUE(vg.Apply(b1.Build(20).ValueOrDie()).ok());
  ASSERT_TRUE(vg.Apply(b2.Build(20).ValueOrDie()).ok());

  SnapshotCache snapshots(8);
  auto s0 = snapshots.Get(vg, 0).ValueOrDie();
  auto s2 = snapshots.Get(vg, 2).ValueOrDie();
  ResultCache cache;
  SimilarityOptions sim;
  // Version 2 is not version 0's direct successor.
  EXPECT_FALSE(
      PropagateResultCacheAcrossDelta(&cache, *s0, *s2, sim).ok());
}

}  // namespace
}  // namespace srs
