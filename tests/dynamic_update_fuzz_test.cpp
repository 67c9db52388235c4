// Differential fuzz harness for the dynamic-graph subsystem: random graphs
// × random EdgeDelta sequences, asserting that *incrementally* served
// results — versioned snapshots patched row by row (engine/snapshot.h),
// shared result caches propagated across deltas
// (engine/delta_invalidation.h), engines built once and rebound to every
// later version — are **bit-identical** to rebuilding each version from
// scratch, across all three measures × both kernel backends × all three
// serving engines.
//
// Two lanes share this binary (tests/CMakeLists.txt): the *Fast* test runs
// a small configuration in the PR lane; the full sweep is registered with
// the "slow" label and rerun nightly under --gtest_repeat. The seed comes
// from SRS_FUZZ_SEED when set (the nightly job wires in its run id) and
// advances per test invocation so --gtest_repeat explores fresh samples.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "srs/common/rng.h"
#include "srs/engine/all_pairs_engine.h"
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

uint64_t FuzzSeed() {
  static std::atomic<uint64_t> invocation{0};
  uint64_t base = 20260731;
  if (const char* env = std::getenv("SRS_FUZZ_SEED")) {
    const uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed != 0) base = parsed;
  }
  // --gtest_repeat re-enters the test body; advancing the seed per
  // invocation makes every repetition a fresh sample of the same
  // reproducible stream (the failing seed is printed on any mismatch).
  return base + invocation.fetch_add(1);
}

/// Bitwise equality — EXPECT_EQ on doubles admits -0.0 == +0.0 and would
/// mask representation drift; the contract here is stronger.
void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want,
                    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  if (!got.empty() &&
      std::memcmp(got.data(), want.data(),
                  got.size() * sizeof(double)) != 0) {
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << context << " first diff at entry " << i;
    }
    FAIL() << context << " bit drift not visible at value level";
  }
}

/// Same answer, same diagnostics: the ranking (ids and score bits), the
/// levels evaluated and possible, and the residual bound.
void ExpectSameTopK(const TopKResult& got, const TopKResult& want,
                    const std::string& context) {
  ASSERT_EQ(got.ranking.size(), want.ranking.size()) << context;
  for (size_t r = 0; r < got.ranking.size(); ++r) {
    EXPECT_EQ(got.ranking[r].node, want.ranking[r].node)
        << context << " rank " << r;
    EXPECT_EQ(got.ranking[r].score, want.ranking[r].score)
        << context << " rank " << r;
  }
  // The termination diagnostics depend on the residual tails, which
  // derive from the snapshot's row-sum gammas — identical bits between
  // incremental and rebuilt snapshots.
  EXPECT_EQ(got.levels_evaluated, want.levels_evaluated) << context;
  EXPECT_EQ(got.levels_total, want.levels_total) << context;
  EXPECT_EQ(got.residual_bound, want.residual_bound) << context;
}

/// A random in-tree: every node but the root points to its parent, and
/// every parent has two or three children. Each column of Q then sums to
/// at most 1/2, so the binomial residual tails (core/topk.h), which
/// saturate once (gamma_q + gamma_qt) / 2 reaches 1, still depend on the
/// gammas here; they change as soon as a delta leaves some node with one
/// child. On the other graph families they are saturated at every
/// version, so a stale tail would go unseen.
Result<Graph> RandomInTree(int64_t n, Rng* rng) {
  GraphBuilder builder(n);
  NodeId next = 1;
  for (NodeId parent = 0; next < n; ++parent) {
    int64_t children = 2 + static_cast<int64_t>(rng->Uniform(2));
    if (n - next - children < 2) children = n - next;  // no lone child
    for (; children > 0; --children, ++next) {
      SRS_RETURN_NOT_OK(builder.AddEdge(next, parent));
    }
  }
  return builder.Build();
}

EdgeDelta RandomDelta(const VersionedGraph& vg, int max_ops, Rng* rng) {
  const int64_t n = vg.NumNodes();
  const uint64_t version = vg.CurrentVersion();
  EdgeDelta::Builder builder;
  const int ops = 1 + static_cast<int>(rng->Uniform(
                          static_cast<uint64_t>(max_ops)));
  for (int i = 0; i < ops; ++i) {
    const double kind = rng->UniformDouble();
    if (kind < 0.55) {
      // Random insert — may already exist (exercises the no-op path).
      builder.Insert(static_cast<NodeId>(rng->Uniform(n)),
                     static_cast<NodeId>(rng->Uniform(n)));
    } else if (kind < 0.85) {
      // Delete an existing edge when one is found quickly.
      NodeId u = static_cast<NodeId>(rng->Uniform(n));
      for (int tries = 0; tries < 8 && vg.OutDegree(version, u) == 0;
           ++tries) {
        u = static_cast<NodeId>(rng->Uniform(n));
      }
      const auto nbrs = vg.OutNeighbors(version, u);
      if (!nbrs.empty()) {
        builder.Remove(u, nbrs[rng->Uniform(nbrs.size())]);
      } else {
        builder.Remove(u, static_cast<NodeId>(rng->Uniform(n)));
      }
    } else {
      // Random delete — usually a no-op; with a trailing duplicate op the
      // last-op-wins dedup path is exercised too.
      const NodeId u = static_cast<NodeId>(rng->Uniform(n));
      const NodeId v = static_cast<NodeId>(rng->Uniform(n));
      builder.Remove(u, v);
      if (rng->Bernoulli(0.3)) builder.Insert(u, v);
    }
  }
  Result<EdgeDelta> delta = builder.Build(n);
  EXPECT_TRUE(delta.ok()) << delta.status().ToString();
  return delta.MoveValueOrDie();
}

struct FuzzConfig {
  int num_graphs = 3;  ///< Erdős–Rényi, R-MAT, in-tree, round robin
  int num_versions = 4;  ///< versions beyond the base, per graph
  int max_ops = 8;       ///< max delta ops per version
  int64_t max_nodes = 48;
};

void RunDifferentialFuzz(uint64_t seed, const FuzzConfig& config) {
  SCOPED_TRACE("fuzz seed " + std::to_string(seed));
  for (int gi = 0; gi < config.num_graphs; ++gi) {
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(gi)));
    const int64_t n = 16 + static_cast<int64_t>(
                               rng.Uniform(config.max_nodes - 15));
    const int64_t m = n * (1 + static_cast<int64_t>(rng.Uniform(3)));
    Result<Graph> base =
        gi % 3 == 0   ? ErdosRenyi(n, std::min(m, n * (n - 1) / 2), rng.Next())
        : gi % 3 == 1 ? Rmat(n, m, rng.Next())
                      : RandomInTree(n, &rng);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    SCOPED_TRACE("graph " + std::to_string(gi) + ": n=" + std::to_string(n));

    // Aggressive compaction floor so small fuzz graphs also cross the
    // density threshold and exercise the compact-and-continue path.
    VersionedGraphOptions vopts;
    vopts.compact_min_nodes = 8;
    vopts.compact_fraction = 0.3;
    VersionedGraph vg(Graph(base.ValueOrDie()), vopts);

    // The incremental side shares everything a long-lived server would:
    // one snapshot cache for the whole chain and one result cache per
    // backend, carried across versions via delta-aware invalidation.
    SnapshotCache snapshots(32);
    std::shared_ptr<ResultCache> caches[2] = {
        std::make_shared<ResultCache>(), std::make_shared<ResultCache>()};

    SimilarityOptions sims[2];
    sims[0].damping = 0.6;
    sims[0].iterations = 4;
    sims[1] = sims[0];
    sims[1].backend = KernelBackendKind::kSparse;
    sims[1].prune_epsilon = 0.0;  // sparse must reproduce dense bitwise

    // One full-row and one top-k engine per backend, built at version 0
    // and rebound to every later version the way SrsService serves a
    // delta: their pools, workspaces and result caches stay the same
    // objects throughout, and they are asked the previous version's
    // queries too, so an answer cached under a stale digest would be
    // served.
    std::vector<QueryEngine> rebound_full;
    std::vector<TopKEngine> rebound_ranked;
    for (int b = 0; b < 2; ++b) {
      QueryEngineOptions qopts;
      qopts.similarity = sims[b];
      qopts.num_threads = 2;
      qopts.result_cache = caches[b];
      qopts.snapshot_cache = &snapshots;
      Result<QueryEngine> full = QueryEngine::Create({vg, 0}, qopts);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      rebound_full.push_back(full.MoveValueOrDie());
      TopKEngineOptions topts;
      topts.similarity = sims[b];
      topts.similarity.top_k = 3;
      topts.num_threads = 2;
      topts.result_cache = caches[b];
      topts.snapshot_cache = &snapshots;
      Result<TopKEngine> ranked = TopKEngine::Create({vg, 0}, topts);
      ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
      rebound_ranked.push_back(ranked.MoveValueOrDie());
    }
    std::vector<NodeId> previous_queries;

    for (uint64_t v = 0; v <= static_cast<uint64_t>(config.num_versions);
         ++v) {
      SCOPED_TRACE("version " + std::to_string(v));
      if (v > 0) {
        const EdgeDelta delta = RandomDelta(vg, config.max_ops, &rng);
        Result<uint64_t> applied = vg.Apply(delta);
        ASSERT_TRUE(applied.ok()) << applied.status().ToString();
        ASSERT_EQ(applied.ValueOrDie(), v);
        // Carry both shared result caches across the delta: survivors
        // must be bit-identical to cold recomputation (checked below by
        // serving through them).
        Result<std::shared_ptr<const GraphSnapshot>> parent =
            snapshots.Get(vg, v - 1);
        Result<std::shared_ptr<const GraphSnapshot>> child =
            snapshots.Get(vg, v);
        ASSERT_TRUE(parent.ok() && child.ok());
        for (int b = 0; b < 2; ++b) {
          Result<DeltaInvalidationStats> stats =
              PropagateResultCacheAcrossDelta(caches[b].get(),
                                              *parent.ValueOrDie(),
                                              *child.ValueOrDie(), sims[b]);
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
          rebound_full[static_cast<size_t>(b)].Rebind(child.ValueOrDie());
          rebound_ranked[static_cast<size_t>(b)].Rebind(child.ValueOrDie());
        }
      }

      Result<Graph> rebuilt_r = vg.Materialize(v);
      ASSERT_TRUE(rebuilt_r.ok());
      const Graph& rebuilt = rebuilt_r.ValueOrDie();
      ASSERT_EQ(rebuilt.NumEdges(), vg.NumEdges(v));

      // Unmodified row storage must be physically shared along the chain
      // (unless an overlay or graph-level compaction reset the base).
      if (v > 0 && !vg.IsCompacted(v)) {
        Result<std::shared_ptr<const GraphSnapshot>> parent =
            snapshots.Get(vg, v - 1);
        Result<std::shared_ptr<const GraphSnapshot>> child =
            snapshots.Get(vg, v);
        ASSERT_TRUE(parent.ok() && child.ok());
        if (child.ValueOrDie()->q.HasPatches()) {
          EXPECT_EQ(child.ValueOrDie()->q.base().get(),
                    parent.ValueOrDie()->q.base().get())
              << "derived overlay must share the parent's base storage";
        }
      }

      std::vector<NodeId> queries;
      for (int i = 0; i < 4; ++i) {
        queries.push_back(static_cast<NodeId>(rng.Uniform(n)));
      }
      const int threads = 1 + static_cast<int>(v % 2);
      // The cold side answers this version's queries, then the previous
      // version's, which only the rebound engines are also asked.
      std::vector<NodeId> asked = queries;
      asked.insert(asked.end(), previous_queries.begin(),
                   previous_queries.end());
      previous_queries = queries;

      for (int b = 0; b < 2; ++b) {
        SCOPED_TRACE(b == 0 ? "backend dense" : "backend sparse");
        SnapshotCache fresh(4);  // the rebuilt side never reuses storage

        for (QueryMeasure measure :
             {QueryMeasure::kSimRankStarGeometric,
              QueryMeasure::kSimRankStarExponential, QueryMeasure::kRwr}) {
          SCOPED_TRACE(QueryMeasureToString(measure));

          // --- QueryEngine ---------------------------------------------
          QueryEngineOptions qopts;
          qopts.similarity = sims[b];
          qopts.num_threads = threads;
          qopts.result_cache = caches[b];
          qopts.snapshot_cache = &snapshots;
          Result<QueryEngine> incr = QueryEngine::Create({vg, v}, qopts);
          ASSERT_TRUE(incr.ok()) << incr.status().ToString();
          Result<std::vector<std::vector<double>>> got =
              incr.ValueOrDie().BatchScores(measure, queries);
          ASSERT_TRUE(got.ok()) << got.status().ToString();

          QueryEngineOptions cold_opts;
          cold_opts.similarity = sims[b];
          cold_opts.num_threads = threads;
          cold_opts.snapshot_cache = &fresh;
          Result<QueryEngine> cold = QueryEngine::Create(rebuilt, cold_opts);
          ASSERT_TRUE(cold.ok()) << cold.status().ToString();
          Result<std::vector<std::vector<double>>> want =
              cold.ValueOrDie().BatchScores(measure, asked);
          ASSERT_TRUE(want.ok());
          for (size_t i = 0; i < queries.size(); ++i) {
            ExpectBitEqual(got.ValueOrDie()[i], want.ValueOrDie()[i],
                           "QueryEngine query " + std::to_string(queries[i]));
          }

          // --- AllPairsEngine ------------------------------------------
          AllPairsOptions aopts;
          aopts.similarity = sims[b];
          aopts.num_threads = threads;
          aopts.tile_size = 3;  // deliberately misaligned with the batch
          aopts.result_cache = caches[b];
          aopts.snapshot_cache = &snapshots;
          Result<AllPairsEngine> ap = AllPairsEngine::Create({vg, v}, aopts);
          ASSERT_TRUE(ap.ok()) << ap.status().ToString();
          Result<DenseMatrix> rows =
              ap.ValueOrDie().ComputeRows(measure, queries);
          ASSERT_TRUE(rows.ok());
          for (size_t i = 0; i < queries.size(); ++i) {
            std::vector<double> row(
                rows.ValueOrDie().Row(static_cast<int64_t>(i)),
                rows.ValueOrDie().Row(static_cast<int64_t>(i)) + n);
            ExpectBitEqual(row, want.ValueOrDie()[i],
                           "AllPairsEngine source " +
                               std::to_string(queries[i]));
          }

          // --- TopKEngine ----------------------------------------------
          TopKEngineOptions topts;
          topts.similarity = sims[b];
          topts.similarity.top_k = 3;
          topts.num_threads = threads;
          topts.snapshot_cache = &snapshots;
          Result<TopKEngine> tk = TopKEngine::Create({vg, v}, topts);
          ASSERT_TRUE(tk.ok()) << tk.status().ToString();
          Result<std::vector<TopKResult>> tk_got =
              tk.ValueOrDie().BatchTopK(measure, queries);
          ASSERT_TRUE(tk_got.ok());

          TopKEngineOptions cold_topts = topts;
          cold_topts.snapshot_cache = &fresh;
          Result<TopKEngine> tk_cold =
              TopKEngine::Create(rebuilt, cold_topts);
          ASSERT_TRUE(tk_cold.ok());
          Result<std::vector<TopKResult>> tk_want =
              tk_cold.ValueOrDie().BatchTopK(measure, asked);
          ASSERT_TRUE(tk_want.ok());
          for (size_t i = 0; i < queries.size(); ++i) {
            ExpectSameTopK(tk_got.ValueOrDie()[i], tk_want.ValueOrDie()[i],
                           "TopKEngine query " + std::to_string(queries[i]));
          }

          // --- Engines rebound from version 0 --------------------------
          Result<std::vector<std::vector<double>>> rebound_rows =
              rebound_full[static_cast<size_t>(b)].BatchScores(measure,
                                                               asked);
          ASSERT_TRUE(rebound_rows.ok());
          Result<std::vector<TopKResult>> rebound_top =
              rebound_ranked[static_cast<size_t>(b)].BatchTopK(measure,
                                                               asked);
          ASSERT_TRUE(rebound_top.ok());
          for (size_t i = 0; i < asked.size(); ++i) {
            const std::string query = std::to_string(asked[i]);
            ExpectBitEqual(rebound_rows.ValueOrDie()[i],
                           want.ValueOrDie()[i],
                           "rebound QueryEngine query " + query);
            ExpectSameTopK(rebound_top.ValueOrDie()[i],
                           tk_want.ValueOrDie()[i],
                           "rebound TopKEngine query " + query);
          }
        }
      }
    }
  }
}

TEST(DynamicUpdateFuzzTest, FastDifferential) {
  FuzzConfig config;  // small: PR fast lane (see tests/CMakeLists.txt)
  RunDifferentialFuzz(FuzzSeed(), config);
}

TEST(DynamicUpdateFuzzTest, DifferentialSweep) {
  FuzzConfig config;
  config.num_graphs = 8;
  config.num_versions = 10;
  config.max_ops = 32;
  config.max_nodes = 300;
  RunDifferentialFuzz(FuzzSeed() + 0x9e37, config);
}

}  // namespace
}  // namespace srs
