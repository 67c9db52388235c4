// Property tests for the pluggable kernel backends (core/kernel_backend.h):
//  * at prune_epsilon = 0 the sparse frontier backend is BITWISE identical
//    to the dense reference cursor, across random graphs, all three
//    measures, and multiple thread counts — through both QueryEngine and
//    AllPairsEngine, and after every level of the stepwise cursor. Exact
//    engine requests (backend "dense") are served by that frontier too, so
//    the expected side is always the dense cursor itself
//    (MakeDenseKernelBackend), never another engine;
//  * at prune_epsilon > 0 it deviates by at most the analytic ∞-norm bound
//    derived from the epsilon, the series weights, and the transition
//    matrices' row sums;
//  * backend and prune epsilon are folded into result-cache digests, so
//    pruned and exact answers never alias in a shared cache.

#include "srs/core/kernel_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "srs/core/single_source_kernel.h"
#include "srs/engine/all_pairs_engine.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/snapshot.h"
#include "srs/graph/generators.h"
#include "srs/matrix/ops.h"

namespace srs {
namespace {

constexpr QueryMeasure kAllMeasures[] = {QueryMeasure::kSimRankStarGeometric,
                                         QueryMeasure::kSimRankStarExponential,
                                         QueryMeasure::kRwr};

std::vector<Graph> RandomCorpus() {
  std::vector<Graph> corpus;
  corpus.push_back(Rmat(60, 360, 11).ValueOrDie());
  corpus.push_back(Rmat(45, 150, 12).ValueOrDie());
  corpus.push_back(ErdosRenyi(80, 240, 13).ValueOrDie());
  corpus.push_back(CollaborationCliqueGraph(40, 30, 2, 5, 14).ValueOrDie());
  corpus.push_back(StarGraph(12).ValueOrDie());  // extreme skew
  corpus.push_back(PathGraph(9).ValueOrDie());   // frontiers stay tiny
  return corpus;
}

std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> nodes(static_cast<size_t>(g.NumNodes()));
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

SimilarityOptions BaseOptions() {
  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 7;
  return sim;
}

/// One measure's column recurrence with the depth and weights the engines
/// derive from `sim`, runnable stepwise on any backend.
struct Column {
  Column(QueryMeasure m, const SimilarityOptions& sim)
      : measure(m),
        damping(sim.damping),
        k_max(EffectiveIterations(
            sim, m == QueryMeasure::kSimRankStarExponential)),
        weights(m == QueryMeasure::kSimRankStarExponential
                    ? ExponentialStarLengthWeights(sim.damping, k_max)
                    : GeometricStarLengthWeights(sim.damping, k_max)) {}

  PartialColumnEvaluation* Begin(const KernelBackend& backend,
                                 const GraphSnapshot& snap, NodeId query,
                                 KernelWorkspace* ws,
                                 std::vector<double>* out) const {
    if (measure == QueryMeasure::kRwr) {
      return backend.BeginRwrColumn(snap.wt, snap.w, query, damping, k_max,
                                    ws, out);
    }
    return backend.BeginBinomialColumn(snap.q, snap.qt, query, weights, ws,
                                       out);
  }

  QueryMeasure measure;
  double damping;
  int k_max;
  std::vector<double> weights;
};

/// Full rows from the dense reference cursor, drained — the expected side
/// of every exact-identity check here.
std::vector<std::vector<double>> DenseCursorRows(
    const Graph& g, QueryMeasure measure, const SimilarityOptions& sim,
    const std::vector<NodeId>& batch) {
  const std::shared_ptr<const GraphSnapshot> snap = MakeGraphSnapshot(g);
  const std::shared_ptr<const KernelBackend> dense = MakeDenseKernelBackend();
  const std::unique_ptr<KernelWorkspace> ws = dense->NewWorkspace();
  const Column column(measure, sim);
  std::vector<std::vector<double>> rows(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    PartialColumnEvaluation* eval =
        column.Begin(*dense, *snap, batch[i], ws.get(), &rows[i]);
    while (eval->AdvanceLevel()) {
    }
  }
  return rows;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The analytic |sparse − dense| bound for `measure` on `g` (plus a tiny
/// slack for floating-point rounding, which the bound does not model).
double BoundFor(const Graph& g, QueryMeasure measure,
                const SimilarityOptions& sim) {
  const std::shared_ptr<const GraphSnapshot> snap = MakeGraphSnapshot(g);
  double bound = 0.0;
  if (measure == QueryMeasure::kRwr) {
    bound = RwrPruneErrorBound(
        sim.damping, EffectiveIterations(sim, /*exponential=*/false),
        MaxAbsRowSum(snap->wt), sim.prune_epsilon);
  } else {
    const bool exponential =
        measure == QueryMeasure::kSimRankStarExponential;
    const int k_max = EffectiveIterations(sim, exponential);
    const std::vector<double> weights =
        exponential ? ExponentialStarLengthWeights(sim.damping, k_max)
                    : GeometricStarLengthWeights(sim.damping, k_max);
    bound = BinomialPruneErrorBound(weights, MaxAbsRowSum(snap->q),
                                    MaxAbsRowSum(snap->qt),
                                    sim.prune_epsilon);
  }
  return bound + 1e-9;
}

TEST(KernelBackendTest, SparseBitIdenticalToDenseAtZeroEpsilon) {
  for (const Graph& g : RandomCorpus()) {
    const SimilarityOptions sim = BaseOptions();
    const std::vector<NodeId> batch = AllNodes(g);
    for (QueryMeasure measure : kAllMeasures) {
      const auto want = DenseCursorRows(g, measure, sim, batch);
      for (int threads : {1, 4}) {
        // Both exact routes: backend "dense" (served by the frontier at 0)
        // and "sparse" with prune_epsilon = 0.
        for (KernelBackendKind kind :
             {KernelBackendKind::kDense, KernelBackendKind::kSparse}) {
          QueryEngineOptions opts;
          opts.similarity = sim;
          opts.similarity.backend = kind;
          opts.similarity.prune_epsilon = 0.0;
          opts.num_threads = threads;
          QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
          const auto got = engine.BatchScores(measure, batch).ValueOrDie();
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < batch.size(); ++i) {
            // Bitwise, not approximate: the frontier replays the dense
            // operation order exactly when nothing is pruned.
            ASSERT_TRUE(BitEqual(got[i], want[i]))
                << QueryMeasureToString(measure) << " threads=" << threads
                << " backend=" << KernelBackendKindToString(kind)
                << " query=" << batch[i];
          }
        }
      }
    }
  }
}

TEST(KernelBackendTest, ServingRouteMatchesDenseCursorAfterEveryLevel) {
  // Exact requests are served by MakeKernelBackend({backend: dense}), the
  // frontier at prune_epsilon = 0. Its partial vector must be bitwise the
  // dense cursor's after Begin and after every AdvanceLevel: top-k early
  // termination decides on those partial sums, so this is what keeps its
  // levels_evaluated and rankings unchanged. The corpus covers frontiers
  // that stay tiny (path, star) and ones that saturate past n/4 and
  // densify mid-series (R-MAT, cliques).
  const std::shared_ptr<const KernelBackend> dense = MakeDenseKernelBackend();
  const SimilarityOptions sim = BaseOptions();
  const std::shared_ptr<const KernelBackend> served = MakeKernelBackend(sim);
  const std::unique_ptr<KernelWorkspace> served_ws = served->NewWorkspace();
  const std::unique_ptr<KernelWorkspace> dense_ws = dense->NewWorkspace();
  for (const Graph& g : RandomCorpus()) {
    const std::shared_ptr<const GraphSnapshot> snap = MakeGraphSnapshot(g);
    for (QueryMeasure measure : kAllMeasures) {
      const Column column(measure, sim);
      for (NodeId q : AllNodes(g)) {
        std::vector<double> got;
        std::vector<double> want;
        PartialColumnEvaluation* a =
            column.Begin(*served, *snap, q, served_ws.get(), &got);
        PartialColumnEvaluation* b =
            column.Begin(*dense, *snap, q, dense_ws.get(), &want);
        ASSERT_EQ(a->MaxLevel(), b->MaxLevel());
        while (true) {
          ASSERT_EQ(a->Level(), b->Level());
          ASSERT_TRUE(BitEqual(got, want))
              << QueryMeasureToString(measure) << " query=" << q
              << " level=" << a->Level();
          const bool more = a->AdvanceLevel();
          ASSERT_EQ(more, b->AdvanceLevel());
          if (!more) break;
        }
      }
    }
  }
}

TEST(KernelBackendTest, FrontierSupportListsEachNonzeroEntryOnce) {
  // PartialColumnEvaluation::Support: while non-null it lists every
  // nonzero output entry exactly once, and each level only appends to
  // it; once a level vector densifies it is null for the rest of the
  // column. One workspace serves every column, so each Begin must restart
  // the list. Covers the binomial and RWR cursors, exact and pruned.
  const SimilarityOptions sim = BaseOptions();
  for (double eps : {0.0, 1e-4}) {
    const std::shared_ptr<const KernelBackend> frontier =
        MakeSparseFrontierBackend(eps);
    const std::unique_ptr<KernelWorkspace> ws = frontier->NewWorkspace();
    int kept = 0, went_null = 0;
    for (const Graph& g : RandomCorpus()) {
      const std::shared_ptr<const GraphSnapshot> snap = MakeGraphSnapshot(g);
      for (QueryMeasure measure : kAllMeasures) {
        const Column column(measure, sim);
        for (NodeId q : AllNodes(g)) {
          std::vector<double> out;
          PartialColumnEvaluation* eval =
              column.Begin(*frontier, *snap, q, ws.get(), &out);
          std::vector<int32_t> previous;
          bool null_seen = false;
          do {
            const std::vector<int32_t>* support = eval->Support();
            const std::string where =
                std::string(QueryMeasureToString(measure)) +
                " eps=" + std::to_string(eps) + " query=" +
                std::to_string(q) + " level=" + std::to_string(eval->Level());
            if (support == nullptr) {
              ASSERT_GT(eval->Level(), 0) << where;
              null_seen = true;
              continue;
            }
            ASSERT_FALSE(null_seen) << where << ": support came back";
            ASSERT_GE(support->size(), previous.size()) << where;
            ASSERT_TRUE(std::equal(previous.begin(), previous.end(),
                                   support->begin()))
                << where << ": a level rewrote the list instead of appending";
            std::vector<char> listed(out.size(), 0);
            for (int32_t i : *support) {
              ASSERT_GE(i, 0) << where;
              ASSERT_LT(static_cast<size_t>(i), out.size()) << where;
              ASSERT_FALSE(listed[static_cast<size_t>(i)])
                  << where << ": index " << i << " listed twice";
              listed[static_cast<size_t>(i)] = 1;
            }
            for (size_t j = 0; j < out.size(); ++j) {
              ASSERT_EQ(listed[j] != 0, out[j] != 0.0)
                  << where << " entry " << j;
            }
            previous = *support;
          } while (eval->AdvanceLevel());
          ++(null_seen ? went_null : kept);
          // A caller that skips the support (the one-shot forms) gets
          // none; the next Begin records afresh.
          eval = column.Begin(*frontier, *snap, q, ws.get(), &out);
          eval->SkipSupport();
          ASSERT_EQ(eval->Support(), nullptr);
        }
      }
    }
    // Both regimes occur: frontiers that stay sparse all column long and
    // ones that densify part-way.
    EXPECT_GT(kept, 0) << "eps=" << eps;
    EXPECT_GT(went_null, 0) << "eps=" << eps;
  }

  // The dense cursor never reports a support.
  const std::shared_ptr<const KernelBackend> dense = MakeDenseKernelBackend();
  const std::unique_ptr<KernelWorkspace> dense_ws = dense->NewWorkspace();
  const Graph g = PathGraph(9).ValueOrDie();
  const std::shared_ptr<const GraphSnapshot> snap = MakeGraphSnapshot(g);
  for (QueryMeasure measure : kAllMeasures) {
    const Column column(measure, sim);  // the cursor reads its weights
    std::vector<double> out;
    PartialColumnEvaluation* eval =
        column.Begin(*dense, *snap, 4, dense_ws.get(), &out);
    do {
      EXPECT_EQ(eval->Support(), nullptr);
    } while (eval->AdvanceLevel());
  }
}

TEST(KernelBackendTest, SparseMatchesDenseWithinAnalyticBound) {
  for (const Graph& g : RandomCorpus()) {
    const std::vector<NodeId> batch = AllNodes(g);
    for (double eps : {1e-2, 1e-4}) {
      SimilarityOptions sim = BaseOptions();
      QueryEngineOptions sparse_opts;
      sparse_opts.similarity = sim;
      sparse_opts.similarity.backend = KernelBackendKind::kSparse;
      sparse_opts.similarity.prune_epsilon = eps;
      sparse_opts.num_threads = 3;
      QueryEngine sparse =
          QueryEngine::Create(g, sparse_opts).MoveValueOrDie();

      for (QueryMeasure measure : kAllMeasures) {
        const double bound = BoundFor(g, measure, sparse_opts.similarity);
        const auto want = DenseCursorRows(g, measure, sim, batch);
        const auto got = sparse.BatchScores(measure, batch).ValueOrDie();
        for (size_t i = 0; i < batch.size(); ++i) {
          for (size_t j = 0; j < want[i].size(); ++j) {
            ASSERT_NEAR(got[i][j], want[i][j], bound)
                << QueryMeasureToString(measure) << " eps=" << eps
                << " query=" << batch[i] << " node=" << j;
          }
        }
      }
    }
  }
}

TEST(KernelBackendTest, AllPairsSparseRowsBitIdenticalAtZeroEpsilon) {
  const Graph g = Rmat(48, 260, 21).ValueOrDie();
  SimilarityOptions sim = BaseOptions();
  const std::vector<NodeId> sources = AllNodes(g);
  for (QueryMeasure measure : kAllMeasures) {
    const auto want = DenseCursorRows(g, measure, sim, sources);
    for (KernelBackendKind kind :
         {KernelBackendKind::kDense, KernelBackendKind::kSparse}) {
      for (int tile : {3, 32}) {
        AllPairsOptions aopts;
        aopts.similarity = sim;
        aopts.similarity.backend = kind;
        aopts.tile_size = tile;
        aopts.num_threads = 2;
        AllPairsEngine engine =
            AllPairsEngine::Create(g, aopts).MoveValueOrDie();
        const DenseMatrix rows =
            engine.ComputeRows(measure, sources).ValueOrDie();
        for (size_t i = 0; i < sources.size(); ++i) {
          const double* row = rows.Row(static_cast<int64_t>(i));
          ASSERT_TRUE(BitEqual(std::vector<double>(row, row + g.NumNodes()),
                               want[i]))
              << QueryMeasureToString(measure)
              << " backend=" << KernelBackendKindToString(kind)
              << " tile=" << tile << " source=" << sources[i];
        }
      }
    }
  }
}

TEST(KernelBackendTest, DigestsSeparateBackendsAndEpsilons) {
  SimilarityOptions dense = BaseOptions();
  SimilarityOptions sparse0 = dense;
  sparse0.backend = KernelBackendKind::kSparse;
  SimilarityOptions sparse4 = sparse0;
  sparse4.prune_epsilon = 1e-4;
  for (int tag : {0, 1, 2}) {
    EXPECT_NE(ResultDigest(dense, tag), ResultDigest(sparse0, tag));
    EXPECT_NE(ResultDigest(sparse0, tag), ResultDigest(sparse4, tag));
    EXPECT_NE(ResultDigest(dense, tag), ResultDigest(sparse4, tag));
  }
  // The dense backend ignores prune_epsilon, so an inert epsilon must not
  // fragment dense caches.
  SimilarityOptions dense_eps = dense;
  dense_eps.prune_epsilon = 1e-4;
  EXPECT_EQ(ResultDigest(dense, 0), ResultDigest(dense_eps, 0));
}

TEST(KernelBackendTest, SharedCacheNeverServesPrunedAnswersToDense) {
  // Warm a shared cache with heavily pruned sparse answers, then serve the
  // same batch with a dense engine: the dense answers must be bit-identical
  // to a cold dense run, i.e. the pruned entries must not alias.
  const Graph g = Rmat(50, 300, 31).ValueOrDie();
  const std::vector<NodeId> batch = AllNodes(g);
  auto cache = std::make_shared<ResultCache>();

  QueryEngineOptions sparse_opts;
  sparse_opts.similarity = BaseOptions();
  sparse_opts.similarity.backend = KernelBackendKind::kSparse;
  sparse_opts.similarity.prune_epsilon = 1e-2;
  sparse_opts.result_cache = cache;
  QueryEngine sparse = QueryEngine::Create(g, sparse_opts).MoveValueOrDie();
  sparse.BatchScores(QueryMeasure::kSimRankStarGeometric, batch).ValueOrDie();

  QueryEngineOptions dense_opts;
  dense_opts.similarity = BaseOptions();
  dense_opts.result_cache = cache;
  QueryEngine cached = QueryEngine::Create(g, dense_opts).MoveValueOrDie();
  const auto got =
      cached.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();

  QueryEngineOptions cold_opts;
  cold_opts.similarity = BaseOptions();
  QueryEngine cold = QueryEngine::Create(g, cold_opts).MoveValueOrDie();
  const auto want =
      cold.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << batch[i];
  }
}

TEST(KernelBackendTest, PruningSparsifiesScores) {
  // At eps = 1e-2 on a sparse random graph, far-apart pairs must actually
  // be dropped — the point of sieving during propagation.
  const Graph g = ErdosRenyi(200, 400, 7).ValueOrDie();
  QueryEngineOptions opts;
  opts.similarity = BaseOptions();
  opts.similarity.backend = KernelBackendKind::kSparse;
  opts.similarity.prune_epsilon = 1e-2;
  QueryEngine sparse = QueryEngine::Create(g, opts).MoveValueOrDie();
  QueryEngineOptions dopts;
  dopts.similarity = BaseOptions();
  QueryEngine dense = QueryEngine::Create(g, dopts).MoveValueOrDie();
  const std::vector<NodeId> batch = AllNodes(g);
  int64_t nnz_sparse = 0;
  int64_t nnz_dense = 0;
  const auto a =
      sparse.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();
  const auto b =
      dense.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();
  for (size_t i = 0; i < batch.size(); ++i) {
    for (size_t j = 0; j < a[i].size(); ++j) {
      nnz_sparse += a[i][j] != 0.0;
      nnz_dense += b[i][j] != 0.0;
    }
  }
  EXPECT_LT(nnz_sparse, nnz_dense);
  EXPECT_GT(nnz_sparse, 0);
}

TEST(KernelBackendTest, ValidateRejectsBadPruneEpsilon) {
  const Graph g = PathGraph(4).ValueOrDie();
  QueryEngineOptions opts;
  opts.similarity.backend = KernelBackendKind::kSparse;
  opts.similarity.prune_epsilon = -1e-3;
  EXPECT_EQ(QueryEngine::Create(g, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.similarity.prune_epsilon = 1.0;
  EXPECT_EQ(QueryEngine::Create(g, opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KernelBackendTest, BackendKindStringsRoundTrip) {
  KernelBackendKind kind;
  ASSERT_TRUE(ParseKernelBackendKind("dense", &kind));
  EXPECT_EQ(kind, KernelBackendKind::kDense);
  ASSERT_TRUE(ParseKernelBackendKind("sparse", &kind));
  EXPECT_EQ(kind, KernelBackendKind::kSparse);
  EXPECT_FALSE(ParseKernelBackendKind("frontier", &kind));
  EXPECT_STREQ(KernelBackendKindToString(KernelBackendKind::kDense), "dense");
  EXPECT_STREQ(KernelBackendKindToString(KernelBackendKind::kSparse),
               "sparse");
  EXPECT_STREQ(MakeDenseKernelBackend()->Name(), "dense");
  EXPECT_STREQ(MakeSparseFrontierBackend(0.0)->Name(), "sparse");
}

}  // namespace
}  // namespace srs
