// Kernel-backend shootout: exact (`dense`) vs pruned (`sparse`) requests,
// swept across graph density × prune epsilon × measure. Single-source
// latency at one worker thread — the per-query cost the backends differ
// on; batching/threading is orthogonal (bench_query_engine). Both kinds
// run the frontier backend (core/kernel_backend.h); `dense` rows are the
// frontier at prune_epsilon = 0, not the dense reference cursor.
//
// The acceptance bar for the sparse backend: on a low-degree random graph
// (avg degree <= 4) of n >= 50k nodes at epsilon = 1e-4, sparse beats
// dense single-source latency. Each row also reports the observed max
// |sparse − dense| against the analytic bound (kernel_backend.h), so the
// accuracy contract is visible next to the speedup. At scale 1 the graphs
// have 50k nodes; the whole sweep finishes in seconds.
//
// `--large` switches to the n >= 1M tier: an R-MAT graph (avg degree 8,
// skewed) and a copying-model graph (avg degree 3, community-structured),
// each swept across the SIMD dispatch ladder (common/cpu_features.h) and
// both node layouts (original ids vs the degree-sorted relabeling of
// graph/reorder.h, whose timings include mapping scores back to original
// ids). The `reference` rung on the `original` layout is the pre-ladder
// scalar kernel on the pre-ladder per-alpha workspace layout, so
// `speedup_vs_reference` measures the full layout + kernel win; the
// acceptance bar is >= 2x on the binomial (SimRank*) measures at the best
// dispatched configuration.
//
// Usage: bench_kernel_backends [scale] [seed] [--json] [--json-out PATH]
//        [--large]

#include <cmath>
#include <cstdio>
#include <vector>

#include "srs/common/cpu_features.h"
#include "srs/common/rng.h"
#include "srs/common/table_printer.h"
#include "srs/core/kernel_backend.h"
#include "srs/core/single_source_kernel.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/snapshot.h"
#include "srs/graph/generators.h"
#include "srs/graph/reorder.h"
#include "srs/matrix/ops.h"

#include "bench_util.h"

namespace {

using namespace srs;

double MaxAbsDiffBatch(const std::vector<std::vector<double>>& a,
                       const std::vector<std::vector<double>>& b) {
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a[i].size(); ++j) {
      max_diff = std::max(max_diff, std::fabs(a[i][j] - b[i][j]));
    }
  }
  return max_diff;
}

double AnalyticBound(const GraphSnapshot& snap, QueryMeasure measure,
                     const SimilarityOptions& sim) {
  if (measure == QueryMeasure::kRwr) {
    return RwrPruneErrorBound(sim.damping,
                              EffectiveIterations(sim, /*exponential=*/false),
                              MaxAbsRowSum(snap.wt), sim.prune_epsilon);
  }
  const bool exponential = measure == QueryMeasure::kSimRankStarExponential;
  const int k_max = EffectiveIterations(sim, exponential);
  const std::vector<double> weights =
      exponential ? ExponentialStarLengthWeights(sim.damping, k_max)
                  : GeometricStarLengthWeights(sim.damping, k_max);
  return BinomialPruneErrorBound(weights, MaxAbsRowSum(snap.q),
                                 MaxAbsRowSum(snap.qt), sim.prune_epsilon);
}

std::vector<SimdLevel> LadderOnThisMachine() {
  std::vector<SimdLevel> levels = {SimdLevel::kReference,
                                   SimdLevel::kPortable};
  if (DetectedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

/// The n >= 1M tier: SIMD-ladder x layout sweep of single-source latency
/// on two million-node graphs. Dispatch is read per query (cursor Begin),
/// so one engine serves every rung and only the kernels differ between
/// timings; the degree-sorted layout gets its own engine over the
/// relabeled graph, and its timings *include* mapping every score vector
/// back to original ids (the real serving cost of opting in).
/// `speedup_vs_reference` is always against the (original layout,
/// reference rung) time for the same dataset/backend/measure — i.e.
/// against the pre-ladder code on the pre-ladder layout.
int RunLargeTier(const bench::BenchArgs& args) {
  const int64_t n = static_cast<int64_t>(1000000 * args.scale);
  struct Dataset {
    const char* name;
    Graph graph;
  };
  std::vector<Dataset> datasets;
  datasets.push_back(
      {"rmat_deg8", Rmat(n, 8 * n, DeriveSeed(args.seed, 1)).ValueOrDie()});
  datasets.push_back(
      {"copying_deg3",
       CopyingModelGraph(n, 3.0, 0.35, DeriveSeed(args.seed, 2))
           .ValueOrDie()});

  const QueryMeasure measures[] = {QueryMeasure::kSimRankStarGeometric,
                                   QueryMeasure::kRwr};
  SimilarityOptions sim;
  sim.damping = 0.6;
  // Accuracy-driven depth at the paper's sieve accuracy (1e-4), the same
  // configuration the serving layer and bench_topk's large tier use:
  // K = 18 at C = 0.6 (IterationsForGeometricAccuracy). Depth is what
  // separates the layouts — the reference rung runs Sum(l+1) = 190
  // matrix passes at K = 18 where the fused block runs ~3 per level.
  sim.epsilon = 1e-4;
  sim.iterations = 0;

  std::printf(
      "SIMD dispatch ladder at n=%lld, K=%d (eps=%g), single-source latency "
      "at 1 thread, 4 queries per timing (detected rung: %s)\n",
      static_cast<long long>(n),
      EffectiveIterations(sim, /*exponential=*/false), sim.epsilon,
      SimdLevelName(DetectedSimdLevel()));

  bench::PrintHeader("dataset x measure x backend x layout x simd -> ms/query");
  TablePrinter table({"dataset", "measure", "backend", "layout", "simd",
                      "ms/query", "speedup vs reference"});

  for (const Dataset& dataset : datasets) {
    const Graph& g = dataset.graph;
    const ReorderedGraph sorted = DegreeSortedGraph(g);
    std::vector<NodeId> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back(static_cast<NodeId>((int64_t{7919} * (i + 1)) % n));
    }
    std::vector<NodeId> sorted_batch;
    for (NodeId q : batch) sorted_batch.push_back(sorted.old_to_new[q]);

    struct LayoutConfig {
      const char* name;
      const Graph* graph;
      const std::vector<NodeId>* batch;
      const std::vector<NodeId>* new_to_old;  // null for the original ids
    };
    const LayoutConfig layouts[] = {
        {"original", &g, &batch, nullptr},
        {"degree_sorted", &sorted.graph, &sorted_batch, &sorted.new_to_old},
    };
    struct BackendConfig {
      const char* name;
      KernelBackendKind kind;
      double prune_eps;
    };
    const BackendConfig backends[] = {
        {"dense", KernelBackendKind::kDense, 0.0},
        {"sparse", KernelBackendKind::kSparse, 1e-4},
    };
    for (const BackendConfig& backend : backends) {
      for (QueryMeasure measure : measures) {
        double reference_sec = 0.0;
        for (const LayoutConfig& layout : layouts) {
          QueryEngineOptions opts;
          opts.similarity = sim;
          opts.similarity.backend = backend.kind;
          opts.similarity.prune_epsilon = backend.prune_eps;
          QueryEngine engine =
              QueryEngine::Create(*layout.graph, opts).MoveValueOrDie();
          std::vector<double> unpermuted;
          const auto run_batch = [&] {
            const std::vector<std::vector<double>> scores =
                engine.BatchScores(measure, *layout.batch).ValueOrDie();
            if (layout.new_to_old != nullptr) {
              for (const std::vector<double>& s : scores) {
                PermuteScoresToOriginal(s, *layout.new_to_old, &unpermuted);
              }
            }
          };
          for (SimdLevel level : LadderOnThisMachine()) {
            SetSimdLevelForTesting(level);
            run_batch();  // warm-up
            const double sec = bench::TimeSeconds(run_batch);
            if (layout.new_to_old == nullptr &&
                level == SimdLevel::kReference) {
              reference_sec = sec;
            }
            const double speedup = reference_sec / sec;
            const double ms = 1e3 * sec / batch.size();
            table.AddRow({dataset.name, QueryMeasureToString(measure),
                          backend.name, layout.name, SimdLevelName(level),
                          TablePrinter::Fmt(ms, 3),
                          TablePrinter::Fmt(speedup, 2)});
            if (args.json) {
              bench::JsonLine("bench_kernel_backends_large")
                  .Add("dataset", dataset.name)
                  .Add("nodes", n)
                  .Add("edges", g.NumEdges())
                  .Add("measure", QueryMeasureToString(measure))
                  .Add("backend", backend.name)
                  .Add("prune_eps", backend.prune_eps)
                  .Add("layout", layout.name)
                  .Add("simd", SimdLevelName(level))
                  .Add("ms_per_query", ms)
                  .Add("speedup_vs_reference", speedup)
                  .Print();
            }
          }
          ResetSimdLevelForTesting();
        }
      }
    }
  }
  table.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  if (args.large) return RunLargeTier(args);

  const int64_t n = static_cast<int64_t>(50000 * args.scale);
  const std::vector<int> degrees = {2, 4, 8};
  const std::vector<double> epsilons = {0.0, 1e-4, 1e-3};
  const QueryMeasure measures[] = {QueryMeasure::kSimRankStarGeometric,
                                   QueryMeasure::kSimRankStarExponential,
                                   QueryMeasure::kRwr};

  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 5;

  std::printf(
      "Kernel backends on Erdős–Rényi graphs of %lld nodes, K=5, "
      "single-source latency at 1 thread, 8 queries per timing\n",
      static_cast<long long>(n));

  bench::PrintHeader(
      "avg degree x measure x prune epsilon -> ms/query vs dense");
  TablePrinter table({"deg", "measure", "backend", "prune-eps", "ms/query",
                      "speedup", "max|diff|", "bound"});

  for (int degree : degrees) {
    const Graph g =
        ErdosRenyi(n, n * degree,
                   DeriveSeed(args.seed, static_cast<uint64_t>(degree)))
            .ValueOrDie();
    const std::shared_ptr<const GraphSnapshot> snap = MakeGraphSnapshot(g);

    // 8 well-spread queries; the same batch serves every config.
    std::vector<NodeId> batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(static_cast<NodeId>((int64_t{7919} * i) % n));
    }

    for (QueryMeasure measure : measures) {
      QueryEngineOptions dense_opts;
      dense_opts.similarity = sim;
      QueryEngine dense = QueryEngine::Create(g, dense_opts).MoveValueOrDie();
      dense.BatchScores(measure, batch).ValueOrDie();  // warm-up sizing
      std::vector<std::vector<double>> dense_scores;
      const double dense_sec = bench::TimeSeconds([&] {
        dense_scores = dense.BatchScores(measure, batch).ValueOrDie();
      });
      const double dense_ms = 1e3 * dense_sec / batch.size();
      table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(degree)),
                    QueryMeasureToString(measure), "dense", "-",
                    TablePrinter::Fmt(dense_ms, 3), TablePrinter::Fmt(1.0, 2),
                    "0", "-"});
      if (args.json) {
        bench::JsonLine("bench_kernel_backends")
            .Add("nodes", n)
            .Add("avg_degree", degree)
            .Add("measure", QueryMeasureToString(measure))
            .Add("backend", "dense")
            .Add("ms_per_query", dense_ms)
            .Print();
      }

      for (double eps : epsilons) {
        QueryEngineOptions sparse_opts;
        sparse_opts.similarity = sim;
        sparse_opts.similarity.backend = KernelBackendKind::kSparse;
        sparse_opts.similarity.prune_epsilon = eps;
        QueryEngine sparse =
            QueryEngine::Create(g, sparse_opts).MoveValueOrDie();
        sparse.BatchScores(measure, batch).ValueOrDie();  // warm-up sizing
        std::vector<std::vector<double>> sparse_scores;
        const double sparse_sec = bench::TimeSeconds([&] {
          sparse_scores = sparse.BatchScores(measure, batch).ValueOrDie();
        });
        const double sparse_ms = 1e3 * sparse_sec / batch.size();
        const double diff = MaxAbsDiffBatch(sparse_scores, dense_scores);
        const double bound =
            AnalyticBound(*snap, measure, sparse_opts.similarity);
        table.AddRow(
            {TablePrinter::Fmt(static_cast<int64_t>(degree)),
             QueryMeasureToString(measure), "sparse",
             TablePrinter::Fmt(eps, 6), TablePrinter::Fmt(sparse_ms, 3),
             TablePrinter::Fmt(dense_sec / sparse_sec, 2),
             TablePrinter::Fmt(diff, 8), TablePrinter::Fmt(bound, 8)});
        if (args.json) {
          bench::JsonLine("bench_kernel_backends")
              .Add("nodes", n)
              .Add("avg_degree", degree)
              .Add("measure", QueryMeasureToString(measure))
              .Add("backend", "sparse")
              .Add("prune_eps", eps)
              .Add("ms_per_query", sparse_ms)
              .Add("speedup_vs_dense", dense_sec / sparse_sec)
              .Add("max_abs_diff", diff)
              .Add("analytic_bound", bound)
              .Print();
        }
      }
    }
  }
  table.Print();
  return 0;
}
