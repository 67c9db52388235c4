// Recorded top-k answers: replays tests/golden/topk_answers.golden and
// requires every TopKEngine answer to match it bit for bit — levels
// evaluated, levels total, the residual bound, every ranked node id and
// every score's IEEE-754 bits (the fields of EncodeTopKResult).
//
// The cases run the frontier backend at prune_epsilon 0 and 1e-4, all
// three measures, k = 1 and 10, epsilon 1e-6, on two graphs:
//  * a copying-model graph (n = 50k) whose pruned rows stay small;
//  * an R-MAT graph (2^14 nodes, average degree 8) whose frontiers
//    saturate and densify part-way through the series.
// The test also asserts that the recording covers the three regimes the
// engine treats differently: rows that terminate before the last level,
// rows whose frontier densifies mid-query, and rows with fewer than k
// nonzero candidates, whose ranking is filled by zero-score ties.
//
// Line format ('#' lines are comments):
//   <graph> <measure> <prune_eps> <k> <source> <levels_evaluated>
//   <levels_total> <residual_bound bits> [<node> <score bits>]...
// where "bits" is the double's 16-digit hex bit pattern. After an
// intentional answer change, re-record (and review the diff) with:
//
//   topk_golden_test <tests/golden> --record

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "srs/engine/topk_engine.h"
#include "srs/graph/generators.h"
#include "srs/observability/instruments.h"

namespace srs {
namespace {

std::string g_golden_dir;
bool g_record = false;

constexpr QueryMeasure kMeasures[] = {QueryMeasure::kSimRankStarGeometric,
                                      QueryMeasure::kSimRankStarExponential,
                                      QueryMeasure::kRwr};
constexpr double kPruneEpsilons[] = {0.0, 1e-4};
constexpr int kKs[] = {1, 10};

struct GoldenGraph {
  std::string name;
  Graph graph;
  std::vector<NodeId> sources;
};

/// The first node with no in- or out-edges: its row is the query alone,
/// so every rank is a zero-score tie broken by ascending id.
NodeId FirstIsolatedNode(const Graph& g) {
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (g.InDegree(v) == 0 && g.OutDegree(v) == 0) return v;
  }
  return -1;
}

std::vector<GoldenGraph> GoldenGraphs() {
  std::vector<GoldenGraph> graphs;
  Graph copying = CopyingModelGraph(50'000, 3.0, 0.35, 7).ValueOrDie();
  graphs.push_back({"copying50k", std::move(copying),
                    {0, 1, 17, 999, 12'345, 33'333, 49'999}});
  Graph rmat = Rmat(1 << 14, 8 << 14, 3).ValueOrDie();
  const NodeId isolated = FirstIsolatedNode(rmat);
  graphs.push_back({"rmat16k", std::move(rmat), {0, 5, 321, 9'876}});
  if (isolated >= 0) graphs.back().sources.push_back(isolated);
  return graphs;
}

std::string Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  return buf;
}

/// One golden line for `result` (see the file comment for the format).
std::string FormatCase(const std::string& graph, QueryMeasure measure,
                       double prune_eps, int k, NodeId source,
                       const TopKResult& result) {
  std::ostringstream line;
  line << graph << ' ' << QueryMeasureToString(measure) << ' ' << prune_eps
       << ' ' << k << ' ' << source << ' ' << result.levels_evaluated << ' '
       << result.levels_total << ' ' << Bits(result.residual_bound);
  for (const RankedNode& r : result.ranking) {
    line << ' ' << r.node << ' ' << Bits(r.score);
  }
  return line.str();
}

TEST(TopKGoldenTest, AnswersMatchTheRecording) {
  const std::string path = g_golden_dir + "/topk_answers.golden";
  std::vector<std::string> expected;
  if (!g_record) {
    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot open " << path;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line[0] != '#') expected.push_back(line);
    }
  }

  std::vector<std::string> got;
  int early = 0, densified = 0, densified_early = 0, zero_filled = 0;
  for (const GoldenGraph& g : GoldenGraphs()) {
    for (QueryMeasure measure : kMeasures) {
      for (double prune_eps : kPruneEpsilons) {
        for (int k : kKs) {
          TopKEngineOptions options;
          options.similarity.epsilon = 1e-6;
          options.similarity.top_k = k;
          options.similarity.backend = KernelBackendKind::kSparse;
          options.similarity.prune_epsilon = prune_eps;
          TopKEngine engine =
              TopKEngine::Create(g.graph, options).MoveValueOrDie();
          for (NodeId source : g.sources) {
            // One query per batch on one worker, so the densification
            // counter's delta belongs to this query alone.
            const uint64_t densify_before =
                FrontierDensifiedCounter()->Value();
            const std::vector<TopKResult> results =
                engine.BatchTopK(measure, {source}).MoveValueOrDie();
            const TopKResult& result = results[0];
            const bool densify =
                FrontierDensifiedCounter()->Value() > densify_before;
            const bool stopped = result.levels_evaluated < result.levels_total;
            densified += densify;
            early += stopped;
            densified_early += densify && stopped;
            if (!result.ranking.empty() &&
                result.ranking.back().score == 0.0) {
              ++zero_filled;
            }
            got.push_back(
                FormatCase(g.name, measure, prune_eps, k, source, result));
          }
        }
      }
    }
  }

  EXPECT_GT(early, 0) << "no recorded row terminates early";
  EXPECT_GT(densified, 0) << "no recorded row densifies mid-query";
  EXPECT_GT(densified_early, 0)
      << "no recorded row densifies and then terminates early";
  EXPECT_GT(zero_filled, 0) << "no recorded ranking holds zero-score ties";
  std::printf(
      "%zu cases: %d terminate early, %d densify (%d of them terminate "
      "early), %d zero-filled\n",
      got.size(), early, densified, densified_early, zero_filled);

  if (g_record) {
    std::ofstream out(path, std::ios::trunc);
    out << "# Recorded TopKEngine answers; format and regeneration in\n"
        << "# tests/topk_golden_test.cpp.\n";
    for (const std::string& line : got) out << line << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  ASSERT_EQ(got.size(), expected.size()) << path;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "case " << i;
  }
}

}  // namespace
}  // namespace srs

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record") {
      srs::g_record = true;
    } else {
      srs::g_golden_dir = arg;
    }
  }
  if (srs::g_golden_dir.empty()) {
    std::fprintf(stderr, "usage: %s <golden dir> [--record]\n", argv[0]);
    return 2;
  }
  return RUN_ALL_TESTS();
}
