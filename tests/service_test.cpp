// Tests for the SrsService facade (engine/service.h): answers must be
// bit-identical to driving the underlying engines directly with the same
// options; versions are served correctly across ApplyDelta, by one warm
// engine rebound to each request's version; warm engines are reused;
// deadlines and bad requests fail with the right codes.
//
// Runs in the fast lane and again under TSan (LABELS "tsan"): streams on
// two threads share and rebind one engine.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/service.h"
#include "srs/engine/topk_engine.h"
#include "srs/graph/delta.h"
#include "srs/graph/fixtures.h"
#include "srs/graph/generators.h"
#include "srs/graph/graph_builder.h"
#include "srs/graph/versioned_graph.h"

namespace srs {
namespace {

std::unique_ptr<SrsService> MakeService(const Graph& g,
                                        SrsServiceOptions options = {}) {
  return SrsService::Create(Graph(g), options).MoveValueOrDie();
}

TEST(ServiceTest, RejectsInvalidDefaults) {
  SrsServiceOptions options;
  options.similarity.damping = 1.5;
  const Status status =
      SrsService::Create(Fig1CitationGraph(), options).status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("similarity.damping"), std::string::npos)
      << status.ToString();
}

TEST(ServiceTest, FullRowsMatchQueryEngineBitForBit) {
  const Graph g = Rmat(300, 1200, 7).ValueOrDie();
  SimilarityOptions sim;
  sim.damping = 0.7;
  sim.iterations = 6;

  std::unique_ptr<SrsService> service = MakeService(g);
  QueryRequest request;
  request.measure = QueryMeasure::kSimRankStarGeometric;
  request.sources = {0, 5, 17, 123};
  request.options = sim;
  const QueryResponse response = service->Query(request).ValueOrDie();
  ASSERT_FALSE(response.ranked);
  ASSERT_EQ(response.rows.size(), request.sources.size());

  QueryEngineOptions engine_options;
  engine_options.similarity = sim;
  QueryEngine engine =
      QueryEngine::Create(g, engine_options).MoveValueOrDie();
  const std::vector<std::vector<double>> direct =
      engine.BatchScores(request.measure, request.sources).ValueOrDie();
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(response.rows[i].scores, direct[i]) << "row " << i;
  }
}

TEST(ServiceTest, RankedMatchesTopKEngineBitForBit) {
  const Graph g = Rmat(200, 800, 11).ValueOrDie();
  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 8;
  sim.top_k = 5;

  std::unique_ptr<SrsService> service = MakeService(g);
  QueryRequest request;
  request.sources = {3, 9, 42};
  request.options = sim;
  const QueryResponse response = service->Query(request).ValueOrDie();
  ASSERT_TRUE(response.ranked);

  TopKEngineOptions engine_options;
  engine_options.similarity = sim;
  TopKEngine engine = TopKEngine::Create(g, engine_options).MoveValueOrDie();
  const std::vector<TopKResult> direct =
      engine.BatchTopK(QueryMeasure::kSimRankStarGeometric, request.sources)
          .ValueOrDie();
  for (size_t i = 0; i < direct.size(); ++i) {
    ASSERT_EQ(response.rows[i].ranking.size(), direct[i].ranking.size());
    for (size_t k = 0; k < direct[i].ranking.size(); ++k) {
      EXPECT_EQ(response.rows[i].ranking[k].node, direct[i].ranking[k].node);
      EXPECT_EQ(response.rows[i].ranking[k].score,
                direct[i].ranking[k].score);
    }
    EXPECT_EQ(response.rows[i].levels_evaluated,
              direct[i].levels_evaluated);
    EXPECT_EQ(response.rows[i].levels_total, direct[i].levels_total);
  }
}

TEST(ServiceTest, StreamRowsMatchesFullRowQuery) {
  const Graph g = Fig1CitationGraph();
  std::unique_ptr<SrsService> service = MakeService(g);

  QueryRequest request;
  request.sources = {0, 1, 2, 3};
  std::vector<std::vector<double>> streamed;
  ASSERT_TRUE(service
                  ->StreamRows(request,
                               [&](int64_t, NodeId,
                                   const std::vector<double>& row) {
                                 streamed.push_back(row);
                               })
                  .ok());
  const QueryResponse direct = service->Query(request).ValueOrDie();
  ASSERT_EQ(streamed.size(), direct.rows.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], direct.rows[i].scores) << "row " << i;
  }
}

TEST(ServiceTest, WarmEnginesAreReused) {
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  QueryRequest request;
  request.sources = {0};
  EXPECT_FALSE(service->Query(request).ValueOrDie().engine_reused);
  EXPECT_TRUE(service->Query(request).ValueOrDie().engine_reused);
  // A different configuration gets its own engine...
  QueryRequest ranked = request;
  ranked.options.top_k = 3;
  EXPECT_FALSE(service->Query(ranked).ValueOrDie().engine_reused);
  // ...while the original stays warm.
  EXPECT_TRUE(service->Query(request).ValueOrDie().engine_reused);
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.engines_created, 2u);
  EXPECT_EQ(stats.engines_reused, 2u);
}

TEST(ServiceTest, EngineLruEvictsPastMaxEngines) {
  SrsServiceOptions options;
  options.max_engines = 2;
  std::unique_ptr<SrsService> service =
      MakeService(Fig1CitationGraph(), options);
  QueryRequest request;
  request.sources = {0};
  for (int k = 1; k <= 3; ++k) {
    request.options.top_k = k;  // three distinct configurations
    ASSERT_TRUE(service->Query(request).ok());
  }
  // The k=1 engine was evicted; re-serving it is a cold construction.
  request.options.top_k = 1;
  EXPECT_FALSE(service->Query(request).ValueOrDie().engine_reused);
}

TEST(ServiceTest, ApplyDeltaServesBothVersions) {
  const Graph g = Fig1CitationGraph();
  std::unique_ptr<SrsService> service = MakeService(g);
  EXPECT_EQ(service->ServedVersion(), 0u);

  EdgeDelta::Builder builder;
  builder.Insert(7, 3);
  const uint64_t v1 =
      service->ApplyDelta(builder.Build(g.NumNodes()).ValueOrDie())
          .ValueOrDie();
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(service->ServedVersion(), 1u);

  // kLatestVersion resolves to v1; the pre-delta version stays servable
  // and both answers match direct engines over the same chain.
  QueryRequest latest;
  latest.sources = {7};
  QueryRequest pinned = latest;
  pinned.version = 0;
  const QueryResponse at_v1 = service->Query(latest).ValueOrDie();
  const QueryResponse at_v0 = service->Query(pinned).ValueOrDie();
  const QueryResponse again = service->Query(latest).ValueOrDie();
  EXPECT_EQ(at_v1.version, 1u);
  EXPECT_EQ(at_v0.version, 0u);
  EXPECT_EQ(again.version, 1u);
  EXPECT_NE(at_v0.rows[0].scores, at_v1.rows[0].scores)
      << "the inserted edge must change node 7's row";
  EXPECT_EQ(again.rows[0].scores, at_v1.rows[0].scores);
  // One engine serves all three: the pinned read rebinds it back to v0,
  // and the next latest read rebinds it forward again.
  EXPECT_TRUE(at_v0.engine_reused);
  EXPECT_TRUE(again.engine_reused);
  EXPECT_EQ(service->Stats().engines_created, 1u);

  VersionedGraph chain((Graph(g)));
  EdgeDelta::Builder same;
  same.Insert(7, 3);
  ASSERT_TRUE(chain.Apply(same.Build(g.NumNodes()).ValueOrDie()).ok());
  QueryEngineOptions engine_options;
  QueryEngine old_engine =
      QueryEngine::Create({chain, 0}, engine_options).MoveValueOrDie();
  QueryEngine new_engine =
      QueryEngine::Create({chain, 1}, engine_options).MoveValueOrDie();
  EXPECT_EQ(at_v0.rows[0].scores,
            old_engine
                .BatchScores(QueryMeasure::kSimRankStarGeometric, {7})
                .ValueOrDie()[0]);
  EXPECT_EQ(at_v1.rows[0].scores,
            new_engine
                .BatchScores(QueryMeasure::kSimRankStarGeometric, {7})
                .ValueOrDie()[0]);
}

TEST(ServiceTest, ConcurrentStreamsAtTwoVersionsShareOneEngine) {
  // Two threads stream the same configuration, one pinned to v0 and one
  // to v1, so they share one streaming engine and each rebinds it to its
  // own version under the engine's lock. Every streamed row must equal a
  // direct engine's at the stream's version.
  const Graph g = Fig1CitationGraph();
  std::unique_ptr<SrsService> service = MakeService(g);
  EdgeDelta::Builder builder;
  builder.Insert(7, 3);
  const EdgeDelta delta = builder.Build(g.NumNodes()).ValueOrDie();
  ASSERT_EQ(service->ApplyDelta(delta).ValueOrDie(), 1u);

  VersionedGraph chain((Graph(g)));
  ASSERT_TRUE(chain.Apply(delta).ok());
  const std::vector<NodeId> sources = {7, 3, 0, 5};
  std::vector<std::vector<double>> expected[2];
  for (uint64_t v = 0; v < 2; ++v) {
    QueryEngine engine =
        QueryEngine::Create({chain, v}, QueryEngineOptions{}).MoveValueOrDie();
    expected[v] =
        engine.BatchScores(QueryMeasure::kSimRankStarGeometric, sources)
            .ValueOrDie();
  }
  ASSERT_NE(expected[0][0], expected[1][0])
      << "the inserted edge must change node 7's row";

  std::atomic<bool> go{false};
  auto stream_at = [&](uint64_t version) {
    QueryRequest request;
    request.sources = sources;
    request.version = version;
    while (!go.load()) std::this_thread::yield();
    for (int round = 0; round < 200; ++round) {
      const Status status = service->StreamRows(
          request, [&](int64_t i, NodeId, const std::vector<double>& row) {
            EXPECT_EQ(row, expected[version][static_cast<size_t>(i)])
                << "version " << version << " row " << i;
          });
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  };
  std::thread old_reader(stream_at, 0);
  std::thread new_reader(stream_at, 1);
  go.store(true);
  old_reader.join();
  new_reader.join();
  EXPECT_EQ(service->Stats().engines_created, 1u);
}

TEST(ServiceTest, ApplyDeltaPropagatesResultCache) {
  // Two disjoint 10-cycles: a delta confined to the second component
  // provably cannot affect rows cached for the first, so propagation must
  // carry them across the version step.
  GraphBuilder builder(20);
  for (NodeId u = 0; u < 10; ++u) {
    SRS_CHECK_OK(builder.AddEdge(u, static_cast<NodeId>((u + 1) % 10)));
    SRS_CHECK_OK(builder.AddEdge(static_cast<NodeId>(10 + u),
                                 static_cast<NodeId>(10 + (u + 1) % 10)));
  }
  const Graph g = builder.Build().MoveValueOrDie();

  SrsServiceOptions options;
  options.result_cache = std::make_shared<ResultCache>();
  std::unique_ptr<SrsService> service = MakeService(g, options);

  QueryRequest request;
  request.sources.assign({0, 1, 2, 3});
  ASSERT_TRUE(service->Query(request).ok());

  EdgeDelta::Builder delta;
  delta.Insert(12, 17);
  ASSERT_TRUE(
      service->ApplyDelta(delta.Build(g.NumNodes()).ValueOrDie()).ok());
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.deltas_applied, 1u);
  EXPECT_GT(stats.cache_rows_retained, 0u);
}

TEST(ServiceTest, ExpiredDeadlineFailsBeforeComputing) {
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  QueryRequest request;
  request.sources = {0};
  request.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  const Status status = service->Query(request).status();
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(service->Stats().rows_served, 0u);
}

TEST(ServiceTest, WarmEngineCountNeverExceedsMaxEngines) {
  SrsServiceOptions options;
  options.max_engines = 2;
  std::unique_ptr<SrsService> service =
      MakeService(Fig1CitationGraph(), options);
  QueryRequest request;
  request.sources = {0};
  for (int k = 0; k <= 5; ++k) {
    request.options.top_k = k;  // six distinct configurations
    ASSERT_TRUE(service->Query(request).ok());
    // The LRU evicts *before* building, so residency never overshoots —
    // not even transiently at the moment the sixth engine lands.
    EXPECT_LE(service->WarmEngineCount(), options.max_engines)
        << "after configuration " << k;
  }
}

TEST(ServiceTest, StreamRowsCallbackMayReenterTheService) {
  // The row callback runs outside the service lock, so it may call
  // straight back into the service — Stats(), Query(), ServedVersion() —
  // without deadlocking. (Regression: the callback used to run with the
  // service mutex held.)
  const Graph g = Fig1CitationGraph();
  std::unique_ptr<SrsService> service = MakeService(g);
  QueryRequest stream;
  stream.sources = {0, 1, 2};
  int rows_seen = 0;
  ASSERT_TRUE(
      service
          ->StreamRows(stream,
                       [&](int64_t, NodeId source,
                           const std::vector<double>& row) {
                         ++rows_seen;
                         EXPECT_GT(service->Stats().queries, 0u);
                         QueryRequest inner;
                         inner.sources = {source};
                         const QueryResponse direct =
                             service->Query(inner).ValueOrDie();
                         EXPECT_EQ(direct.rows[0].scores, row)
                             << "re-entrant query for " << source;
                       })
          .ok());
  EXPECT_EQ(rows_seen, 3);
}

TEST(ServiceTest, RecoverIsBitIdenticalToTheUncrashedService) {
  const std::string dir = testing::TempDir() + "/service_recover";
  const Graph g = Rmat(64, 256, 19).ValueOrDie();

  SnapshotCache live_cache(16);
  SrsServiceOptions options;
  options.snapshot_cache = &live_cache;
  options.data_dir = dir;
  std::unique_ptr<SrsService> service = MakeService(g, options);

  // Three acknowledged deltas; remember every version's answer.
  QueryRequest request;
  request.sources = {0, 31, 63};
  std::vector<std::vector<double>> rows_by_version[4];
  std::vector<uint64_t> fingerprints;
  for (uint64_t v = 0; v <= 3; ++v) {
    if (v > 0) {
      EdgeDelta::Builder builder;
      builder.Insert(static_cast<NodeId>(v), static_cast<NodeId>(60 - v));
      builder.Remove(0, static_cast<NodeId>(v));
      ASSERT_TRUE(
          service->ApplyDelta(builder.Build(g.NumNodes()).ValueOrDie())
              .ok());
    }
    request.version = v;
    const QueryResponse response = service->Query(request).ValueOrDie();
    for (const QueryRowResult& row : response.rows) {
      rows_by_version[v].push_back(row.scores);
    }
    fingerprints.push_back(service->graph().VersionFingerprint(v));
  }
  EXPECT_GT(service->Stats().wal_bytes, 0u);
  service.reset();  // the "crash": nothing survives but the data dir

  SnapshotCache recovered_cache(16);
  SrsServiceOptions recover_options;
  recover_options.similarity = options.similarity;
  recover_options.snapshot_cache = &recovered_cache;
  recover_options.data_dir = dir;
  std::unique_ptr<SrsService> recovered =
      SrsService::Recover(recover_options).MoveValueOrDie();

  const RecoveryInfo info = recovered->recovery_info();
  EXPECT_TRUE(info.recovered_from_disk);
  EXPECT_FALSE(info.wal_tail_truncated);
  EXPECT_EQ(info.snapshot_version + info.replayed_deltas, 3u);
  ASSERT_EQ(recovered->ServedVersion(), 3u);
  for (uint64_t v = recovered->graph().FirstVersion(); v <= 3; ++v) {
    EXPECT_EQ(recovered->graph().VersionFingerprint(v), fingerprints[v])
        << "version fingerprint drift at v" << v;
    request.version = v;
    const QueryResponse answer = recovered->Query(request).ValueOrDie();
    ASSERT_EQ(answer.rows.size(), rows_by_version[v].size());
    for (size_t i = 0; i < answer.rows.size(); ++i) {
      const std::vector<double>& got = answer.rows[i].scores;
      const std::vector<double>& want = rows_by_version[v][i];
      ASSERT_EQ(got.size(), want.size());
      EXPECT_TRUE(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)) == 0)
          << "v" << v << " source " << request.sources[i]
          << " drifted bitwise after recovery";
    }
  }

  // The recovered service is live: deltas keep flowing and stay durable.
  EdgeDelta::Builder more;
  more.Insert(10, 20);
  EXPECT_EQ(
      recovered->ApplyDelta(more.Build(g.NumNodes()).ValueOrDie())
          .ValueOrDie(),
      4u);
}

TEST(ServiceTest, BadRequestsFailWithTheRightCodes) {
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  QueryRequest request;
  request.sources = {0};
  request.version = 5;  // never applied
  EXPECT_TRUE(service->Query(request).status().IsInvalidArgument());

  QueryRequest bad_options;
  bad_options.sources = {0};
  bad_options.options.damping = 2.0;
  EXPECT_TRUE(service->Query(bad_options).status().IsInvalidArgument());
}

}  // namespace
}  // namespace srs
