// Schema regression tests for the observability surfaces: the exact field
// set of the `stats` wire op (consumed by scripts and the CI smoke job),
// the `trace` object a `"trace": true` query echoes back, and the
// /statusz families a running server is expected to export. A failure
// here means a wire-visible schema changed — update the consumer-facing
// docs (README metric catalog) in the same change, then these lists.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "srs/common/json.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/service.h"
#include "srs/graph/fixtures.h"
#include "srs/observability/metrics.h"
#include "srs/server/client.h"
#include "srs/server/server.h"

namespace srs {
namespace {

std::unique_ptr<SrsService> MakeService() {
  return SrsService::Create(Fig1CitationGraph(), {}).MoveValueOrDie();
}

JsonValue QueryLine(NodeId source) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("op", "query");
  JsonValue sources = JsonValue::MakeArray();
  sources.Append(static_cast<int64_t>(source));
  request.Set("sources", std::move(sources));
  return request;
}

std::set<std::string> KeysOf(const JsonValue& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.object()) keys.insert(key);
  return keys;
}

TEST(StatsSchemaTest, StatsOpFieldSetIsPinned) {
  std::unique_ptr<SrsService> service = MakeService();
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
  ASSERT_TRUE(client.Call(QueryLine(0)).ok());

  JsonValue request = JsonValue::MakeObject();
  request.Set("op", "stats");
  const JsonValue response = client.Call(request).ValueOrDie();
  const JsonValue* stats = response.Find("stats");
  ASSERT_NE(stats, nullptr) << response.Encode();

  const std::set<std::string> expected = {
      "connections",
      "requests",
      "responses_ok",
      "responses_error",
      "admitted",
      "overloaded",
      "expired",
      "batches",
      "coalesced",
      "max_batch_entries",
      "queries",
      "rows_served",
      "engines_created",
      "engines_reused",
      "deltas_applied",
      "served_version",
      "num_nodes",
      "checkpoints",
      "wal_bytes",
      "recovered_from_disk",
      "recovery_snapshot_version",
      "recovery_replayed_deltas",
      "recovery_skipped_obsolete",
      "recovery_wal_tail_truncated",
  };
  EXPECT_EQ(KeysOf(*stats), expected) << stats->Encode();
  // The two recovery flags stay JSON booleans even though the registry
  // stores them as 0/1 gauges.
  EXPECT_TRUE(stats->Find("recovered_from_disk")->is_bool());
  EXPECT_TRUE(stats->Find("recovery_wal_tail_truncated")->is_bool());
  // And the counters reflect the traffic this test generated.
  EXPECT_GE(stats->Find("requests")->AsNumber(), 1.0);
  EXPECT_GE(stats->Find("queries")->AsNumber(), 1.0);
}

TEST(StatsSchemaTest, TraceFieldSetIsPinned) {
  std::unique_ptr<SrsService> service = MakeService();
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();

  JsonValue request = QueryLine(3);
  request.Set("trace", true);
  const JsonValue response = client.Call(request).ValueOrDie();
  const JsonValue* trace = response.Find("trace");
  ASSERT_NE(trace, nullptr) << response.Encode();
  const std::set<std::string> expected = {
      "admission_wait_ms", "batch_entries", "batch_sources", "resolve_ms",
      "engine_reused",     "compute_ms",    "total_ms",
  };
  EXPECT_EQ(KeysOf(*trace), expected) << trace->Encode();
  EXPECT_EQ(trace->Find("batch_entries")->AsNumber(), 1.0);
  EXPECT_GE(trace->Find("total_ms")->AsNumber(),
            trace->Find("compute_ms")->AsNumber());

  // Without the opt-in the response carries no trace at all.
  const JsonValue untraced = client.Call(QueryLine(3)).ValueOrDie();
  EXPECT_EQ(untraced.Find("trace"), nullptr) << untraced.Encode();
}

TEST(StatsSchemaTest, ServerRegistersTheDocumentedFamilies) {
  std::unique_ptr<SrsService> service = MakeService();
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
  ASSERT_TRUE(client.Call(QueryLine(0)).ok());

  // The families the README metric catalog documents for a bare server
  // (no result cache, no durability). Component registration happens in
  // SrsServer::Start, so a fresh global snapshot must contain them all.
  const MetricsSnapshot snap = GlobalMetrics().Snapshot();
  const std::vector<std::string> families = {
      "srs_server_connections_total",
      "srs_server_requests_total",
      "srs_server_responses_ok_total",
      "srs_server_responses_error_total",
      "srs_admission_submitted_total",
      "srs_admission_admitted_total",
      "srs_admission_overloaded_total",
      "srs_admission_expired_total",
      "srs_admission_batches_total",
      "srs_admission_coalesced_total",
      "srs_admission_queue_depth",
      "srs_admission_max_batch_entries",
      "srs_service_queries_total",
      "srs_service_rows_served_total",
      "srs_service_engines_created_total",
      "srs_service_engines_reused_total",
      "srs_service_deltas_applied_total",
      "srs_service_checkpoints_total",
      "srs_service_wal_bytes",
      "srs_service_served_version",
      "srs_service_num_nodes",
      "srs_service_warm_engines",
      "srs_recovery_from_disk",
      "srs_snapshot_cache_hits_total",
      "srs_snapshot_cache_misses_total",
  };
  for (const std::string& name : families) {
    EXPECT_NE(snap.Find(name), nullptr) << name;
  }
  // The query above flowed through the full stack, so the event-style
  // histograms exist too (created at first record).
  for (const std::string& name :
       {std::string("srs_request_seconds"),
        std::string("srs_admission_wait_seconds"),
        std::string("srs_batch_entries")}) {
    EXPECT_NE(snap.Find(name), nullptr) << name;
  }
}

TEST(StatsSchemaTest, ApplyDeltaStageFamilyIsPinned) {
  SrsServiceOptions options;
  options.result_cache = std::make_shared<ResultCache>();
  std::unique_ptr<SrsService> service =
      SrsService::Create(Fig1CitationGraph(), options).MoveValueOrDie();
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
  const MetricsSnapshot before = GlobalMetrics().Snapshot();

  JsonValue request = JsonValue::MakeObject();
  request.Set("op", "apply_delta");
  JsonValue edge = JsonValue::MakeArray();
  edge.Append(int64_t{0});
  edge.Append(int64_t{5});
  JsonValue insert = JsonValue::MakeArray();
  insert.Append(std::move(edge));
  request.Set("insert", std::move(insert));
  const JsonValue response = client.Call(request).ValueOrDie();
  ASSERT_EQ(response.Find("status")->AsString(), "ok") << response.Encode();

  // One family, one label per stage, all registered together. Without a
  // data dir there is no wal or checkpoint stage to record.
  const MetricsSnapshot after = GlobalMetrics().Snapshot();
  auto count = [](const MetricsSnapshot& snap, const char* stage) {
    const MetricSnapshot* m =
        snap.Find("srs_delta_stage_seconds", {{"stage", stage}});
    return m == nullptr ? uint64_t{0} : m->histogram.count;
  };
  for (const char* stage :
       {"wal", "apply", "derive", "propagate", "checkpoint"}) {
    const MetricSnapshot* m =
        after.Find("srs_delta_stage_seconds", {{"stage", stage}});
    ASSERT_NE(m, nullptr) << stage;
    EXPECT_EQ(m->type, MetricType::kHistogram) << stage;
  }
  for (const char* stage : {"apply", "derive", "propagate"}) {
    EXPECT_EQ(count(after, stage) - count(before, stage), 1u) << stage;
  }
  for (const char* stage : {"wal", "checkpoint"}) {
    EXPECT_EQ(count(after, stage), count(before, stage)) << stage;
  }
}

}  // namespace
}  // namespace srs
