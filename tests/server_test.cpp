// Tests for the serving stack, bottom-up: the JSON codec (common/json.h)
// and its value semantics, the line transport (server/line_io.h), the
// wire protocol codec (server/protocol.h), the AdmissionQueue's
// coalescing / backpressure / expiry semantics in isolation, and the full
// SrsServer over real TCP connections — concurrent clients, coalescing
// observed via queue stats, deadline_expired and overload statuses, an
// over-long request line, and a delta swap under live traffic that must
// never produce a torn answer.
//
// Runs in the fast lane and again under TSan (LABELS "tsan"): the server
// is the repo's most thread-dense component.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <clocale>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "srs/common/json.h"
#include "srs/engine/service.h"
#include "srs/graph/fixtures.h"
#include "srs/graph/generators.h"
#include "srs/server/admission_queue.h"
#include "srs/server/client.h"
#include "srs/server/line_io.h"
#include "srs/server/protocol.h"
#include "srs/server/server.h"

namespace srs {
namespace {

// ---------------------------------------------------------------------------
// JSON codec

TEST(JsonTest, EncodeParseRoundTrip) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("op", "query");
  doc.Set("flag", true);
  doc.Set("nothing", JsonValue());
  doc.Set("half", 0.5);
  JsonValue sources = JsonValue::MakeArray();
  sources.Append(static_cast<int64_t>(7));
  sources.Append(static_cast<int64_t>(42));
  doc.Set("sources", std::move(sources));
  JsonValue nested = JsonValue::MakeObject();
  nested.Set("text", "a\"b\\c\nd");
  doc.Set("nested", std::move(nested));

  const std::string encoded = doc.Encode();
  Result<JsonValue> parsed = ParseJson(encoded);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Deterministic writer: the reparse encodes to the same bytes.
  EXPECT_EQ(parsed.ValueOrDie().Encode(), encoded);
  EXPECT_EQ(parsed.ValueOrDie().Find("sources")->array()[1].AsNumber(), 42.0);
  EXPECT_EQ(parsed.ValueOrDie().Find("nested")->Find("text")->AsString(),
            "a\"b\\c\nd");
}

TEST(JsonTest, IntegersPrintAsIntegers) {
  EXPECT_EQ(JsonValue(3.0).Encode(), "3");
  EXPECT_EQ(JsonValue(static_cast<int64_t>(-12)).Encode(), "-12");
  EXPECT_EQ(JsonValue(0.5).Encode(), "0.5");
  // Node ids, versions, and counts round-trip textually up to 2^53.
  EXPECT_EQ(JsonValue(9007199254740992.0).Encode(), "9007199254740992");
}

TEST(JsonTest, ParsesEscapesAndSurrogatePairs) {
  Result<JsonValue> parsed = ParseJson("\"A\\u0042\\n\\t\\ud83d\\ude00\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().AsString(),
            "AB\n\t\xF0\x9F\x98\x80");  // U+1F600 as UTF-8
}

TEST(JsonTest, MalformedInputIsInvalidArgument) {
  EXPECT_TRUE(ParseJson("{\"a\":}").status().IsInvalidArgument());
  EXPECT_TRUE(ParseJson("[1, 2").status().IsInvalidArgument());
  EXPECT_TRUE(ParseJson("1 2").status().IsInvalidArgument())
      << "trailing garbage must be an error";
  EXPECT_TRUE(ParseJson("").status().IsInvalidArgument());
}

TEST(JsonTest, OutOfRangeNumbersAreRejectedWithTheirOffset) {
  // std::from_chars reports overflow instead of saturating to ±inf; the
  // error names the byte offset and the offending token.
  for (const char* text : {"1e999", "-1e999", "{\"x\":4e400}"}) {
    const Status status = ParseJson(text).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << text;
    EXPECT_NE(status.message().find("byte"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("out of range"), std::string::npos)
        << status.ToString();
  }
  // Denormal-range underflow is representable and must still parse.
  Result<JsonValue> tiny = ParseJson("1e-320");
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  EXPECT_GT(tiny.ValueOrDie().AsNumber(), 0.0);
}

TEST(JsonTest, NumbersAreLocaleIndependent) {
  // A comma-decimal locale must change neither parsing ('.' stays the
  // decimal separator) nor encoding (no ',' ever appears in output).
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  const char* applied = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (applied == nullptr) {
    applied = std::setlocale(LC_NUMERIC, "de_DE");
  }
  if (applied == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }

  Result<JsonValue> parsed = ParseJson("[0.5,2.25e-1]");
  const std::string encoded =
      parsed.ok() ? parsed.ValueOrDie().Encode() : "";
  const double half =
      parsed.ok() ? parsed.ValueOrDie().array()[0].AsNumber() : 0.0;
  std::setlocale(LC_NUMERIC, saved.c_str());  // restore before asserting

  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(half, 0.5);
  EXPECT_EQ(encoded, "[0.5,0.225]");
}

TEST(JsonTest, FindComposesWithoutKindChecks) {
  Result<JsonValue> parsed = ParseJson("{\"a\":{\"b\":1}}");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& doc = parsed.ValueOrDie();
  ASSERT_NE(doc.Find("a"), nullptr);
  EXPECT_EQ(doc.Find("a")->Find("b")->AsNumber(), 1.0);
  EXPECT_EQ(doc.Find("missing"), nullptr);
  // Find on a non-object composes to "absent" instead of crashing.
  EXPECT_EQ(doc.Find("a")->Find("b")->Find("c"), nullptr);
}

// A full score row is an array of ~n values, so the per-value footprint is
// the cost of building and parsing one.
static_assert(sizeof(JsonValue) <= 16, "JsonValue must stay 16 bytes");

TEST(JsonTest, ValueSemanticsAreDeepCopiesAndStealingMoves) {
  JsonValue list = JsonValue::MakeArray();
  list.Append(1.5);
  list.Append("text");
  JsonValue inner = JsonValue::MakeObject();
  inner.Set("k", list);  // copy: `list` stays usable
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("list", std::move(list));
  EXPECT_TRUE(list.is_null()) << "a moved-from value is null";
  doc.Set("obj", std::move(inner));
  doc.Set("flag", true);
  const std::string encoded = doc.Encode();
  EXPECT_EQ(encoded,
            "{\"list\":[1.5,\"text\"],\"obj\":{\"k\":[1.5,\"text\"]},"
            "\"flag\":true}");

  // Copies are deep at every depth: mutating one leaves the other intact.
  JsonValue copy = doc;
  copy.object()[0].second.array()[0] = JsonValue(9.0);
  copy.object()[1].second.object()[0].second.Append(JsonValue());
  EXPECT_EQ(doc.Encode(), encoded);
  EXPECT_EQ(copy.Encode(),
            "{\"list\":[9,\"text\"],\"obj\":{\"k\":[1.5,\"text\",null]},"
            "\"flag\":true}");

  // Copy assignment over a live value; self-assignment and self-move are
  // no-ops.
  JsonValue assigned("replaced");
  assigned = doc;
  EXPECT_EQ(assigned.Encode(), encoded);
  JsonValue& alias = assigned;
  assigned = alias;
  EXPECT_EQ(assigned.Encode(), encoded);
  assigned = std::move(alias);
  EXPECT_EQ(assigned.Encode(), encoded);

  // Moves transfer the tree; Find works on the moved-to object.
  JsonValue moved(std::move(copy));
  EXPECT_TRUE(copy.is_null());
  JsonValue target = JsonValue::MakeArray();
  target = std::move(moved);
  EXPECT_TRUE(moved.is_null());
  ASSERT_NE(target.Find("list"), nullptr);
  EXPECT_EQ(target.Find("list")->array()[0].AsNumber(), 9.0);
  EXPECT_EQ(target.Find("obj")->Find("k")->array().size(), 3u);
  EXPECT_EQ(target.Find("missing"), nullptr);
  EXPECT_EQ(moved.Find("list"), nullptr);

  // Assigning a value from inside its own tree, by move and by copy.
  JsonValue tree = doc;
  tree = std::move(tree.object()[0].second);
  EXPECT_EQ(tree.Encode(), "[1.5,\"text\"]");
  JsonValue tree2 = doc;
  tree2 = tree2.object()[1].second;
  EXPECT_EQ(tree2.Encode(), "{\"k\":[1.5,\"text\"]}");

  // Strings copy deeply too.
  JsonValue s("abc");
  JsonValue s2 = s;
  s2 = JsonValue(2.0);
  EXPECT_EQ(s.AsString(), "abc");
  EXPECT_EQ(s2.AsNumber(), 2.0);
}

// ---------------------------------------------------------------------------
// Protocol codec

SimilarityOptions ServingDefaults() {
  SimilarityOptions defaults;
  defaults.damping = 0.6;
  defaults.iterations = 5;
  return defaults;
}

TEST(ProtocolTest, ParsesQueryWithOverridesMergedOverDefaults) {
  Result<ProtocolRequest> parsed = ParseRequestLine(
      "{\"op\":\"query\",\"id\":9,\"measure\":\"esr-star\","
      "\"sources\":[1,2],\"version\":3,\"deadline_ms\":50,"
      "\"damping\":0.7,\"top_k\":2,\"backend\":\"sparse\"}",
      ServingDefaults());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ProtocolRequest& request = parsed.ValueOrDie();
  EXPECT_EQ(request.op, ProtocolRequest::Op::kQuery);
  EXPECT_EQ(request.id.AsNumber(), 9.0);
  EXPECT_EQ(request.query.measure, QueryMeasure::kSimRankStarExponential);
  EXPECT_EQ(request.query.sources, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(request.query.version, 3u);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 50.0);
  // Named fields override; unnamed fields ride along from the defaults.
  EXPECT_DOUBLE_EQ(request.query.options.damping, 0.7);
  EXPECT_EQ(request.query.options.top_k, 2);
  EXPECT_EQ(request.query.options.backend, KernelBackendKind::kSparse);
  EXPECT_EQ(request.query.options.iterations, 5);
}

TEST(ProtocolTest, RejectionsNameTheField) {
  const SimilarityOptions defaults = ServingDefaults();
  struct Case {
    const char* line;
    const char* names;
  };
  const Case cases[] = {
      {"{\"op\":\"query\"}", "sources"},
      {"{\"op\":\"query\",\"sources\":[]}", "sources"},
      {"{\"op\":\"query\",\"sources\":[1.5]}", "sources"},
      {"{\"op\":\"query\",\"sources\":[0],\"version\":-1}", "version"},
      {"{\"op\":\"query\",\"sources\":[0],\"deadline_ms\":-5}",
       "deadline_ms"},
      {"{\"op\":\"query\",\"sources\":[0],\"damping\":2.0}",
       "similarity.damping"},
      {"{\"op\":\"query\",\"sources\":[0],\"backend\":\"gpu\"}",
       "similarity.backend"},
      {"{\"op\":\"teleport\"}", "op"},
      {"{\"op\":\"apply_delta\"}", "apply_delta"},
      {"{\"op\":\"apply_delta\",\"insert\":[[0]]}", "insert"},
  };
  for (const Case& c : cases) {
    const Status status = ParseRequestLine(c.line, defaults).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << c.line;
    EXPECT_NE(status.message().find(c.names), std::string::npos)
        << c.line << " -> " << status.ToString();
  }
  EXPECT_FALSE(ParseRequestLine("not json", defaults).ok());
  EXPECT_FALSE(ParseRequestLine("[1,2,3]", defaults).ok());
}

TEST(ProtocolTest, ParsesApplyDeltaEdgeLists) {
  Result<ProtocolRequest> parsed = ParseRequestLine(
      "{\"op\":\"apply_delta\",\"insert\":[[0,5],[2,3]],\"remove\":[[1,4]]}",
      ServingDefaults());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().op, ProtocolRequest::Op::kApplyDelta);
  EXPECT_EQ(parsed.ValueOrDie().insert_edges,
            (std::vector<std::pair<NodeId, NodeId>>{{0, 5}, {2, 3}}));
  EXPECT_EQ(parsed.ValueOrDie().remove_edges,
            (std::vector<std::pair<NodeId, NodeId>>{{1, 4}}));
}

TEST(ProtocolTest, StatusMappingCoversEveryProtocolStatus) {
  EXPECT_STREQ(ProtocolStatusFor(Status::InvalidArgument("x")),
               kStatusInvalidRequest);
  EXPECT_STREQ(ProtocolStatusFor(Status::OutOfRange("x")),
               kStatusInvalidRequest);
  EXPECT_STREQ(ProtocolStatusFor(Status::DeadlineExceeded("x")),
               kStatusDeadlineExpired);
  EXPECT_STREQ(ProtocolStatusFor(Status::CapacityError("x")),
               kStatusOverload);
  EXPECT_STREQ(ProtocolStatusFor(Status::Unavailable("x")), kStatusOverload);
  EXPECT_STREQ(ProtocolStatusFor(Status::Internal("x")),
               kStatusInternalError);
  EXPECT_STREQ(ProtocolStatusFor(Status::IoError("x")), kStatusInternalError);
}

// ---------------------------------------------------------------------------
// AdmissionQueue semantics, deterministic (no threads, no clocks raced)

AdmissionQueue::Entry MakeEntry(uint64_t key, std::vector<NodeId> sources) {
  AdmissionQueue::Entry entry;
  entry.key = key;
  entry.request.sources = std::move(sources);
  return entry;
}

TEST(AdmissionQueueTest, CoalescesSameKeyEntriesInFifoOrder) {
  AdmissionQueue queue;
  ASSERT_EQ(queue.Submit(MakeEntry(1, {10})), AdmissionQueue::Admit::kAdmitted);
  ASSERT_EQ(queue.Submit(MakeEntry(1, {11})), AdmissionQueue::Admit::kAdmitted);
  ASSERT_EQ(queue.Submit(MakeEntry(2, {99})), AdmissionQueue::Admit::kAdmitted);
  ASSERT_EQ(queue.Submit(MakeEntry(1, {12})), AdmissionQueue::Admit::kAdmitted);

  std::vector<AdmissionQueue::Entry> batch;
  // Key-1 entries merge across the interleaved key-2 entry, FIFO within
  // the key.
  ASSERT_TRUE(queue.NextBatch(&batch));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request.sources, (std::vector<NodeId>{10}));
  EXPECT_EQ(batch[1].request.sources, (std::vector<NodeId>{11}));
  EXPECT_EQ(batch[2].request.sources, (std::vector<NodeId>{12}));
  ASSERT_TRUE(queue.NextBatch(&batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].key, 2u);

  const AdmissionQueueStats stats = queue.Stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.coalesced, 2u);
  EXPECT_EQ(stats.max_batch_entries, 3u);
}

TEST(AdmissionQueueTest, SourceCapBoundsBatchesButNeverSplitsARequest) {
  AdmissionQueueOptions options;
  options.max_batch_sources = 4;
  AdmissionQueue queue(options);
  ASSERT_EQ(queue.Submit(MakeEntry(1, {0, 1, 2})),
            AdmissionQueue::Admit::kAdmitted);
  ASSERT_EQ(queue.Submit(MakeEntry(1, {3, 4})),
            AdmissionQueue::Admit::kAdmitted);
  // An oversized single request is admitted and dispatches alone.
  ASSERT_EQ(queue.Submit(MakeEntry(1, {5, 6, 7, 8, 9, 10})),
            AdmissionQueue::Admit::kAdmitted);

  std::vector<AdmissionQueue::Entry> batch;
  ASSERT_TRUE(queue.NextBatch(&batch));  // 3 + 2 > 4: no merge
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.sources.size(), 3u);
  ASSERT_TRUE(queue.NextBatch(&batch));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.sources.size(), 2u);
  ASSERT_TRUE(queue.NextBatch(&batch));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.sources.size(), 6u);
}

TEST(AdmissionQueueTest, ExpiredEntriesCompleteAtPopWithoutAnEngine) {
  AdmissionQueue queue;
  AdmissionQueue::Entry expired = MakeEntry(1, {0});
  expired.request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  std::future<Result<QueryResponse>> future = expired.promise.get_future();
  ASSERT_EQ(queue.Submit(std::move(expired)),
            AdmissionQueue::Admit::kAdmitted);
  ASSERT_EQ(queue.Submit(MakeEntry(2, {1})), AdmissionQueue::Admit::kAdmitted);

  std::vector<AdmissionQueue::Entry> batch;
  ASSERT_TRUE(queue.NextBatch(&batch));
  // The expired entry was answered at pop and never reached a batch.
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].key, 2u);
  const Result<QueryResponse> result = future.get();
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(queue.Stats().expired, 1u);
}

TEST(AdmissionQueueTest, ExpiredWaitersMayReenterTheQueueOnWake) {
  // Expired promises are fulfilled *after* NextBatch releases the queue
  // lock, so a waiter that reacts to deadline_expired by immediately
  // retrying (Submit) or inspecting the queue (Stats) never races the
  // popping thread's critical section. (Regression: fulfillment used to
  // run under mu_.) Runs under TSan via the suite's "tsan" label.
  AdmissionQueue queue;
  AdmissionQueue::Entry expired = MakeEntry(1, {0});
  expired.request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  std::future<Result<QueryResponse>> future = expired.promise.get_future();
  ASSERT_EQ(queue.Submit(std::move(expired)),
            AdmissionQueue::Admit::kAdmitted);

  std::thread waiter([&] {
    const Result<QueryResponse> result = future.get();
    EXPECT_TRUE(result.status().IsDeadlineExceeded())
        << result.status().ToString();
    // The wake-up handler calls straight back into the queue.
    EXPECT_EQ(queue.Submit(MakeEntry(2, {1})),
              AdmissionQueue::Admit::kAdmitted);
    EXPECT_GE(queue.Stats().expired, 1u);
  });

  // Pop until the retry the waiter submits on wake comes through.
  std::vector<AdmissionQueue::Entry> batch;
  bool saw_retry = false;
  for (int i = 0; i < 10000 && !saw_retry; ++i) {
    if (queue.NextBatch(&batch)) {
      for (const AdmissionQueue::Entry& entry : batch) {
        saw_retry |= entry.key == 2u;
      }
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  waiter.join();
  EXPECT_TRUE(saw_retry) << "the waiter's retry never dispatched";
  EXPECT_EQ(queue.Stats().expired, 1u);
}

TEST(AdmissionQueueTest, FullQueueRejectsWithoutQueueing) {
  AdmissionQueueOptions options;
  options.max_pending = 1;
  AdmissionQueue queue(options);
  ASSERT_EQ(queue.Submit(MakeEntry(1, {0})), AdmissionQueue::Admit::kAdmitted);
  EXPECT_EQ(queue.Submit(MakeEntry(1, {1})),
            AdmissionQueue::Admit::kOverloaded);
  EXPECT_EQ(queue.Pending(), 1u);
  const AdmissionQueueStats stats = queue.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.overloaded, 1u);
}

TEST(AdmissionQueueTest, CloseDrainsQueuedWorkThenStops) {
  AdmissionQueue queue;
  ASSERT_EQ(queue.Submit(MakeEntry(1, {0})), AdmissionQueue::Admit::kAdmitted);
  ASSERT_EQ(queue.Submit(MakeEntry(2, {1})), AdmissionQueue::Admit::kAdmitted);
  queue.Close();
  EXPECT_EQ(queue.Submit(MakeEntry(3, {2})), AdmissionQueue::Admit::kClosed);

  std::vector<AdmissionQueue::Entry> batch;
  EXPECT_TRUE(queue.NextBatch(&batch));
  EXPECT_TRUE(queue.NextBatch(&batch));
  EXPECT_FALSE(queue.NextBatch(&batch)) << "closed and drained";
  EXPECT_EQ(queue.Stats().closed, 1u);
}

// ---------------------------------------------------------------------------
// SrsServer over real TCP

std::unique_ptr<SrsService> MakeService(Graph g,
                                        SrsServiceOptions options = {}) {
  return SrsService::Create(std::move(g), options).MoveValueOrDie();
}

JsonValue QueryLine(NodeId source) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("op", "query");
  JsonValue sources = JsonValue::MakeArray();
  sources.Append(static_cast<int64_t>(source));
  request.Set("sources", std::move(sources));
  return request;
}

std::string StatusOf(const JsonValue& response) {
  const JsonValue* status = response.Find("status");
  return status != nullptr && status->is_string() ? status->AsString()
                                                  : "<missing>";
}

/// Polls `pred` every 200us for up to ~5s (generous for TSan).
bool WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 25000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return pred();
}

TEST(ServerTest, ServesQueriesOnAnEphemeralPort) {
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  ASSERT_GT(server->port(), 0);

  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
  const JsonValue response = client.Call(QueryLine(7)).ValueOrDie();
  ASSERT_EQ(StatusOf(response), kStatusOk) << response.Encode();
  EXPECT_EQ(response.Find("version")->AsNumber(), 0.0);
  ASSERT_EQ(response.Find("rows")->array().size(), 1u);
  const JsonValue& row = response.Find("rows")->array()[0];
  EXPECT_EQ(row.Find("source")->AsNumber(), 7.0);

  // The wire answer is the service's answer, byte-for-byte through the
  // deterministic encoder.
  QueryRequest direct;
  direct.sources = {7};
  const QueryResponse expected = service->Query(direct).ValueOrDie();
  JsonValue expected_scores = JsonValue::MakeArray();
  for (double s : expected.rows[0].scores) expected_scores.Append(s);
  EXPECT_EQ(row.Find("scores")->Encode(), expected_scores.Encode());
}

TEST(ServerTest, FinishedConnectionThreadsAreReaped) {
  // Each connection runs on its own thread, and a joinable thread keeps
  // its stack mapped until it is joined: a server that joined them only at
  // shutdown kept one stack (~8 MiB of address space) per connection it
  // ever served.
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  JsonValue stats_op = JsonValue::MakeObject();
  stats_op.Set("op", "stats");
  constexpr int kConnections = 300;
  for (int i = 0; i < kConnections; ++i) {
    SrsClient client =
        SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
    ASSERT_EQ(StatusOf(client.Call(stats_op).ValueOrDie()), kStatusOk);
  }
  // Each accept joins the threads of the connections closed before it,
  // so only the last few can remain.
  EXPECT_LT(server->ConnectionThreads(), 16u);
  EXPECT_EQ(server->Stats().connections, static_cast<uint64_t>(kConnections));
}

TEST(ServerTest, MalformedLinesFailTheRequestNotTheConnection) {
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();

  ASSERT_TRUE(client.SendLine("this is not json").ok());
  Result<std::string> line = client.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  const JsonValue error = ParseJson(line.ValueOrDie()).ValueOrDie();
  EXPECT_EQ(StatusOf(error), kStatusInvalidRequest) << error.Encode();

  // Same connection, next line: served normally.
  const JsonValue ok = client.Call(QueryLine(0)).ValueOrDie();
  EXPECT_EQ(StatusOf(ok), kStatusOk) << ok.Encode();

  // A bad option override also fails only the one request.
  JsonValue bad = QueryLine(0);
  bad.Set("damping", 2.0);
  const JsonValue rejected = client.Call(bad).ValueOrDie();
  EXPECT_EQ(StatusOf(rejected), kStatusInvalidRequest);
  EXPECT_NE(rejected.Find("error")->AsString().find("similarity.damping"),
            std::string::npos)
      << rejected.Encode();
}

TEST(ServerTest, StatsOpReportsServingState) {
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
  ASSERT_EQ(StatusOf(client.Call(QueryLine(0)).ValueOrDie()), kStatusOk);

  const JsonValue response =
      client.Call([] {
              JsonValue r = JsonValue::MakeObject();
              r.Set("op", "stats");
              return r;
            }())
          .ValueOrDie();
  ASSERT_EQ(StatusOf(response), kStatusOk) << response.Encode();
  const JsonValue* stats = response.Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->Find("served_version")->AsNumber(), 0.0);
  EXPECT_EQ(stats->Find("num_nodes")->AsNumber(),
            static_cast<double>(service->NumNodes()));
  EXPECT_GE(stats->Find("requests")->AsNumber(), 1.0);
  EXPECT_GE(stats->Find("admitted")->AsNumber(), 1.0);
}

TEST(ServerTest, ConcurrentIdenticalQueriesCoalesceIntoEngineBatches) {
  constexpr int kClients = 6;
  constexpr int kQueriesPerClient = 30;
  std::unique_ptr<SrsService> service =
      MakeService(Rmat(400, 1600, 3).ValueOrDie());
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();

  // Connect first, then release every client at once: the dispatcher's
  // first engine call leaves the rest queued, so later pops must merge.
  std::atomic<bool> go{false};
  std::atomic<int> ok_responses{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      SrsClient client =
          SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kQueriesPerClient; ++i) {
        JsonValue request = QueryLine((t * kQueriesPerClient + i) % 400);
        request.Set("top_k", 4);  // same merged options -> same key
        const JsonValue response = client.Call(request).ValueOrDie();
        if (StatusOf(response) == kStatusOk &&
            response.Find("ranked")->AsBool()) {
          ok_responses.fetch_add(1);
        }
      }
    });
  }
  go.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(ok_responses.load(), kClients * kQueriesPerClient);
  const AdmissionQueueStats stats = server->QueueStats();
  EXPECT_EQ(stats.admitted,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  EXPECT_GT(stats.coalesced, 0u)
      << "concurrent same-key traffic never merged into a batch";
  EXPECT_LT(stats.batches, stats.admitted);
  EXPECT_EQ(server->Stats().responses_ok,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
}

TEST(ServerTest, ZeroBudgetDeadlineExpiresBeforeDispatch) {
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
  JsonValue request = QueryLine(0);
  request.Set("deadline_ms", 0.0);
  // The absolute deadline is stamped at admission; the steady clock cannot
  // run backwards, so the pop-side check always sees it expired.
  const JsonValue response = client.Call(request).ValueOrDie();
  EXPECT_EQ(StatusOf(response), kStatusDeadlineExpired) << response.Encode();
  EXPECT_GE(server->QueueStats().expired, 1u);
}

TEST(ServerTest, FullAdmissionQueueAnswersOverload) {
  // Capacity 1: with the dispatcher occupied, one request fills the queue
  // and the next is rejected at admission. The dispatcher is occupied
  // deterministically through the dispatch_hook test seam — service
  // callbacks run outside the service lock (StreamRows narrowing), so no
  // user-visible call can park SrsService::Query from the outside
  // anymore.
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  ServerOptions options;
  options.admission.max_pending = 1;
  options.dispatch_hook = [&](size_t) {
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get(), options).MoveValueOrDie();

  // Version-pinned requests: admission never consults the service, so
  // submission stays live while the dispatcher is parked.
  const auto pinned_query = [](NodeId source) {
    JsonValue request = QueryLine(source);
    request.Set("version", 0);
    return request;
  };
  std::thread blocked_client([&] {
    SrsClient client =
        SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
    const JsonValue response = client.Call(pinned_query(0)).ValueOrDie();
    EXPECT_EQ(StatusOf(response), kStatusOk) << response.Encode();
  });
  // The first request is popped (the hook is parked holding it, with the
  // queue now empty); the second fills the 1-slot queue.
  ASSERT_TRUE(WaitUntil([&] { return parked.load(); }));
  std::thread queued_client([&] {
    SrsClient client =
        SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
    const JsonValue response = client.Call(pinned_query(1)).ValueOrDie();
    EXPECT_EQ(StatusOf(response), kStatusOk) << response.Encode();
  });
  ASSERT_TRUE(WaitUntil([&] { return server->QueueStats().admitted >= 2; }));

  // Queue full while the dispatcher is blocked: explicit backpressure.
  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
  const JsonValue response = client.Call(pinned_query(2)).ValueOrDie();
  EXPECT_EQ(StatusOf(response), kStatusOverload) << response.Encode();
  EXPECT_GE(server->QueueStats().overloaded, 1u);

  release.store(true);
  blocked_client.join();
  queued_client.join();
}

TEST(ServerTest, DeltaSwapMidTrafficNeverTearsAnAnswer) {
  // Live traffic across an apply_delta: every response must be wholly the
  // pre- or the post-delta answer for its reported version. The reference
  // answers are recomputed afterwards with version-pinned queries.
  constexpr int kClients = 3;
  constexpr NodeId kSources = 8;
  std::unique_ptr<SrsService> service =
      MakeService(CycleGraph(48).ValueOrDie());
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();

  struct Observation {
    uint64_t version;
    NodeId source;
    std::string scores;
  };
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::vector<Observation>> observed(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      SrsClient client =
          SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
      NodeId source = static_cast<NodeId>(t) % kSources;
      while (!stop.load()) {
        const JsonValue response =
            client.Call(QueryLine(source)).ValueOrDie();
        if (StatusOf(response) != kStatusOk) {
          failures.fetch_add(1);
          break;
        }
        observed[static_cast<size_t>(t)].push_back(
            {static_cast<uint64_t>(response.Find("version")->AsNumber()),
             source,
             response.Find("rows")->array()[0].Find("scores")->Encode()});
        source = (source + 1) % kSources;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  SrsClient admin =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
  const JsonValue applied =
      admin.Call(ParseJson("{\"op\":\"apply_delta\",\"insert\":[[0,24]]}")
                     .ValueOrDie())
          .ValueOrDie();
  ASSERT_EQ(StatusOf(applied), kStatusOk) << applied.Encode();
  ASSERT_EQ(applied.Find("version")->AsNumber(), 1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Version-pinned references: the one right answer per (version, source).
  std::map<std::pair<uint64_t, NodeId>, std::string> reference;
  for (uint64_t version = 0; version <= 1; ++version) {
    for (NodeId source = 0; source < kSources; ++source) {
      JsonValue pinned = QueryLine(source);
      pinned.Set("version", version);
      const JsonValue response = admin.Call(pinned).ValueOrDie();
      ASSERT_EQ(StatusOf(response), kStatusOk) << response.Encode();
      reference[{version, source}] =
          response.Find("rows")->array()[0].Find("scores")->Encode();
    }
  }
  // The delta must actually change answers, or "not torn" proves nothing.
  EXPECT_NE(reference[std::make_pair(uint64_t{0}, NodeId{0})],
            reference[std::make_pair(uint64_t{1}, NodeId{0})]);

  size_t pre = 0, post = 0;
  for (const std::vector<Observation>& per_client : observed) {
    for (const Observation& obs : per_client) {
      ASSERT_LE(obs.version, 1u);
      (obs.version == 0 ? pre : post) += 1;
      const std::string& expected =
          reference[std::make_pair(obs.version, obs.source)];
      ASSERT_EQ(obs.scores, expected)
          << "torn answer: version " << obs.version << " source "
          << obs.source;
    }
  }
  // Traffic ran on both sides of the swap.
  EXPECT_GT(pre, 0u);
  EXPECT_GT(post, 0u);
}

TEST(ServerTest, ShutdownOpDrainsAndStopsTheServer) {
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
  ASSERT_EQ(StatusOf(client.Call(QueryLine(0)).ValueOrDie()), kStatusOk);

  JsonValue shutdown = JsonValue::MakeObject();
  shutdown.Set("op", "shutdown");
  const JsonValue response = client.Call(shutdown).ValueOrDie();
  EXPECT_EQ(StatusOf(response), kStatusOk) << response.Encode();
  server->Wait();
  EXPECT_TRUE(server->ShutdownRequested());
  EXPECT_GE(server->Stats().responses_ok, 2u);
}

TEST(LineIoTest, MultiMegabyteLineThenASecondLineInTheSameBuffer) {
  // A ~3 MB line spans dozens of recvs; its "\r\n" and the whole second
  // line arrive together in the last one. The terminator search must
  // resume where it stopped, strip the '\r', and keep the second line.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string big(size_t{3} << 20, 'x');
  std::thread writer([&] {
    EXPECT_TRUE(WriteLine(fds[1], big + "\r\nsecond").ok());
    ::close(fds[1]);
  });
  LineReader reader(fds[0]);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line).ok());
  EXPECT_EQ(line.size(), big.size());
  EXPECT_TRUE(line == big);
  ASSERT_TRUE(reader.ReadLine(&line).ok());
  EXPECT_EQ(line, "second");
  writer.join();
  EXPECT_TRUE(reader.ReadLine(&line).IsIoError()) << "end of stream";
  ::close(fds[0]);
}

TEST(LineIoTest, CappedReaderRejectsALongerLineWithoutWaitingForItsEnd) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A line of exactly the cap is read. The next one is a byte over and
  // has no terminator, and the writer stays open: the reader must fail
  // on what it has instead of waiting for a '\n' that may never come.
  ASSERT_TRUE(WriteLine(fds[1], "12345678").ok());
  const std::string over = "123456789";
  ASSERT_EQ(::send(fds[1], over.data(), over.size(), 0),
            static_cast<ssize_t>(over.size()));
  LineReader reader(fds[0], /*max_line_bytes=*/8);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line).ok());
  EXPECT_EQ(line, "12345678");
  const Status status = reader.ReadLine(&line);
  EXPECT_EQ(status.code(), StatusCode::kCapacityError) << status.ToString();
  EXPECT_NE(status.message().find("8 bytes"), std::string::npos)
      << status.ToString();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServerTest, OverlongRequestLineIsAnsweredOnceThenClosed) {
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  // A raw socket: the client would terminate the line.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // The server reads all cap + 1 bytes before it answers, so the whole
  // line is sent first.
  const std::string flood(kMaxRequestLineBytes + 1, 'x');
  for (size_t sent = 0; sent < flood.size();) {
    const ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  LineReader reader(fd);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line).ok());
  const JsonValue error = ParseJson(line).ValueOrDie();
  EXPECT_EQ(StatusOf(error), kStatusInvalidRequest) << line;
  EXPECT_NE(error.Find("error")->AsString().find(
                std::to_string(kMaxRequestLineBytes)),
            std::string::npos)
      << line;
  EXPECT_TRUE(reader.ReadLine(&line).IsIoError()) << "then end of stream";
  ::close(fd);
  EXPECT_EQ(server->Stats().responses_error, 1u);
}

TEST(ServerTest, MultiMegabyteLinesCrossTheWireBothWays) {
  // One send carries a ~3 MB request line ending in "\r\n" and a second
  // request right behind it; the server echoes the 3 MB id back, so the
  // client reads a multi-MB reply with the second reply queued behind it.
  std::unique_ptr<SrsService> service = MakeService(Fig1CitationGraph());
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();
  const std::string big_id(size_t{3} << 20, 'y');
  ASSERT_TRUE(client
                  .SendLine("{\"op\":\"stats\",\"id\":\"" + big_id +
                            "\"}\r\n{\"op\":\"stats\",\"id\":2}")
                  .ok());
  const JsonValue first =
      ParseJson(client.ReadLine().ValueOrDie()).ValueOrDie();
  EXPECT_EQ(StatusOf(first), kStatusOk);
  EXPECT_TRUE(first.Find("id")->AsString() == big_id);
  const JsonValue second =
      ParseJson(client.ReadLine().ValueOrDie()).ValueOrDie();
  EXPECT_EQ(StatusOf(second), kStatusOk);
  EXPECT_EQ(second.Find("id")->AsNumber(), 2.0);
}

}  // namespace
}  // namespace srs
