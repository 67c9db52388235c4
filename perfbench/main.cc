// srs_perfbench — the end-to-end serving benchmark: one SrsServer over one
// SrsService on the n=1M copying-model graph, driven over TCP by
// closed-loop clients with a fixed, seeded request sequence.
//
// Usage (run.py builds this binary and forwards its flags):
//
//   srs_perfbench --workload topk-zipf|fullrow|topk-delta --seed N
//                 --seconds S --trace 0|1 [--determinism]
//                 [--out-dir DIR] [--commit ID]
//
// One closed-loop client connection per hardware thread (one with
// --determinism). Fixed work, not a time window: a run sends an untimed
// warm-up prefix and then N = max(kMinMeasured, S × nominal_qps) measured
// requests, so cache hits, coalescing opportunities and work counts follow
// from the seed, not from how fast the host happened to be. --seconds only
// sizes N.
//
//  * --trace 0 prints the end-to-end metrics (qps, p50_ms, p90_ms,
//    setup_s, peak_rss_mb).
//  * --trace 1 replays the sequence untraced and traced over TCP, then
//    layer by layer through direct library calls, recording spans around
//    each public call made from this file, and prints the per-layer
//    metrics. Spans go to DIR/traces/<workload>-seed<N>.jsonl.
//  * --determinism replays the sequence twice with one client and checks
//    that the work counts repeat exactly and that another seed changes
//    the sequence.
//
// Every mode checks its answers against a reference service and prints as
// its last stdout line one JSON object with the keys correct, attempted,
// failed and metrics; it exits 1 on any failed or wrong answer. README.md
// beside this file documents each workload and metric.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_set>
#include <utility>
#include <vector>

#include "srs/common/cpu_features.h"
#include "srs/common/json.h"
#include "srs/common/memory_tracker.h"
#include "srs/common/parallel.h"
#include "srs/common/result.h"
#include "srs/common/rng.h"
#include "srs/core/kernel_backend.h"
#include "srs/core/options.h"
#include "srs/core/single_source_kernel.h"
#include "srs/engine/delta_invalidation.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/service.h"
#include "srs/engine/snapshot.h"
#include "srs/graph/delta.h"
#include "srs/graph/generators.h"
#include "srs/graph/versioned_graph.h"
#include "srs/matrix/csr_kernels.h"
#include "srs/matrix/csr_matrix.h"
#include "srs/server/client.h"
#include "srs/server/protocol.h"
#include "srs/server/server.h"
#include "srs/storage/data_dir.h"
#include "srs/storage/wal.h"

namespace {

using namespace srs;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// The input: CopyingModelGraph(1M, 3.0, 0.35, seed), as in bench_topk
// --large — a hyperlink-like graph with power-law in-degrees.
constexpr int64_t kNodes = 1'000'000;
constexpr double kAvgOutDegree = 3.0;
constexpr double kCopyProbability = 0.35;

constexpr size_t kPoolSize = 100'000;
constexpr double kZipfExponent = 0.9;
constexpr size_t kDeltaEvery = 10;
constexpr size_t kDeltaEdges = 16;

// setup_s is the median of this many full bring-ups per run. One bring-up
// takes 1-2 s at n=1M, and the driver's 70 runs must fit its time budget.
constexpr int kSetupTrials = 7;

// The floor on measured requests per run: p90 wants >= 100 samples.
constexpr size_t kMinMeasured = 100;

/// One workload: what is asked, and how much of it.
struct WorkloadSpec {
  const char* name;
  SimilarityOptions options;
  bool zipf;             ///< sources ~ Zipf over a pool; else distinct uniform
  bool deltas;           ///< every kDeltaEvery-th item is an apply_delta,
                         ///< fsync'd to the service's data dir
  double nominal_qps;    ///< sizes N = seconds × nominal_qps
  size_t warmup;         ///< untimed prefix (item 0 is setup's first query)
  size_t checked;        ///< responses compared bit for bit per pass
  size_t direct;         ///< items replayed through direct calls (traced)
  size_t kernel_columns; ///< columns stepped level by level (traced)
};

SimilarityOptions TopKOptions() {
  SimilarityOptions o;
  o.damping = 0.6;
  o.epsilon = 1e-4;
  o.backend = KernelBackendKind::kSparse;
  o.prune_epsilon = 1e-4;
  o.top_k = 10;
  return o;
}

SimilarityOptions FullRowOptions() {
  SimilarityOptions o;  // dense backend, full rows
  o.damping = 0.6;
  o.iterations = 5;     // the paper's K
  return o;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // name, options, zipf, deltas, nominal_qps, warmup, checked, direct,
      // kernel_columns. nominal_qps only sizes N: topk-zipf's is about its
      // rate on a 4-core Xeon, topk-delta's about three times its rate so
      // that its qps is steady, and fullrow's N is the kMinMeasured floor
      // up to --seconds 27.
      {"topk-zipf", TopKOptions(), true, false, 29.0, 16, 24, 48, 8},
      {"fullrow", FullRowOptions(), false, false, 3.7, 4, 3, 4, 2},
      {"topk-delta", TopKOptions(), true, true, 42.0, 16, 24, 48, 8},
  };
  return specs;
}

// ---------------------------------------------------------------------------
// Statistics.

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Spans.

/// In-memory span log: each span is one timed public call made from this
/// file, with its parent span and the sequence item it served. Written out
/// once at the end; the per-layer metrics are read back from it. A
/// disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Reserves a span id (0 when disabled), so children can name a parent
  /// that has not finished yet.
  int64_t NewId() { return enabled_ ? next_id_.fetch_add(1) : 0; }

  void Add(int64_t id, const char* name, int64_t parent, int64_t request,
           Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{id, name, parent, request, start, end});
  }

  /// Adds a span under a fresh id.
  void Record(const char* name, int64_t parent, int64_t request,
              Clock::time_point start, Clock::time_point end) {
    Add(NewId(), name, parent, request, start, end);
  }

  std::vector<double> DurationsMs(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(MsBetween(s.start, s.end));
    }
    return out;
  }

  /// One JSON object per span; times in µs since the earliest span.
  Status Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return Status::IoError("cannot write " + path);
    Clock::time_point origin = Clock::time_point::max();
    for (const Span& s : spans_) origin = std::min(origin, s.start);
    const auto us = [origin](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    for (const Span& s : spans_) {
      JsonValue line = JsonValue::MakeObject();
      line.Set("id", s.id);
      line.Set("name", s.name);
      line.Set("parent", s.parent);
      line.Set("request", s.request);
      line.Set("start_us", us(s.start));
      line.Set("end_us", us(s.end));
      out << line.Encode() << '\n';
    }
    return out ? Status::OK() : Status::IoError("short write to " + path);
  }

 private:
  struct Span {
    int64_t id;
    const char* name;
    int64_t parent;
    int64_t request;
    Clock::time_point start, end;
  };

  const bool enabled_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// host.probe_ms.

/// A fixed single-thread, memory-bound loop: dependent loads around one
/// 64 MiB cycle. The same work on every run and every commit, so it moves
/// only when the host does. Reported beside the metrics to tell host drift
/// from a regression; never used to scale them.
double HostProbeMs() {
  constexpr size_t kSlots = size_t{16} << 20;
  constexpr size_t kSteps = size_t{1} << 20;
  std::vector<uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0u);
  Rng rng(0x5eedULL);
  for (size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: a single cycle
    std::swap(next[i], next[rng.Uniform(i)]);
  }
  std::vector<double> reps;
  uint32_t at = 0;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    for (size_t s = 0; s < kSteps; ++s) at = next[at];
    reps.push_back(MsBetween(t0, Clock::now()));
  }
  if (at >= kSlots) std::fprintf(stderr, "host probe: broken cycle\n");
  return Median(reps);
}

// ---------------------------------------------------------------------------
// The request sequence.

struct Item {
  bool is_delta = false;
  NodeId source = 0;                             ///< reads
  std::vector<std::pair<NodeId, NodeId>> edges;  ///< deltas: inserts
  std::string line;         ///< the request as sent
  std::string traced_line;  ///< the same request with "trace": true
};

JsonValue RequestJson(const Item& item, size_t id, bool traced) {
  JsonValue r = JsonValue::MakeObject();
  r.Set("op", item.is_delta ? "apply_delta" : "query");
  r.Set("id", static_cast<uint64_t>(id));
  if (item.is_delta) {
    JsonValue edges = JsonValue::MakeArray();
    for (const auto& [u, v] : item.edges) {
      JsonValue e = JsonValue::MakeArray();
      e.Append(static_cast<int64_t>(u));
      e.Append(static_cast<int64_t>(v));
      edges.Append(std::move(e));
    }
    r.Set("insert", std::move(edges));
    return r;
  }
  JsonValue sources = JsonValue::MakeArray();
  sources.Append(static_cast<int64_t>(item.source));
  r.Set("sources", std::move(sources));
  if (traced) r.Set("trace", true);
  return r;
}

/// The request sequence of one run — a pure function of (workload, seed).
std::vector<Item> MakeSequence(const WorkloadSpec& w, uint64_t seed,
                               size_t count) {
  std::vector<NodeId> pool;
  std::vector<double> cdf;
  if (w.zipf) {
    Rng pool_rng(DeriveSeed(seed, 2));
    std::unordered_set<NodeId> seen;
    while (pool.size() < kPoolSize) {
      const auto v = static_cast<NodeId>(pool_rng.Uniform(kNodes));
      if (seen.insert(v).second) pool.push_back(v);
    }
    double total = 0.0;
    for (size_t rank = 1; rank <= kPoolSize; ++rank) {
      total += std::pow(static_cast<double>(rank), -kZipfExponent);
      cdf.push_back(total);
    }
  }
  Rng read_rng(DeriveSeed(seed, 3));
  Rng delta_rng(DeriveSeed(seed, 4));
  std::unordered_set<NodeId> used;
  std::vector<Item> items(count);
  for (size_t i = 0; i < count; ++i) {
    Item& item = items[i];
    if (w.deltas && (i + 1) % kDeltaEvery == 0) {
      item.is_delta = true;
      while (item.edges.size() < kDeltaEdges) {
        const auto u = static_cast<NodeId>(delta_rng.Uniform(kNodes));
        const auto v = static_cast<NodeId>(delta_rng.Uniform(kNodes));
        if (u != v) item.edges.emplace_back(u, v);
      }
    } else if (w.zipf) {
      const double x = read_rng.UniformDouble() * cdf.back();
      const auto rank = static_cast<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
      item.source = pool[std::min(rank, kPoolSize - 1)];
    } else {
      do {
        item.source = static_cast<NodeId>(read_rng.Uniform(kNodes));
      } while (!used.insert(item.source).second);
    }
    item.line = RequestJson(item, i, false).Encode();
    item.traced_line = RequestJson(item, i, true).Encode();
  }
  return items;
}

uint64_t SequenceDigest(const std::vector<Item>& items) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const Item& item : items) {
    for (const char c : item.line) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
  }
  return h;
}

Result<EdgeDelta> BuildDelta(const Item& item) {
  EdgeDelta::Builder builder;
  for (const auto& [u, v] : item.edges) builder.Insert(u, v);
  return builder.Build(kNodes);
}

/// One run's sequence plus the choice of responses to check.
struct Run {
  const WorkloadSpec* spec = nullptr;
  std::vector<Item> items;
  size_t warmup = 0;           ///< items [0, warmup) are untimed
  std::vector<bool> checked;   ///< compared to the reference afterwards
};

Run MakeRun(const WorkloadSpec& w, uint64_t seed, int seconds) {
  Run run;
  run.spec = &w;
  run.warmup = w.warmup;
  const auto measured = std::max(
      kMinMeasured, static_cast<size_t>(std::llround(seconds * w.nominal_qps)));
  run.items = MakeSequence(w, seed, w.warmup + measured);
  run.checked.assign(run.items.size(), false);
  std::vector<size_t> reads;
  for (size_t i = run.warmup; i < run.items.size(); ++i) {
    if (!run.items[i].is_delta) reads.push_back(i);
  }
  Rng rng(DeriveSeed(seed, 5));
  for (size_t k = 0; k < std::min(w.checked, reads.size()); ++k) {
    std::swap(reads[k], reads[k + rng.Uniform(reads.size() - k)]);
    run.checked[reads[k]] = true;
  }
  return run;
}

// ---------------------------------------------------------------------------
// The TCP client side.

/// What one request came back with.
struct Outcome {
  bool ok = false;
  std::string error = "not sent";
  double latency_ms = 0.0;  ///< send → reply decoded, as the client sees it
  double decode_ms = 0.0;   ///< client ParseJson of the reply line
  uint64_t version = 0;
  // The wire trace of a traced query.
  double admission_wait_ms = 0.0;
  double resolve_ms = 0.0;
  double compute_ms = 0.0;
  // Early-termination facts of a ranked answer.
  int levels_evaluated = 0;
  int levels_total = 0;
  // The answer itself, kept only for checked responses.
  std::vector<double> scores;
  std::vector<RankedNode> ranking;
};

bool GetNumber(const JsonValue& obj, const char* key, double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) return false;
  *out = v->AsNumber();
  return true;
}

/// Checks a decoded reply against its request and extracts what the
/// metrics and the answer check need; returns "" when the reply is good.
std::string Validate(const Run& run, size_t i, const JsonValue& doc,
                     bool traced, Outcome* o) {
  const JsonValue* status = doc.Find("status");
  if (status == nullptr || !status->is_string() ||
      status->AsString() != kStatusOk) {
    return "not ok: " + doc.Encode().substr(0, 200);
  }
  double id = -1, version = -1;
  if (!GetNumber(doc, "id", &id) || id != static_cast<double>(i)) {
    return "id mismatch";
  }
  if (!GetNumber(doc, "version", &version)) return "no version";
  o->version = static_cast<uint64_t>(version);
  const Item& item = run.items[i];
  if (item.is_delta) return "";

  const JsonValue* rows = doc.Find("rows");
  if (rows == nullptr || !rows->is_array() || rows->array().size() != 1) {
    return "expected one row";
  }
  const JsonValue& row = rows->array()[0];
  double source = -1;
  if (!GetNumber(row, "source", &source) ||
      source != static_cast<double>(item.source)) {
    return "source mismatch";
  }
  const bool keep = run.checked[i];
  const int top_k = run.spec->options.top_k;
  if (top_k > 0) {
    const JsonValue* ranking = row.Find("ranking");
    if (ranking == nullptr || !ranking->is_array() ||
        ranking->array().size() > static_cast<size_t>(top_k)) {
      return "bad ranking";
    }
    double evaluated = 0, total = 0;
    if (!GetNumber(row, "levels_evaluated", &evaluated) ||
        !GetNumber(row, "levels_total", &total)) {
      return "no termination facts";
    }
    o->levels_evaluated = static_cast<int>(evaluated);
    o->levels_total = static_cast<int>(total);
    for (const JsonValue& entry : ranking->array()) {
      double node = 0, score = 0;
      if (!GetNumber(entry, "node", &node) ||
          !GetNumber(entry, "score", &score)) {
        return "bad ranking entry";
      }
      if (keep) o->ranking.push_back({static_cast<NodeId>(node), score});
    }
  } else {
    const JsonValue* scores = row.Find("scores");
    if (scores == nullptr || !scores->is_array() ||
        scores->array().size() != static_cast<size_t>(kNodes)) {
      return "bad score row";
    }
    if (keep) {
      o->scores.reserve(scores->array().size());
      for (const JsonValue& s : scores->array()) {
        if (!s.is_number()) return "bad score";
        o->scores.push_back(s.AsNumber());
      }
    }
  }
  if (traced) {
    const JsonValue* trace = doc.Find("trace");
    if (trace == nullptr ||
        !GetNumber(*trace, "admission_wait_ms", &o->admission_wait_ms) ||
        !GetNumber(*trace, "resolve_ms", &o->resolve_ms) ||
        !GetNumber(*trace, "compute_ms", &o->compute_ms)) {
      return "no trace";
    }
  }
  return "";
}

/// One request/reply on `client`; false when the connection broke.
bool Exchange(SrsClient* client, const Run& run, size_t i, bool traced,
              Outcome* o, Tracer* tracer) {
  const Item& item = run.items[i];
  const int64_t span = tracer->NewId();
  const auto t0 = Clock::now();
  const Status sent =
      client->SendLine(traced ? item.traced_line : item.line);
  Result<std::string> line = Status::IoError("unsent");
  if (sent.ok()) {
    line = client->ReadLine();
  } else {
    line = sent;
  }
  const auto t1 = Clock::now();
  if (!line.ok()) {
    o->error = line.status().ToString();
    return false;
  }
  const Result<JsonValue> doc = ParseJson(line.ValueOrDie());
  const auto t2 = Clock::now();
  const auto request = static_cast<int64_t>(i);
  tracer->Record("client.roundtrip", span, request, t0, t1);
  tracer->Record("server.decode", span, request, t1, t2);
  tracer->Add(span, "client.request", 0, request, t0, t2);
  o->latency_ms = MsBetween(t0, t2);
  o->decode_ms = MsBetween(t1, t2);
  o->error = doc.ok() ? Validate(run, i, doc.ValueOrDie(), traced, o)
                      : doc.status().ToString();
  o->ok = o->error.empty();
  return true;
}

/// Sends items [begin, end) from `clients` closed-loop connections: each
/// connection takes the next unsent item once its previous reply is
/// decoded, so every item is sent whatever the interleaving. Returns wall
/// seconds from the first send to the last reply.
double Drive(int port, const Run& run, size_t begin, size_t end, int clients,
             bool traced, std::vector<Outcome>* outcomes, Tracer* tracer) {
  std::atomic<size_t> next{begin};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      Result<SrsClient> client = SrsClient::Connect("127.0.0.1", port);
      if (!client.ok()) return;  // the other connections take its items
      for (size_t i = next.fetch_add(1); i < end; i = next.fetch_add(1)) {
        if (!Exchange(&client.ValueOrDie(), run, i, traced,
                      &(*outcomes)[i], tracer)) {
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// The serving stack.

/// Snapshot cache → service → server, destroyed in reverse, plus the data
/// dir a durable service logs to.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    // The service closes its WAL before its data dir is removed.
    server.reset();
    service.reset();
    if (!data_dir.empty()) {
      std::error_code ec;
      fs::remove_all(data_dir, ec);
    }
  }

  std::string data_dir;
  std::shared_ptr<ResultCache> cache;
  std::unique_ptr<SnapshotCache> snapshots;
  std::unique_ptr<SrsService> service;
  std::unique_ptr<SrsServer> server;
};

/// Brings a stack up from an in-memory graph and answers the sequence's
/// first item through it: SrsService::Create (with the data-dir init when
/// the workload has deltas), SrsServer::Start, first query. That span is
/// setup_s; copying the input graph happens before it.
Result<std::unique_ptr<Stack>> StartStack(const Graph& graph, const Run& run,
                                          const std::string& data_dir,
                                          double* setup_s, Tracer* tracer) {
  Graph input = graph;
  auto stack = std::make_unique<Stack>();
  stack->cache = std::make_shared<ResultCache>();
  stack->snapshots = std::make_unique<SnapshotCache>();
  SrsServiceOptions options;
  options.similarity = run.spec->options;
  options.num_threads = HardwareThreads();
  options.result_cache = stack->cache;
  options.snapshot_cache = stack->snapshots.get();
  if (run.spec->deltas) {
    options.data_dir = data_dir;
    stack->data_dir = data_dir;
  }
  const int64_t span = tracer->NewId();
  const auto t0 = Clock::now();
  SRS_ASSIGN_OR_RETURN(stack->service,
                       SrsService::Create(std::move(input), options));
  const auto t1 = Clock::now();
  SRS_ASSIGN_OR_RETURN(stack->server, SrsServer::Start(stack->service.get()));
  const auto t2 = Clock::now();
  SRS_ASSIGN_OR_RETURN(SrsClient client, SrsClient::Connect(
                                             "127.0.0.1",
                                             stack->server->port()));
  SRS_RETURN_NOT_OK(client.SendLine(run.items[0].line));
  SRS_ASSIGN_OR_RETURN(std::string reply, client.ReadLine());
  SRS_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(reply));
  const auto t3 = Clock::now();
  const JsonValue* status = doc.Find("status");
  if (status == nullptr || !status->is_string() ||
      status->AsString() != kStatusOk) {
    return Status::Internal("first query failed: " + reply.substr(0, 200));
  }
  tracer->Record("setup.create", span, 0, t0, t1);
  tracer->Record("setup.start", span, 0, t1, t2);
  tracer->Record("setup.first_query", span, 0, t2, t3);
  tracer->Add(span, "setup", 0, 0, t0, t3);
  *setup_s = std::chrono::duration<double>(t3 - t0).count();
  return stack;
}

struct Counters {
  AdmissionQueueStats queue;
  ResultCacheStats cache;
  ServiceStats service;
};

Counters ReadCounters(const Stack& stack) {
  return {stack.server->QueueStats(), stack.cache->Stats(),
          stack.service->Stats()};
}

/// One pass of the sequence through a started stack.
struct Pass {
  std::vector<Outcome> outcomes;  ///< per item; item 0 was answered by setup
  double elapsed_s = 0.0;         ///< the measured items only
  Counters before, after;         ///< around the measured items
  double peak_rss_mb = 0.0;       ///< right after the measured items
};

Pass RunPass(const Stack& stack, const Run& run, int clients, bool traced,
             Tracer* tracer) {
  Pass pass;
  pass.outcomes.resize(run.items.size());
  pass.outcomes[0].ok = true;
  pass.outcomes[0].error.clear();
  Tracer untraced(false);
  const int port = stack.server->port();
  Drive(port, run, 1, run.warmup, clients, traced, &pass.outcomes,
        &untraced);
  pass.before = ReadCounters(stack);
  pass.elapsed_s = Drive(port, run, run.warmup, run.items.size(), clients,
                         traced, &pass.outcomes, tracer);
  pass.after = ReadCounters(stack);
  pass.peak_rss_mb =
      static_cast<double>(ProcessPeakRssBytes()) / (1024.0 * 1024.0);
  return pass;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameAnswer(const QueryRowResult& want, const Outcome& got) {
  if (!want.ranking.empty() || !got.ranking.empty()) {
    if (want.ranking.size() != got.ranking.size()) return false;
    for (size_t k = 0; k < want.ranking.size(); ++k) {
      if (want.ranking[k].node != got.ranking[k].node ||
          !SameBits(want.ranking[k].score, got.ranking[k].score)) {
        return false;
      }
    }
    return true;
  }
  return want.scores.size() == got.scores.size() &&
         std::memcmp(want.scores.data(), got.scores.data(),
                     want.scores.size() * sizeof(double)) == 0;
}

/// The answer check: replays the acknowledged deltas in version order on a
/// reference service with no result cache, recomputes every checked
/// response with a direct SrsService::Query at the version the response
/// reported, and compares the answers bit for bit. Returns the mismatch
/// count (a failed recomputation counts as a mismatch).
size_t CheckAnswers(const Graph& graph, const Run& run,
                    const std::vector<Outcome>& outcomes,
                    std::string* first_error) {
  size_t mismatches = 0;
  const auto fail = [&](const std::string& what) {
    ++mismatches;
    if (first_error->empty()) *first_error = what;
  };
  SnapshotCache snapshots;
  SrsServiceOptions options;
  options.similarity = run.spec->options;
  options.num_threads = HardwareThreads();
  options.snapshot_cache = &snapshots;
  Result<std::unique_ptr<SrsService>> created =
      SrsService::Create(Graph(graph), options);
  if (!created.ok()) {
    fail("reference service: " + created.status().ToString());
    return mismatches;
  }
  SrsService& reference = *created.ValueOrDie();

  std::map<uint64_t, size_t> deltas;  // acknowledged version → item
  std::map<uint64_t, std::vector<size_t>> checked;  // version → items
  for (size_t i = 0; i < run.items.size(); ++i) {
    if (!outcomes[i].ok) continue;
    if (run.items[i].is_delta) {
      deltas[outcomes[i].version] = i;
    } else if (run.checked[i]) {
      checked[outcomes[i].version].push_back(i);
    }
  }
  for (const auto& [version, i] : deltas) {
    Result<EdgeDelta> delta = BuildDelta(run.items[i]);
    if (!delta.ok()) {
      fail("delta of item " + std::to_string(i) + ": " +
           delta.status().ToString());
      continue;
    }
    Result<uint64_t> applied = reference.ApplyDelta(delta.ValueOrDie());
    if (!applied.ok() || applied.ValueOrDie() != version) {
      fail("delta of item " + std::to_string(i) + " did not reproduce " +
           "version " + std::to_string(version));
    }
  }
  for (const auto& [version, items] : checked) {
    Result<ProtocolRequest> parsed =
        ParseRequestLine(run.items[items[0]].line, run.spec->options);
    if (!parsed.ok()) {
      fail("reparse: " + parsed.status().ToString());
      continue;
    }
    QueryRequest request = parsed.ValueOrDie().query;
    request.version = version;
    request.sources.clear();
    for (const size_t i : items) request.sources.push_back(run.items[i].source);
    Result<QueryResponse> response = reference.Query(request);
    if (!response.ok()) {
      for (size_t k = 0; k < items.size(); ++k) {
        fail("reference query: " + response.status().ToString());
      }
      continue;
    }
    for (size_t k = 0; k < items.size(); ++k) {
      if (!SameAnswer(response.ValueOrDie().rows[k], outcomes[items[k]])) {
        fail("answer of item " + std::to_string(items[k]) + " at version " +
             std::to_string(version) + " differs from the reference");
      }
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Per-layer replays (traced run only).

/// server.parse_ms, engine.query_ms, server.encode_ms and engine.delta_ms:
/// the first `direct` items replayed one at a time through the calls the
/// server makes, on a fresh service with no server in front and no data
/// dir (the WAL append is storage.log_delta_ms).
Status DirectReplay(const Graph& graph,
                    const std::shared_ptr<const GraphSnapshot>& root,
                    const Run& run, Tracer* tracer) {
  SnapshotCache snapshots;
  snapshots.Seed(root);
  SrsServiceOptions options;
  options.similarity = run.spec->options;
  options.num_threads = HardwareThreads();
  options.result_cache = std::make_shared<ResultCache>();
  options.snapshot_cache = &snapshots;
  SRS_ASSIGN_OR_RETURN(std::unique_ptr<SrsService> service,
                       SrsService::Create(Graph(graph), options));
  const size_t count = std::min(run.spec->direct, run.items.size());
  for (size_t i = 0; i < count; ++i) {
    const Item& item = run.items[i];
    const auto request_id = static_cast<int64_t>(i);
    if (item.is_delta) {
      SRS_ASSIGN_OR_RETURN(EdgeDelta delta, BuildDelta(item));
      const auto t0 = Clock::now();
      SRS_RETURN_NOT_OK(service->ApplyDelta(delta).status());
      tracer->Record("engine.delta", 0, request_id, t0, Clock::now());
      continue;
    }
    const auto t0 = Clock::now();
    SRS_ASSIGN_OR_RETURN(ProtocolRequest request,
                         ParseRequestLine(item.line, run.spec->options));
    const auto t1 = Clock::now();
    SRS_ASSIGN_OR_RETURN(QueryResponse response,
                         service->Query(request.query));
    const auto t2 = Clock::now();
    const std::string encoded =
        EncodeQueryResponse(request.id, response).Encode();
    const auto t3 = Clock::now();
    if (encoded.empty()) return Status::Internal("empty encoding");
    tracer->Record("server.parse", 0, request_id, t0, t1);
    tracer->Record("engine.query", 0, request_id, t1, t2);
    tracer->Record("server.encode", 0, request_id, t2, t3);
  }
  return Status::OK();
}

/// storage.log_delta_ms, graph.apply_ms, engine.derive_ms and
/// engine.invalidate_ms: the sequence's deltas applied one layer at a time
/// to a replica of the served chain, in the order ApplyDelta runs the
/// layers. Invalidation runs over `cache`, the traced pass's result cache.
Status ReplicaChain(const Graph& graph,
                    const std::shared_ptr<const GraphSnapshot>& root,
                    const Run& run, const std::string& data_dir,
                    ResultCache* cache, Tracer* tracer,
                    DeltaInvalidationStats* total) {
  VersionedGraph chain{Graph(graph)};
  SnapshotCache snapshots;
  snapshots.Seed(root);
  SRS_ASSIGN_OR_RETURN(std::shared_ptr<const GraphSnapshot> parent,
                       snapshots.Get(chain, 0));
  SRS_ASSIGN_OR_RETURN(std::unique_ptr<DurableStore> store,
                       DurableStore::Initialize(data_dir, graph, *parent));
  for (size_t i = 0; i < run.items.size(); ++i) {
    const Item& item = run.items[i];
    if (!item.is_delta) continue;
    SRS_ASSIGN_OR_RETURN(EdgeDelta delta, BuildDelta(item));
    const auto request_id = static_cast<int64_t>(i);
    const int64_t span = tracer->NewId();
    const auto t0 = Clock::now();
    Wal::Record record;
    record.version = chain.CurrentVersion() + 1;
    record.version_fingerprint = chain.NextVersionFingerprint(delta);
    record.delta = delta;
    SRS_RETURN_NOT_OK(store->LogDelta(record));
    const auto t1 = Clock::now();
    SRS_ASSIGN_OR_RETURN(const uint64_t version, chain.Apply(delta));
    const auto t2 = Clock::now();
    SRS_ASSIGN_OR_RETURN(std::shared_ptr<const GraphSnapshot> child,
                         snapshots.Get(chain, version));
    const auto t3 = Clock::now();
    SRS_ASSIGN_OR_RETURN(
        DeltaInvalidationStats stats,
        PropagateResultCacheAcrossDelta(cache, *parent, *child,
                                        run.spec->options));
    const auto t4 = Clock::now();
    tracer->Record("storage.log_delta", span, request_id, t0, t1);
    tracer->Record("graph.apply", span, request_id, t1, t2);
    tracer->Record("engine.derive", span, request_id, t2, t3);
    tracer->Record("engine.invalidate", span, request_id, t3, t4);
    tracer->Add(span, "replica.delta", 0, request_id, t0, t4);
    total->retained += stats.retained;
    total->evicted += stats.evicted;
    parent = std::move(child);
  }
  return Status::OK();
}

/// core.level_ms: PartialColumnEvaluation::AdvanceLevel timed one level
/// at a time, over some of the sequence's measured sources, through the
/// workload's own kernel backend (full drain: no top-k stop).
void KernelLevels(const GraphSnapshot& root, const Run& run,
                  Tracer* tracer) {
  const SimilarityOptions& o = run.spec->options;
  const std::shared_ptr<const KernelBackend> backend = MakeKernelBackend(o);
  const std::unique_ptr<KernelWorkspace> workspace = backend->NewWorkspace();
  const std::vector<double> weights = GeometricStarLengthWeights(
      o.damping, EffectiveIterations(o, /*exponential=*/false));
  std::vector<double> out;
  size_t columns = 0;
  for (size_t i = run.warmup;
       i < run.items.size() && columns < run.spec->kernel_columns; ++i) {
    if (run.items[i].is_delta) continue;
    ++columns;
    const auto request_id = static_cast<int64_t>(i);
    const int64_t span = tracer->NewId();
    const auto begin = Clock::now();
    PartialColumnEvaluation* eval = backend->BeginBinomialColumn(
        root.q, root.qt, run.items[i].source, weights, workspace.get(), &out);
    while (true) {
      const auto t0 = Clock::now();
      if (!eval->AdvanceLevel()) break;
      tracer->Record("core.level", span, request_id, t0, Clock::now());
    }
    tracer->Add(span, "core.column", 0, request_id, begin, Clock::now());
  }
}

/// matrix.spmv_ms: y = Q·x over the root snapshot's Q at the active rung.
void SpmvTiming(const GraphSnapshot& root, Tracer* tracer) {
  const CsrMatrix& q = *root.q.base();
  std::vector<double> x(static_cast<size_t>(q.cols()),
                        1.0 / static_cast<double>(q.cols()));
  std::vector<double> y(static_cast<size_t>(q.rows()));
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    q.VisitRowPtr([&](const auto* row_ptr) {
      csr_kernels::Spmv(ActiveSimdLevel(), q.rows(), row_ptr,
                        q.col_idx().data(), q.values().data(), x.data(),
                        y.data());
    });
    tracer->Record("matrix.spmv", 0, rep, t0, Clock::now());
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints every metric by name and unit, then the result line — always
/// the last line of stdout.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  JsonValue values = JsonValue::MakeObject();
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    values.Set(m.name, std::move(entry));
  }
  JsonValue result = JsonValue::MakeObject();
  result.Set("correct", correct);
  result.Set("attempted", static_cast<uint64_t>(attempted));
  result.Set("failed", static_cast<uint64_t>(failed));
  result.Set("metrics", std::move(values));
  std::printf("%s\n", result.Encode().c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool determinism = false;
  std::string out_dir = ".bench_build";
  std::string commit = "unknown";
};

template <typename T>
bool ParseNumber(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--determinism") {
      args->determinism = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    int trace = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &args->seed)) return false;
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &args->seconds) || args->seconds < 1) {
        return false;
      }
    } else if (flag == "--trace") {
      if (!ParseNumber(value, &trace) || (trace != 0 && trace != 1)) {
        return false;
      }
      args->trace = trace == 1;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

/// Everything one run shares: the input graph, the sequence, the header.
struct Bench {
  Args args;
  const WorkloadSpec* spec = nullptr;
  int clients = 0;
  std::string work_dir;
  Graph graph;
  Run run;
  double probe_before_ms = 0.0;

  std::string DataDir(const std::string& tag) const {
    return work_dir + "/data-" + tag;
  }
};

void PrintHeader(const Bench& b, double graph_s) {
  JsonValue h = JsonValue::MakeObject();
  h.Set("workload", b.spec->name);
  h.Set("seed", b.args.seed);
  h.Set("commit", b.args.commit);
  h.Set("nproc", HardwareThreads());
  h.Set("simd_detected", SimdLevelName(DetectedSimdLevel()));
  h.Set("simd_active", SimdLevelName(ActiveSimdLevel()));
  h.Set("build_type", SRS_PERFBENCH_BUILD_TYPE);
  h.Set("service_threads", HardwareThreads());
  h.Set("clients", b.clients);
  h.Set("trace", b.args.trace);
  h.Set("nodes", b.graph.NumNodes());
  h.Set("edges", b.graph.NumEdges());
  h.Set("requests_warmup", static_cast<uint64_t>(b.run.warmup));
  h.Set("requests_measured",
        static_cast<uint64_t>(b.run.items.size() - b.run.warmup));
  h.Set("graph_generation_s", graph_s);
  h.Set("host_probe_before_ms", b.probe_before_ms);
  std::printf("header %s\n", h.Encode().c_str());
  std::fflush(stdout);
}

struct EndToEnd {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double delta_p50_ms = 0.0;
  size_t reads = 0;
  size_t deltas = 0;
  size_t attempted = 0;
  size_t failed = 0;
};

EndToEnd Summarize(const Run& run, const Pass& pass) {
  EndToEnd e;
  std::vector<double> reads, deltas;
  for (size_t i = 0; i < run.items.size(); ++i) {
    const Outcome& o = pass.outcomes[i];
    ++e.attempted;
    if (!o.ok) {
      ++e.failed;
      continue;
    }
    if (i < run.warmup) continue;
    (run.items[i].is_delta ? deltas : reads).push_back(o.latency_ms);
  }
  e.reads = reads.size();
  e.deltas = deltas.size();
  e.qps = static_cast<double>(reads.size() + deltas.size()) / pass.elapsed_s;
  e.p50_ms = Percentile(reads, 50);
  e.p90_ms = Percentile(reads, 90);
  e.delta_p50_ms = Percentile(deltas, 50);
  return e;
}

void ReportFailures(const Run& run, const Pass& pass, size_t mismatches,
                    const std::string& mismatch) {
  for (size_t i = 0; i < run.items.size(); ++i) {
    if (!pass.outcomes[i].ok) {
      std::fprintf(stderr, "item %zu failed: %s\n", i,
                   pass.outcomes[i].error.c_str());
      break;
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "%zu wrong answer(s); first: %s\n", mismatches,
                 mismatch.c_str());
  }
}

int RunEndToEnd(Bench& b) {
  Tracer off(false);
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int t = 0; t < kSetupTrials; ++t) {
    stack.reset();  // one stack alive at a time
    double setup_s = 0.0;
    Result<std::unique_ptr<Stack>> started = StartStack(
        b.graph, b.run, b.DataDir(std::to_string(t)), &setup_s, &off);
    if (!started.ok()) {
      std::fprintf(stderr, "setup: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    stack = started.MoveValueOrDie();
    setups.push_back(setup_s);
  }
  const Pass pass = RunPass(*stack, b.run, b.clients, false, &off);
  stack.reset();
  std::string mismatch;
  const size_t mismatches =
      CheckAnswers(b.graph, b.run, pass.outcomes, &mismatch);
  const double probe_after_ms = HostProbeMs();
  const EndToEnd e = Summarize(b.run, pass);
  const size_t failed = e.failed + mismatches;

  std::printf("setup trials (s):");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\nmeasured: %zu reads + %zu deltas in %.3f s; %zu answers "
              "checked, %zu wrong\n",
              e.reads, e.deltas, pass.elapsed_s,
              static_cast<size_t>(std::count(b.run.checked.begin(),
                                              b.run.checked.end(), true)),
              mismatches);
  std::printf("error_rate %.6f (%zu of %zu)  delta_p50_ms %.3f (%zu acks)  "
              "host.probe_ms before %.2f after %.2f\n",
              static_cast<double>(failed) / static_cast<double>(e.attempted),
              failed, e.attempted, e.delta_p50_ms, e.deltas,
              b.probe_before_ms, probe_after_ms);
  ReportFailures(b.run, pass, mismatches, mismatch);
  PrintResult(failed == 0, e.attempted, failed,
              {{"qps", e.qps, "1/s"},
               {"p50_ms", e.p50_ms, "ms"},
               {"p90_ms", e.p90_ms, "ms"},
               {"setup_s", Median(setups), "s"},
               {"peak_rss_mb", pass.peak_rss_mb, "MB"}});
  return failed == 0 ? 0 : 1;
}

int RunTraced(Bench& b) {
  Tracer off(false);
  Tracer tracer(true);
  double setup_s = 0.0;
  size_t attempted = 0, failed = 0;
  std::string mismatch;

  // 1. Untraced pass over TCP: the baseline of trace.overhead_pct.
  Result<std::unique_ptr<Stack>> started =
      StartStack(b.graph, b.run, b.DataDir("plain"), &setup_s, &off);
  if (!started.ok()) {
    std::fprintf(stderr, "setup: %s\n", started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Stack> stack = started.MoveValueOrDie();
  const Pass plain = RunPass(*stack, b.run, b.clients, false, &off);
  stack.reset();
  const EndToEnd plain_e2e = Summarize(b.run, plain);
  const size_t plain_mismatches =
      CheckAnswers(b.graph, b.run, plain.outcomes, &mismatch);
  ReportFailures(b.run, plain, plain_mismatches, mismatch);
  const size_t plain_failed = plain_e2e.failed + plain_mismatches;
  attempted += plain_e2e.attempted;
  failed += plain_failed;

  // 2. Traced pass over TCP: every query asks for the wire trace.
  started = StartStack(b.graph, b.run, b.DataDir("traced"), &setup_s,
                       &tracer);
  if (!started.ok()) {
    std::fprintf(stderr, "setup: %s\n", started.status().ToString().c_str());
    return 1;
  }
  stack = started.MoveValueOrDie();
  const Pass traced = RunPass(*stack, b.run, b.clients, true, &tracer);
  const std::shared_ptr<ResultCache> served_cache = stack->cache;
  stack.reset();
  const EndToEnd traced_e2e = Summarize(b.run, traced);
  mismatch.clear();
  const size_t mismatches =
      CheckAnswers(b.graph, b.run, traced.outcomes, &mismatch);
  ReportFailures(b.run, traced, mismatches, mismatch);
  attempted += traced_e2e.attempted;
  failed += traced_e2e.failed + mismatches;

  // 3-5. Layer by layer through direct calls.
  const std::shared_ptr<const GraphSnapshot> root =
      MakeGraphSnapshot(b.graph);
  Status direct = DirectReplay(b.graph, root, b.run, &tracer);
  DeltaInvalidationStats invalidated;
  if (direct.ok() && b.spec->deltas) {
    direct = ReplicaChain(b.graph, root, b.run, b.DataDir("replica"),
                          served_cache.get(), &tracer, &invalidated);
  }
  if (!direct.ok()) {
    std::fprintf(stderr, "direct replay: %s\n", direct.ToString().c_str());
    ++failed;
  }
  KernelLevels(*root, b.run, &tracer);
  SpmvTiming(*root, &tracer);
  const double probe_after_ms = HostProbeMs();

  // The traced pass's own observations, measured items only.
  std::vector<double> latency, admission, resolve, compute, decode;
  uint64_t levels_evaluated = 0, levels_total = 0;
  for (size_t i = b.run.warmup; i < b.run.items.size(); ++i) {
    const Outcome& o = traced.outcomes[i];
    if (!o.ok || b.run.items[i].is_delta) continue;
    latency.push_back(o.latency_ms);
    admission.push_back(o.admission_wait_ms);
    resolve.push_back(o.resolve_ms);
    compute.push_back(o.compute_ms);
    decode.push_back(o.decode_ms);
    levels_evaluated += static_cast<uint64_t>(o.levels_evaluated);
    levels_total += static_cast<uint64_t>(o.levels_total);
  }
  const std::vector<double> parse = tracer.DurationsMs("server.parse");
  const std::vector<double> encode = tracer.DurationsMs("server.encode");
  const double unaccounted = Mean(latency) - Mean(admission) -
                             Mean(resolve) - Mean(compute) - Mean(decode) -
                             Mean(parse) - Mean(encode);
  const Counters& before = traced.before;
  const Counters& after = traced.after;
  const auto diff = [](uint64_t a, uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double batches = diff(after.queue.batches, before.queue.batches);
  const double admitted = diff(after.queue.admitted, before.queue.admitted);
  const double rejected =
      diff(after.queue.overloaded + after.queue.closed + after.queue.expired,
           before.queue.overloaded + before.queue.closed +
               before.queue.expired);
  const double hits = diff(after.cache.hits, before.cache.hits);
  const double misses = diff(after.cache.misses, before.cache.misses);
  const auto med = [&tracer](const char* span) {
    return Median(tracer.DurationsMs(span));
  };

  const Status written = tracer.Write(b.args.out_dir + "/traces/" +
                                      b.spec->name + "-seed" +
                                      std::to_string(b.args.seed) +
                                      ".jsonl");
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    ++failed;
  }
  std::printf("traced: %zu reads + %zu deltas; untraced %.3f qps, traced "
              "%.3f qps\n",
              traced_e2e.reads, traced_e2e.deltas, plain_e2e.qps,
              traced_e2e.qps);
  PrintResult(
      failed == 0, attempted, failed,
      {
          {"server.parse_ms", Median(parse), "ms"},
          {"server.encode_ms", Median(encode), "ms"},
          {"server.decode_ms", Median(decode), "ms"},
          {"server.admission_wait_ms", Median(admission), "ms"},
          {"server.batch_sources", batches > 0 ? admitted / batches : 0.0,
           "count"},
          {"server.batches", batches, "count"},
          {"server.admitted", admitted, "count"},
          {"server.rejected", rejected, "count"},
          {"engine.query_ms", med("engine.query"), "ms"},
          {"engine.resolve_ms", Median(resolve), "ms"},
          {"engine.compute_ms", Median(compute), "ms"},
          {"engine.cache_hits", hits, "count"},
          {"engine.cache_misses", misses, "count"},
          {"engine.cache_hit_ratio",
           hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
          {"engine.engines_created",
           diff(after.service.engines_created,
                before.service.engines_created),
           "count"},
          {"engine.delta_ms", med("engine.delta"), "ms"},
          {"engine.derive_ms", med("engine.derive"), "ms"},
          {"engine.invalidate_ms", med("engine.invalidate"), "ms"},
          {"engine.rows_retained", static_cast<double>(invalidated.retained),
           "count"},
          {"engine.rows_evicted", static_cast<double>(invalidated.evicted),
           "count"},
          {"engine.deltas_applied",
           diff(after.service.deltas_applied, before.service.deltas_applied),
           "count"},
          {"core.levels_evaluated", static_cast<double>(levels_evaluated),
           "count"},
          {"core.levels_total", static_cast<double>(levels_total), "count"},
          {"core.level_ms", med("core.level"), "ms"},
          {"core.column_ms", med("core.column"), "ms"},
          {"matrix.spmv_ms", med("matrix.spmv"), "ms"},
          {"graph.apply_ms", med("graph.apply"), "ms"},
          {"storage.log_delta_ms", med("storage.log_delta"), "ms"},
          {"trace.unaccounted_ms", unaccounted, "ms"},
          {"trace.overhead_pct",
           100.0 * (1.0 - traced_e2e.qps / plain_e2e.qps), "%"},
          {"trace.qps_untraced", plain_e2e.qps, "1/s"},
          {"trace.qps_traced", traced_e2e.qps, "1/s"},
          {"error_rate",
           static_cast<double>(plain_failed) /
               static_cast<double>(plain_e2e.attempted),
           "ratio"},
          {"delta_p50_ms", plain_e2e.delta_p50_ms, "ms"},
          {"host.probe_before_ms", b.probe_before_ms, "ms"},
          {"host.probe_after_ms", probe_after_ms, "ms"},
      });
  return failed == 0 ? 0 : 1;
}

/// With one client the admission queue never holds two entries, so every
/// work count is a function of the sequence alone: two passes of the same
/// seed must agree exactly, and another seed must change the sequence.
int RunDeterminism(Bench& b) {
  Tracer off(false);
  struct Counts {
    uint64_t cache_hits = 0, levels_evaluated = 0, admitted = 0, batches = 0,
             deltas_applied = 0, engines_created = 0;
    bool operator==(const Counts&) const = default;
  };
  Counts counts[2];
  size_t attempted = 0, failed = 0;
  for (Counts& c : counts) {
    double setup_s = 0.0;
    Result<std::unique_ptr<Stack>> started =
        StartStack(b.graph, b.run, b.DataDir("det"), &setup_s, &off);
    if (!started.ok()) {
      std::fprintf(stderr, "setup: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Stack> stack = started.MoveValueOrDie();
    const Pass pass = RunPass(*stack, b.run, 1, false, &off);
    stack.reset();
    for (size_t i = b.run.warmup; i < b.run.items.size(); ++i) {
      c.levels_evaluated +=
          static_cast<uint64_t>(pass.outcomes[i].levels_evaluated);
    }
    c.cache_hits = pass.after.cache.hits - pass.before.cache.hits;
    c.admitted = pass.after.queue.admitted - pass.before.queue.admitted;
    c.batches = pass.after.queue.batches - pass.before.queue.batches;
    c.deltas_applied =
        pass.after.service.deltas_applied - pass.before.service.deltas_applied;
    c.engines_created = pass.after.service.engines_created -
                        pass.before.service.engines_created;
    const EndToEnd e = Summarize(b.run, pass);
    std::string mismatch;
    const size_t mismatches =
        CheckAnswers(b.graph, b.run, pass.outcomes, &mismatch);
    ReportFailures(b.run, pass, mismatches, mismatch);
    attempted += e.attempted;
    failed += e.failed + mismatches;
    std::printf("1 client: cache_hits %llu levels_evaluated %llu "
                "admitted %llu batches %llu deltas_applied %llu "
                "engines_created %llu\n",
                static_cast<unsigned long long>(c.cache_hits),
                static_cast<unsigned long long>(c.levels_evaluated),
                static_cast<unsigned long long>(c.admitted),
                static_cast<unsigned long long>(c.batches),
                static_cast<unsigned long long>(c.deltas_applied),
                static_cast<unsigned long long>(c.engines_created));
  }
  const size_t count = b.run.items.size();
  const uint64_t same =
      SequenceDigest(MakeSequence(*b.spec, b.args.seed, count));
  const uint64_t other =
      SequenceDigest(MakeSequence(*b.spec, b.args.seed + 1, count));
  const bool repeat = counts[0] == counts[1];
  const bool seeded = same == SequenceDigest(b.run.items) && same != other;
  std::printf("counts repeat: %s; sequence digest %016llx, seed+1 %016llx "
              "(%s)\n",
              repeat ? "yes" : "NO", static_cast<unsigned long long>(same),
              static_cast<unsigned long long>(other),
              seeded ? "differs" : "DOES NOT DIFFER");
  const bool correct = failed == 0 && repeat && seeded;
  const Counts& c = counts[0];
  PrintResult(correct, attempted, failed + (repeat ? 0 : 1) + (seeded ? 0 : 1),
              {{"engine.cache_hits", static_cast<double>(c.cache_hits),
                "count"},
               {"core.levels_evaluated",
                static_cast<double>(c.levels_evaluated), "count"},
               {"server.batch_sources",
                c.batches > 0 ? static_cast<double>(c.admitted) /
                                    static_cast<double>(c.batches)
                              : 0.0,
                "count"},
               {"server.batches", static_cast<double>(c.batches), "count"},
               {"server.admitted", static_cast<double>(c.admitted), "count"},
               {"engine.deltas_applied",
                static_cast<double>(c.deltas_applied), "count"},
               {"engine.engines_created",
                static_cast<double>(c.engines_created), "count"}});
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Bench b;
  if (!ParseArgs(argc, argv, &b.args)) {
    std::fprintf(stderr,
                 "usage: srs_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--determinism] [--out-dir DIR] "
                 "[--commit ID]\n");
    return 2;
  }
  for (const WorkloadSpec& w : Workloads()) {
    if (b.args.workload == w.name) b.spec = &w;
  }
  if (b.spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", b.args.workload.c_str());
    return 2;
  }
  b.clients = HardwareThreads();
  b.work_dir = b.args.out_dir + "/work-" + std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(b.work_dir, ec);
  fs::create_directories(b.args.out_dir + "/traces", ec);

  b.probe_before_ms = HostProbeMs();
  const auto t0 = Clock::now();
  Result<Graph> graph = CopyingModelGraph(kNodes, kAvgOutDegree,
                                          kCopyProbability,
                                          DeriveSeed(b.args.seed, 1));
  if (!graph.ok()) {
    std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  b.graph = graph.MoveValueOrDie();
  const double graph_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  b.run = MakeRun(*b.spec, b.args.seed, b.args.seconds);
  PrintHeader(b, graph_s);

  int code = 0;
  if (b.args.determinism) {
    code = RunDeterminism(b);
  } else if (b.args.trace) {
    code = RunTraced(b);
  } else {
    code = RunEndToEnd(b);
  }
  fs::remove_all(b.work_dir, ec);
  return code;
}
