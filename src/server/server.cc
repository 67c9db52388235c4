#include "srs/server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "srs/common/hashing.h"
#include "srs/observability/instruments.h"
#include "srs/observability/metrics.h"
#include "srs/server/line_io.h"

namespace srs {

namespace {

/// The coalescing key: measure × options digest × pinned version. Entries
/// agreeing on the key are exactly the ones one engine batch can serve.
uint64_t CoalescingKey(const QueryRequest& request) {
  const int tag = QueryMeasureTag(request.measure);
  uint64_t h = FnvHashCombine(kFnvOffsetBasis, static_cast<uint64_t>(tag));
  h = FnvHashCombine(h, ResultDigest(request.options, tag, request.version));
  return FnvHashCombine(h, request.version);
}

/// The `"id"` of a line ParseRequestLine rejected, so its error response
/// still echoes it: null unless the line is a JSON object carrying one.
JsonValue RejectedRequestId(const std::string& line) {
  Result<JsonValue> doc = ParseJson(line);
  if (!doc.ok() || !doc->is_object()) return JsonValue();
  const JsonValue* id = doc->Find("id");
  return id != nullptr ? *id : JsonValue();
}

}  // namespace

SrsServer::SrsServer(SrsService* service, const ServerOptions& options)
    : service_(service), options_(options), queue_(options.admission) {}

Result<std::unique_ptr<SrsServer>> SrsServer::Start(
    SrsService* service, const ServerOptions& options) {
  std::unique_ptr<SrsServer> server(new SrsServer(service, options));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind 127.0.0.1:" +
                           std::to_string(options.port) + ": " + err);
  }
  if (::listen(fd, 128) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);

  server->listen_fd_ = fd;
  server->port_ = static_cast<int>(ntohs(bound.sin_port));
  server->RegisterMetrics();
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  server->dispatch_thread_ =
      std::thread([s = server.get()] { s->DispatchLoop(); });
  return server;
}

SrsServer::~SrsServer() {
  RequestShutdown();
  Wait();
}

void SrsServer::RequestShutdown() {
  if (shutdown_requested_.exchange(true)) return;
  // Wake the blocking accept(); the fd itself is closed in Wait(), after
  // the accept thread has exited, so the descriptor cannot be reused
  // under it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  queue_.Close();
  // Read-shutdown every open connection: blocked ReadLine()s return EOF
  // once their current request (if any) has been answered and written.
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (int fd : open_fds_) ::shutdown(fd, SHUT_RD);
}

bool SrsServer::ShutdownRequested() const {
  return shutdown_requested_.load();
}

void SrsServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  // No new connection threads can start now (the accept loop is gone);
  // join whatever is left.
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void SrsServer::AcceptLoop() {
  while (!shutdown_requested_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or fatally broken): stop accepting
    }
    // Threads whose connections closed, joined outside the lock: a
    // joinable thread keeps its stack mapped until it is joined.
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (shutdown_requested_.load()) {
        ::close(fd);
        break;
      }
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.connections;
      }
      // Each id is present: a thread records itself under conn_mu_,
      // which was held while it was emplaced.
      for (std::thread::id id : finished_conns_) {
        auto it = std::find_if(
            conn_threads_.begin(), conn_threads_.end(),
            [id](const std::thread& t) { return t.get_id() == id; });
        finished.push_back(std::move(*it));
        *it = std::move(conn_threads_.back());
        conn_threads_.pop_back();
      }
      finished_conns_.clear();
      open_fds_.insert(fd);
      conn_threads_.emplace_back([this, fd] { HandleConnection(fd); });
    }
    for (std::thread& t : finished) t.join();
  }
}

void SrsServer::HandleConnection(int fd) {
  LineReader reader(fd, kMaxRequestLineBytes);
  std::string line;
  bool keep_going = true;
  while (keep_going) {
    const Status read = reader.ReadLine(&line);
    if (read.code() == StatusCode::kCapacityError) {
      // The rest of an over-long line cannot be framed: answer it once,
      // then close the connection.
      CountResponse(false);
      WriteLine(fd, MakeErrorResponse(JsonValue(), kStatusInvalidRequest,
                                      "request " + read.message())
                        .Encode());
    }
    if (!read.ok()) break;
    if (line.empty()) continue;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.requests;
    }
    Result<ProtocolRequest> parsed =
        ParseRequestLine(line, service_->default_similarity());
    if (!parsed.ok()) {
      CountResponse(false);
      WriteLine(fd, MakeErrorResponse(RejectedRequestId(line),
                                      kStatusInvalidRequest,
                                      parsed.status().message())
                        .Encode());
      continue;
    }
    keep_going = HandleRequest(fd, parsed.ValueOrDie());
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  open_fds_.erase(fd);
  ::close(fd);
  finished_conns_.push_back(std::this_thread::get_id());
}

bool SrsServer::HandleRequest(int fd, const ProtocolRequest& request) {
  switch (request.op) {
    case ProtocolRequest::Op::kQuery:
      HandleQuery(fd, request);
      return true;
    case ProtocolRequest::Op::kApplyDelta: {
      EdgeDelta::Builder builder;
      builder.Reserve(request.insert_edges.size() +
                      request.remove_edges.size());
      for (const auto& [u, v] : request.insert_edges) builder.Insert(u, v);
      for (const auto& [u, v] : request.remove_edges) builder.Remove(u, v);
      Result<EdgeDelta> delta = builder.Build(service_->NumNodes());
      if (!delta.ok()) {
        CountResponse(false);
        WriteLine(fd, MakeErrorResponse(request.id,
                                        ProtocolStatusFor(delta.status()),
                                        delta.status().message())
                          .Encode());
        return true;
      }
      Result<uint64_t> version = service_->ApplyDelta(delta.ValueOrDie());
      if (!version.ok()) {
        CountResponse(false);
        WriteLine(fd, MakeErrorResponse(request.id,
                                        ProtocolStatusFor(version.status()),
                                        version.status().message())
                          .Encode());
        return true;
      }
      JsonValue response = MakeResponse(request.id, kStatusOk);
      response.Set("version", version.ValueOrDie());
      CountResponse(true);
      WriteLine(fd, response.Encode());
      return true;
    }
    case ProtocolRequest::Op::kStats: {
      JsonValue response = MakeResponse(request.id, kStatusOk);
      // Sourced from the metrics registry — the same snapshot /metrics and
      // /statusz render — so the wire op can never drift from the
      // exposition endpoints. Start() registered every family below; the
      // field names predate the registry and stay wire-stable.
      const MetricsSnapshot snap = GlobalMetrics().Snapshot();
      const auto count = [&snap](const char* name) {
        return static_cast<uint64_t>(snap.ValueOf(name, 0.0));
      };
      JsonValue s = JsonValue::MakeObject();
      s.Set("connections", count("srs_server_connections_total"));
      s.Set("requests", count("srs_server_requests_total"));
      s.Set("responses_ok", count("srs_server_responses_ok_total"));
      s.Set("responses_error", count("srs_server_responses_error_total"));
      s.Set("admitted", count("srs_admission_admitted_total"));
      s.Set("overloaded", count("srs_admission_overloaded_total"));
      s.Set("expired", count("srs_admission_expired_total"));
      s.Set("batches", count("srs_admission_batches_total"));
      s.Set("coalesced", count("srs_admission_coalesced_total"));
      s.Set("max_batch_entries", count("srs_admission_max_batch_entries"));
      s.Set("queries", count("srs_service_queries_total"));
      s.Set("rows_served", count("srs_service_rows_served_total"));
      s.Set("engines_created", count("srs_service_engines_created_total"));
      s.Set("engines_reused", count("srs_service_engines_reused_total"));
      s.Set("deltas_applied", count("srs_service_deltas_applied_total"));
      s.Set("served_version", count("srs_service_served_version"));
      s.Set("num_nodes", count("srs_service_num_nodes"));
      s.Set("checkpoints", count("srs_service_checkpoints_total"));
      s.Set("wal_bytes", count("srs_service_wal_bytes"));
      s.Set("recovered_from_disk",
            snap.ValueOf("srs_recovery_from_disk", 0.0) != 0.0);
      s.Set("recovery_snapshot_version",
            count("srs_recovery_snapshot_version"));
      s.Set("recovery_replayed_deltas",
            count("srs_recovery_replayed_deltas"));
      s.Set("recovery_skipped_obsolete",
            count("srs_recovery_skipped_obsolete"));
      s.Set("recovery_wal_tail_truncated",
            snap.ValueOf("srs_recovery_wal_tail_truncated", 0.0) != 0.0);
      response.Set("stats", std::move(s));
      CountResponse(true);
      WriteLine(fd, response.Encode());
      return true;
    }
    case ProtocolRequest::Op::kShutdown: {
      CountResponse(true);
      WriteLine(fd, MakeResponse(request.id, kStatusOk).Encode());
      RequestShutdown();
      return false;
    }
  }
  return true;
}

void SrsServer::HandleQuery(int fd, ProtocolRequest request) {
  // Stamp at admission. Pinning kLatestVersion to the version served *now*
  // is what makes a concurrent delta swap safe: this request's batch key
  // names one exact version, so it either merged with pre-swap traffic or
  // with post-swap traffic — never both, and never a torn answer.
  if (request.query.version == kLatestVersion) {
    request.query.version = service_->ServedVersion();
  }
  if (request.deadline_ms >= 0) {
    request.query.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(request.deadline_ms));
  }

  AdmissionQueue::Entry entry;
  entry.key = CoalescingKey(request.query);
  entry.request = std::move(request.query);
  std::future<Result<QueryResponse>> future = entry.promise.get_future();

  switch (queue_.Submit(std::move(entry))) {
    case AdmissionQueue::Admit::kOverloaded:
      CountResponse(false);
      WriteLine(fd, MakeErrorResponse(request.id, kStatusOverload,
                                      "admission queue full")
                        .Encode());
      return;
    case AdmissionQueue::Admit::kClosed:
      CountResponse(false);
      WriteLine(fd, MakeErrorResponse(request.id, kStatusShuttingDown,
                                      "server is shutting down")
                        .Encode());
      return;
    case AdmissionQueue::Admit::kAdmitted:
      break;
  }

  Result<QueryResponse> result = future.get();
  if (!result.ok()) {
    CountResponse(false);
    WriteLine(fd, MakeErrorResponse(request.id,
                                    ProtocolStatusFor(result.status()),
                                    result.status().message())
                      .Encode());
    return;
  }
  CountResponse(true);
  WriteLine(fd, EncodeQueryResponse(request.id, result.ValueOrDie()).Encode());
}

void SrsServer::DispatchLoop() {
  std::vector<AdmissionQueue::Entry> batch;
  while (queue_.NextBatch(&batch)) {
    if (options_.dispatch_hook) options_.dispatch_hook(batch.size());
    const auto popped_at = std::chrono::steady_clock::now();
    // All entries share the coalescing key: one merged engine call, rows
    // scattered back by per-entry offsets.
    QueryRequest merged;
    merged.measure = batch[0].request.measure;
    merged.options = batch[0].request.options;
    merged.version = batch[0].request.version;
    for (const AdmissionQueue::Entry& entry : batch) {
      merged.sources.insert(merged.sources.end(),
                            entry.request.sources.begin(),
                            entry.request.sources.end());
      merged.collect_trace |= entry.request.collect_trace;
    }
    Result<QueryResponse> result = service_->Query(merged);
    const auto done_at = std::chrono::steady_clock::now();
    if (MetricsEnabled()) {
      Histogram* request_seconds = RequestSecondsHistogram();
      for (const AdmissionQueue::Entry& entry : batch) {
        request_seconds->Observe(
            std::chrono::duration<double>(done_at - entry.submitted_at)
                .count());
      }
    }
    if (!result.ok()) {
      for (AdmissionQueue::Entry& entry : batch) {
        entry.promise.set_value(result.status());
      }
      continue;
    }
    QueryResponse& combined = result.ValueOrDie();
    size_t offset = 0;
    for (AdmissionQueue::Entry& entry : batch) {
      QueryResponse response;
      response.version = combined.version;
      response.ranked = combined.ranked;
      response.engine_reused = combined.engine_reused;
      if (entry.request.collect_trace) {
        // The service stages (resolve/compute) describe the merged batch —
        // shared work is reported whole, not apportioned; the wait and
        // total are this entry's own.
        response.trace = combined.trace;
        response.trace.collected = true;
        response.trace.admission_wait_ms =
            std::chrono::duration<double, std::milli>(popped_at -
                                                      entry.submitted_at)
                .count();
        response.trace.batch_entries = batch.size();
        response.trace.batch_sources = merged.sources.size();
        response.trace.total_ms =
            std::chrono::duration<double, std::milli>(done_at -
                                                      entry.submitted_at)
                .count();
      }
      const size_t count = entry.request.sources.size();
      response.rows.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        response.rows.push_back(std::move(combined.rows[offset + i]));
      }
      offset += count;
      entry.promise.set_value(std::move(response));
    }
  }
}

void SrsServer::CountResponse(bool ok) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (ok) {
    ++stats_.responses_ok;
  } else {
    ++stats_.responses_error;
  }
}

size_t SrsServer::ConnectionThreads() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return conn_threads_.size();
}

ServerStats SrsServer::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void SrsServer::RegisterMetrics() {
  MetricsRegistry* reg = &GlobalMetrics();
  metrics_.Reset();
  struct Field {
    const char* name;
    const char* help;
    double (*get)(const ServerStats&);
  };
  static constexpr Field kCounters[] = {
      {"srs_server_connections_total", "TCP connections accepted",
       [](const ServerStats& s) {
         return static_cast<double>(s.connections);
       }},
      {"srs_server_requests_total",
       "Request lines parsed (well- or mal-formed)",
       [](const ServerStats& s) { return static_cast<double>(s.requests); }},
      {"srs_server_responses_ok_total", "Responses with status ok",
       [](const ServerStats& s) {
         return static_cast<double>(s.responses_ok);
       }},
      {"srs_server_responses_error_total", "Every other response",
       [](const ServerStats& s) {
         return static_cast<double>(s.responses_error);
       }},
  };
  for (const Field& field : kCounters) {
    metrics_.Add(reg, field.name, field.help, MetricType::kCounter, {},
                 [this, get = field.get] { return get(Stats()); });
  }
  queue_.RegisterMetrics(reg);
  service_->RegisterMetrics(reg);
}

AdmissionQueueStats SrsServer::QueueStats() const { return queue_.Stats(); }

}  // namespace srs
