#pragma once

/// \file server.h
/// \brief srs_serve's TCP front door: line-delimited JSON over one
/// SrsService, with request coalescing and bounded admission.
///
/// Thread architecture — chosen so the engines' thread-compatibility is a
/// non-issue by construction:
///
///  * an **accept thread** turns each TCP connection into a connection
///    thread;
///  * **connection threads** parse request lines (server/protocol.h). A
///    query is stamped at admission — the served version is pinned (so a
///    mid-traffic delta swap can never produce a torn answer), the
///    relative `deadline_ms` becomes an absolute deadline, and the
///    coalescing key is derived — then submitted to the AdmissionQueue;
///    the thread blocks on the entry's future and writes the response
///    line. Everything else (apply_delta, stats, shutdown) executes
///    inline on the connection thread;
///  * one **dispatcher thread** drains the queue batch by batch
///    (server/admission_queue.h): each batch is same-configuration
///    entries merged into one engine call through SrsService::Query, and
///    the resulting rows are scattered back to the entries' futures.
///
/// Backpressure is explicit: a full queue rejects at admission with
/// `"status":"overload"` — clients see the rejection instead of
/// unbounded latency. Shutdown is graceful: admission closes, queued
/// entries drain, open connections are read-shutdown so their threads
/// finish, and `Wait()` returns once everything admitted was answered.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "srs/common/result.h"
#include "srs/engine/service.h"
#include "srs/server/admission_queue.h"
#include "srs/server/protocol.h"

namespace srs {

/// Longest request line a connection may send, in bytes before its
/// '\n'. The longest request in the repo is a ~3 MiB line (a stats op
/// with a 3 MiB id, tests/server_test.cpp); query and apply_delta lines
/// are a few hundred bytes. A longer line is answered with one
/// `invalid_request` naming the limit, and the connection is closed.
inline constexpr size_t kMaxRequestLineBytes = size_t{16} << 20;

/// Configuration of an SrsServer.
struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (see
  /// port()).
  int port = 0;

  /// Admission / coalescing policy.
  AdmissionQueueOptions admission;

  /// Test seam: when set, invoked on the dispatcher thread with the entry
  /// count of each popped batch, before the merged engine call. Service
  /// callbacks run outside the service lock and therefore cannot park the
  /// dispatcher, so backpressure tests create dispatcher occupancy here
  /// instead. Leave unset in production.
  std::function<void(size_t)> dispatch_hook;
};

/// Monotonic counters describing a server's traffic.
struct ServerStats {
  uint64_t connections = 0;     ///< connections accepted
  uint64_t requests = 0;        ///< request lines parsed (well- or mal-formed)
  uint64_t responses_ok = 0;    ///< responses with "status":"ok"
  uint64_t responses_error = 0; ///< every other response
};

/// \brief A running srs_serve instance over one SrsService.
class SrsServer {
 public:
  /// Binds 127.0.0.1:`options.port`, starts the accept and dispatcher
  /// threads, and begins serving `service` (not owned; must outlive the
  /// server). IoError when the socket cannot be bound.
  static Result<std::unique_ptr<SrsServer>> Start(
      SrsService* service, const ServerOptions& options = {});

  SrsServer(const SrsServer&) = delete;
  SrsServer& operator=(const SrsServer&) = delete;

  /// Requests shutdown and blocks until drained.
  ~SrsServer();

  /// The bound port (the ephemeral one when options.port was 0).
  int port() const { return port_; }

  /// Starts graceful shutdown: stop accepting, close admission, wake
  /// blocked connection reads. Idempotent; returns immediately — pair
  /// with Wait().
  void RequestShutdown();

  /// True once RequestShutdown() was called (by any path, including the
  /// protocol's "shutdown" op).
  bool ShutdownRequested() const;

  /// Blocks until every admitted request is answered and all threads have
  /// exited. Requires RequestShutdown() first (or concurrently).
  void Wait();

  /// Traffic counters.
  ServerStats Stats() const;

  /// Connection threads not yet joined: those of open connections plus
  /// those of connections closed since the last accept, which joins them.
  size_t ConnectionThreads() const;

  /// Admission/coalescing counters (the integration test reads
  /// `coalesced` to prove batches actually merged).
  AdmissionQueueStats QueueStats() const;

 private:
  /// Registers the server's traffic counters plus the queue's and
  /// service's metrics into the global registry; Start() calls it, so the
  /// `stats` op and any exposition endpoint read live values. The newest
  /// started server owns the families.
  void RegisterMetrics();
  SrsServer(SrsService* service, const ServerOptions& options);

  void AcceptLoop();
  void DispatchLoop();
  void HandleConnection(int fd);

  /// Handles one parsed request, writing the response line to `fd`.
  /// Returns false when the connection should close (shutdown op).
  bool HandleRequest(int fd, const ProtocolRequest& request);

  /// Stamps version/deadline/key, submits, waits, and writes the query
  /// response.
  void HandleQuery(int fd, ProtocolRequest request);

  void CountResponse(bool ok);

  SrsService* service_;
  ServerOptions options_;
  AdmissionQueue queue_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> shutdown_requested_{false};

  std::thread accept_thread_;
  std::thread dispatch_thread_;

  mutable std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;  // joined by AcceptLoop or Wait
  // Connection threads done serving, joined at the next accept.
  std::vector<std::thread::id> finished_conns_;
  std::unordered_set<int> open_fds_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
  PolledRegistration metrics_;
};

}  // namespace srs
