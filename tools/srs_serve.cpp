// srs_serve — long-lived similarity query server over an edge-list graph.
//
// Usage:
//   srs_serve --graph FILE [--port N] [--threads N] [--undirected]
//             [--damping C] [--iterations K | --epsilon E]
//             [--backend dense|sparse] [--prune-eps E]
//             [--cache-mb MB] [--max-batch N] [--max-pending N]
//             [--data-dir DIR] [--wal-max-mb MB]
//             [--metrics-port N] [--no-metrics]
//
// Loads the graph once, builds an SrsService over it, and serves the
// line-delimited JSON protocol of src/server/protocol.h on
// 127.0.0.1:--port (0, the default, picks an ephemeral port).
//
// With --data-dir the serving state is durable: applied deltas are
// written ahead to DIR/wal.log before they are served, and checkpoints
// (DIR/snapshot.srs) are cut when the in-memory chain compacts or the log
// outgrows --wal-max-mb. On restart with the same --data-dir, the server
// recovers from the snapshot + log tail — bit-identical to a process that
// never crashed — and --graph is only consulted when the directory is
// still empty (first start). The "stats" op reports what recovery did
// (recovered_from_disk, recovery_replayed_deltas, ...).
//
// The first stdout line is always
//
//   srs_serve listening on 127.0.0.1:<port>
//
// so scripts (and the CI smoke job) can discover the bound port. The
// flags above set the *serving defaults*; each query request may override
// the measure knobs per request (damping, iterations, top_k, backend, ...)
// and the server validates the merged options per request.
//
// Concurrent single-source queries with the same configuration are
// coalesced into engine batches by the admission queue (--max-batch caps
// sources per batch); --max-pending bounds the queue, and requests beyond
// it are rejected with "status":"overload" instead of queueing unbounded.
// The "apply_delta" op mutates the served graph copy-on-write and swaps
// the served version without dropping in-flight queries.
//
// --metrics-port N starts an HTTP exposition server on 127.0.0.1:N
// (0 = ephemeral; a second stdout line announces the bound port):
// /metrics is Prometheus text, /statusz is JSON, /healthz is a liveness
// probe. The "stats" wire op, --metrics-port, and the final stderr
// summary all read the same metrics registry. --no-metrics turns metric
// recording off entirely (the exposition server then shows frozen
// zeros).
//
// Shutdown: SIGINT/SIGTERM or the protocol "shutdown" op; either way the
// server stops admitting, answers everything already admitted, and exits
// 0 after printing a stats summary to stderr.
//
// Examples:
//   srs_serve --graph cit.txt --port 7474 --threads 8 --cache-mb 256
//   printf '{"op":"query","sources":[4],"top_k":5}\n' | nc 127.0.0.1 7474

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <string>
#include <thread>

#include "srs/common/json.h"
#include "srs/common/parallel.h"
#include "srs/common/string_util.h"
#include "srs/core/options.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/service.h"
#include "srs/graph/graph_io.h"
#include "srs/graph/stats.h"
#include "srs/observability/http_server.h"
#include "srs/observability/instruments.h"
#include "srs/observability/metrics.h"
#include "srs/server/server.h"

namespace {

struct CliOptions {
  std::string graph_path;
  std::string data_dir;
  int port = 0;
  int metrics_port = -1;  // -1 = no exposition server; 0 = ephemeral
  int cache_mb = 0;
  int wal_max_mb = 64;
  bool undirected = false;
  bool metrics = true;
  int max_batch = 64;
  int max_pending = 1024;
  srs::SimilarityOptions sim;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --graph FILE [--port N] [--threads N] [--undirected]\n"
      "          [--damping C] [--iterations K] [--epsilon E]\n"
      "          [--backend dense|sparse] [--prune-eps E]\n"
      "          [--cache-mb MB] [--max-batch N] [--max-pending N]\n"
      "          [--data-dir DIR] [--wal-max-mb MB]\n"
      "          [--metrics-port N] [--no-metrics]\n"
      "\n"
      "--graph may be omitted when --data-dir already holds recoverable\n"
      "state (snapshot + write-ahead log).\n"
      "--metrics-port serves /metrics (Prometheus text), /statusz (JSON),\n"
      "and /healthz on 127.0.0.1 (0 picks an ephemeral port);\n"
      "--no-metrics disables metric recording entirely.\n",
      argv0);
}

using srs::ParseDoubleFlag;
using srs::ParseIntFlag;

bool ParseCli(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--flag value" and "--flag=value" — the latter used to
    // fall through to "unknown flag".
    const char* inline_value = nullptr;
    if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = argv[i] + eq + 1;
        arg.resize(eq);
      }
    }
    auto next_value = [&]() -> const char* {
      if (inline_value != nullptr) return inline_value;
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--graph") {
      const char* v = next_value();
      if (v == nullptr) return false;
      options->graph_path = v;
    } else if (arg == "--port") {
      if (!ParseIntFlag("--port", next_value(), 0, 65535, &options->port)) {
        return false;
      }
    } else if (arg == "--threads") {
      int t = 0;
      if (!ParseIntFlag("--threads", next_value(), 0, 1 << 20, &t)) {
        return false;
      }
      options->sim.num_threads = t <= 0 ? srs::HardwareThreads() : t;
    } else if (arg == "--damping") {
      if (!ParseDoubleFlag("--damping", next_value(),
                           &options->sim.damping)) {
        return false;
      }
    } else if (arg == "--iterations") {
      if (!ParseIntFlag("--iterations", next_value(), 0, 1 << 30,
                        &options->sim.iterations)) {
        return false;
      }
    } else if (arg == "--epsilon") {
      if (!ParseDoubleFlag("--epsilon", next_value(),
                           &options->sim.epsilon)) {
        return false;
      }
    } else if (arg == "--backend") {
      const char* v = next_value();
      if (v == nullptr) return false;
      if (!srs::ParseKernelBackendKind(v, &options->sim.backend)) {
        std::fprintf(stderr, "unknown backend '%s' (dense|sparse)\n", v);
        return false;
      }
    } else if (arg == "--prune-eps") {
      if (!ParseDoubleFlag("--prune-eps", next_value(),
                           &options->sim.prune_epsilon)) {
        return false;
      }
    } else if (arg == "--cache-mb") {
      if (!ParseIntFlag("--cache-mb", next_value(), 0, 1 << 20,
                        &options->cache_mb)) {
        return false;
      }
    } else if (arg == "--max-batch") {
      if (!ParseIntFlag("--max-batch", next_value(), 1, 1 << 30,
                        &options->max_batch)) {
        return false;
      }
    } else if (arg == "--max-pending") {
      if (!ParseIntFlag("--max-pending", next_value(), 1, 1 << 30,
                        &options->max_pending)) {
        return false;
      }
    } else if (arg == "--data-dir") {
      const char* v = next_value();
      if (v == nullptr) return false;
      options->data_dir = v;
    } else if (arg == "--wal-max-mb") {
      if (!ParseIntFlag("--wal-max-mb", next_value(), 1, 1 << 20,
                        &options->wal_max_mb)) {
        return false;
      }
    } else if (arg == "--metrics-port") {
      if (!ParseIntFlag("--metrics-port", next_value(), 0, 65535,
                        &options->metrics_port)) {
        return false;
      }
    } else if (arg == "--no-metrics") {
      options->metrics = false;
    } else if (arg == "--undirected") {
      options->undirected = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  // --graph is optional exactly when a data directory can be recovered.
  const bool recoverable = !options->data_dir.empty() &&
                           srs::DurableStore::HasState(options->data_dir);
  return !options->graph_path.empty() || recoverable;
}

// SIGINT/SIGTERM set a flag the main loop polls; everything non-trivial
// (closing sockets, draining the queue) happens on ordinary threads.
volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseCli(argc, argv, &options)) {
    Usage(argv[0]);
    return 2;
  }

  // Before any instrumented work (recovery records replay counts): with
  // --no-metrics every record path reduces to one relaxed load.
  srs::SetMetricsEnabled(options.metrics);
  srs::RegisterProcessMemoryMetrics();

  srs::SrsServiceOptions service_options;
  service_options.similarity = options.sim;
  service_options.num_threads = options.sim.num_threads;
  service_options.data_dir = options.data_dir;
  service_options.wal_max_bytes = static_cast<uint64_t>(options.wal_max_mb)
                                  << 20;
  if (options.cache_mb > 0) {
    srs::ResultCacheOptions cache_options;
    cache_options.capacity_bytes = static_cast<size_t>(options.cache_mb)
                                   << 20;
    service_options.result_cache =
        std::make_shared<srs::ResultCache>(cache_options);
  }

  srs::Result<std::unique_ptr<srs::SrsService>> service =
      srs::Status::Internal("unreachable");
  if (!options.data_dir.empty() &&
      srs::DurableStore::HasState(options.data_dir)) {
    // Restart path: the snapshot + log tail reconstruct the served state
    // bit-identically; the edge list is not reread.
    service = srs::SrsService::Recover(service_options);
    if (service.ok()) {
      const srs::RecoveryInfo info = service.ValueOrDie()->recovery_info();
      std::fprintf(stderr,
                   "recovered %s: snapshot v%llu + %llu wal delta(s)%s%s -> "
                   "serving v%llu\n",
                   options.data_dir.c_str(),
                   static_cast<unsigned long long>(info.snapshot_version),
                   static_cast<unsigned long long>(info.replayed_deltas),
                   info.skipped_obsolete > 0 ? ", obsolete records skipped"
                                             : "",
                   info.wal_tail_truncated ? ", torn tail truncated" : "",
                   static_cast<unsigned long long>(
                       service.ValueOrDie()->ServedVersion()));
    }
  } else {
    srs::EdgeListOptions io;
    io.undirected = options.undirected;
    srs::Result<srs::Graph> loaded =
        srs::LoadEdgeList(options.graph_path, io);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %s: %s\n", options.graph_path.c_str(),
                 srs::StatsToString(srs::ComputeStats(loaded.ValueOrDie()))
                     .c_str());
    service =
        srs::SrsService::Create(loaded.MoveValueOrDie(), service_options);
  }
  if (!service.ok()) {
    std::fprintf(stderr, "error: %s\n", service.status().ToString().c_str());
    return 1;
  }

  srs::ServerOptions server_options;
  server_options.port = options.port;
  server_options.admission.max_batch_sources =
      static_cast<size_t>(options.max_batch);
  server_options.admission.max_pending =
      static_cast<size_t>(options.max_pending);
  srs::Result<std::unique_ptr<srs::SrsServer>> server =
      srs::SrsServer::Start(service.ValueOrDie().get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
    return 1;
  }

  // The discovery line scripts wait for; flushed so a piped reader sees it
  // immediately. The metrics line (if any) comes second, so "first line"
  // consumers are unaffected.
  std::printf("srs_serve listening on 127.0.0.1:%d\n",
              server.ValueOrDie()->port());
  std::fflush(stdout);

  std::unique_ptr<srs::MetricsHttpServer> metrics_http;
  if (options.metrics_port >= 0) {
    srs::MetricsHttpOptions http_options;
    http_options.port = options.metrics_port;
    http_options.statusz_extra = [service = service.ValueOrDie().get(),
                                  port = server.ValueOrDie()->port()] {
      srs::JsonValue extra = srs::JsonValue::MakeObject();
      extra.Set("server", "srs_serve");
      extra.Set("port", static_cast<int64_t>(port));
      extra.Set("served_version",
                static_cast<int64_t>(service->ServedVersion()));
      extra.Set("num_nodes", service->NumNodes());
      return extra;
    };
    srs::Result<std::unique_ptr<srs::MetricsHttpServer>> started =
        srs::MetricsHttpServer::Start(http_options);
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    metrics_http = started.MoveValueOrDie();
    std::printf("srs_serve metrics on 127.0.0.1:%d\n", metrics_http->port());
    std::fflush(stdout);
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0 && !server.ValueOrDie()->ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // The exposition server stops first: its polled closures read the
  // service and server, which are about to drain.
  if (metrics_http != nullptr) metrics_http->Stop();
  server.ValueOrDie()->RequestShutdown();
  server.ValueOrDie()->Wait();

  const srs::ServerStats stats = server.ValueOrDie()->Stats();
  const srs::AdmissionQueueStats queue = server.ValueOrDie()->QueueStats();
  std::fprintf(stderr,
               "srs_serve: %llu connection(s), %llu request(s), %llu ok, "
               "%llu error; %llu batch(es), %llu coalesced, %llu overload, "
               "%llu expired\n",
               static_cast<unsigned long long>(stats.connections),
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.responses_ok),
               static_cast<unsigned long long>(stats.responses_error),
               static_cast<unsigned long long>(queue.batches),
               static_cast<unsigned long long>(queue.coalesced),
               static_cast<unsigned long long>(queue.overloaded),
               static_cast<unsigned long long>(queue.expired));
  return 0;
}
