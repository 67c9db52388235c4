#pragma once

/// \file protocol.h
/// \brief The srs_serve wire protocol: line-delimited JSON over TCP.
///
/// One request per line, one response line per request, in order. Every
/// request is a JSON object with an `"op"` and an optional `"id"` the
/// server echoes verbatim (clients use it to correlate when scripting):
///
///   {"op":"query","id":1,"measure":"gsr-star","sources":[7,42],"top_k":10}
///   {"op":"query","sources":[3],"damping":0.6,"deadline_ms":50}
///   {"op":"apply_delta","insert":[[0,5],[2,3]],"remove":[[1,4]]}
///   {"op":"stats"}
///   {"op":"shutdown"}
///
/// Query options (`damping`, `iterations`, `epsilon`, `top_k`, `backend`,
/// `prune_epsilon`, `topk_early_termination`, `version`) default to the
/// server's serving configuration; a request overrides only the fields it
/// names, and the merged options are validated by the same
/// SimilarityOptionsBuilder the library uses — a bad field fails the one
/// request with `"status":"invalid_request"` and the builder's message,
/// never the connection.
///
/// Responses always carry `"status"`:
///   * `"ok"` — with `"version"` (the graph version served), `"ranked"`,
///     and `"rows"` for queries; op-specific payload otherwise;
///   * `"invalid_request"` — malformed JSON, unknown op, or bad options;
///   * `"deadline_expired"` — the request's `deadline_ms` elapsed before
///     its batch was dispatched;
///   * `"overload"` — the admission queue was full; the request was
///     rejected without being queued (explicit backpressure);
///   * `"shutting_down"` — the server is draining and admits nothing new;
///   * `"internal_error"` — anything else.
///
/// This header is the codec only — parsing request lines into typed
/// structs and encoding responses — shared by the server, the in-repo
/// client, and the protocol tests. It does no I/O.

#include <string>
#include <utility>
#include <vector>

#include "srs/common/json.h"
#include "srs/common/result.h"
#include "srs/engine/service.h"

namespace srs {

/// Protocol status strings (the values of `"status"`).
inline constexpr const char* kStatusOk = "ok";
inline constexpr const char* kStatusInvalidRequest = "invalid_request";
inline constexpr const char* kStatusDeadlineExpired = "deadline_expired";
inline constexpr const char* kStatusOverload = "overload";
inline constexpr const char* kStatusShuttingDown = "shutting_down";
inline constexpr const char* kStatusInternalError = "internal_error";

/// \brief One parsed request line.
struct ProtocolRequest {
  enum class Op { kQuery, kApplyDelta, kStats, kShutdown };

  Op op = Op::kQuery;

  /// The request's `"id"`, echoed verbatim in the response (null when
  /// absent).
  JsonValue id;

  /// kQuery: the merged, validated request. `query.deadline` is unset —
  /// the server stamps the absolute deadline at admission from
  /// `deadline_ms`.
  QueryRequest query;

  /// kQuery: relative deadline budget in milliseconds; < 0 means none.
  double deadline_ms = -1.0;

  /// kApplyDelta: directed edges to insert / remove.
  std::vector<std::pair<NodeId, NodeId>> insert_edges;
  std::vector<std::pair<NodeId, NodeId>> remove_edges;
};

/// Parses a measure name ("gsr-star", "esr-star", "rwr").
Result<QueryMeasure> ParseMeasureName(const std::string& name);

/// Parses one request line. Query options merge over `defaults` and are
/// validated; errors are InvalidArgument with the offending field named.
Result<ProtocolRequest> ParseRequestLine(const std::string& line,
                                         const SimilarityOptions& defaults);

/// The protocol status string a failed library Status maps to.
const char* ProtocolStatusFor(const Status& status);

/// A minimal `{"id":..., "status":...}` response object to extend.
JsonValue MakeResponse(const JsonValue& id, const char* status);

/// An error response: MakeResponse plus `"error"`.
JsonValue MakeErrorResponse(const JsonValue& id, const char* status,
                            const std::string& message);

/// Encodes a successful query response (rows as scores or rankings).
JsonValue EncodeQueryResponse(const JsonValue& id,
                              const QueryResponse& response);

}  // namespace srs
