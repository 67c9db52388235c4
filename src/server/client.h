#pragma once

/// \file client.h
/// \brief Minimal blocking client for the srs_serve protocol.
///
/// One TCP connection, one request line out, one response line back —
/// exactly the conversational shape server/protocol.h defines. Used by the
/// server integration test, the closed-loop load generator
/// (bench/bench_serve.cpp), and scriptable from the quickstart; it is not
/// a connection pool and does not pipeline.
///
/// \code
///   SRS_ASSIGN_OR_RETURN(SrsClient client,
///                        SrsClient::Connect("127.0.0.1", port));
///   JsonValue request = JsonValue::MakeObject();
///   request.Set("op", "query");
///   ...
///   SRS_ASSIGN_OR_RETURN(JsonValue response, client.Call(request));
/// \endcode

#include <string>

#include "srs/common/json.h"
#include "srs/common/result.h"
#include "srs/server/line_io.h"

namespace srs {

/// \brief One blocking protocol connection.
class SrsClient {
 public:
  /// Connects to `host`:`port` (numeric IPv4, e.g. "127.0.0.1"). IoError
  /// on failure.
  static Result<SrsClient> Connect(const std::string& host, int port);

  SrsClient(SrsClient&& other) noexcept;
  SrsClient& operator=(SrsClient&& other) noexcept;
  SrsClient(const SrsClient&) = delete;
  SrsClient& operator=(const SrsClient&) = delete;
  ~SrsClient();

  /// Encodes `request`, sends it as one line, and parses the one response
  /// line. IoError on a broken connection (including server shutdown).
  Result<JsonValue> Call(const JsonValue& request);

  /// Raw line transport, for tests that speak malformed JSON on purpose.
  Status SendLine(const std::string& line);
  Result<std::string> ReadLine();

 private:
  explicit SrsClient(int fd) : fd_(fd), reader_(fd) {}

  int fd_ = -1;
  LineReader reader_;
};

}  // namespace srs
