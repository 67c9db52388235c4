#pragma once

/// \file line_io.h
/// \brief The '\n'-framed line transport of the srs_serve protocol, shared
/// by SrsServer and SrsClient.
///
/// Responses carry lines of any length — a full score row at n = 1M is a
/// ~2 MB line, growing with n — so neither side may cost more than O(line
/// length): the reader resumes its terminator search where the previous
/// recv left off, and the writer frames a line without copying it. A
/// reader may cap the line length, which the server does for requests so
/// one client cannot grow its memory without bound.

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>

#include "srs/common/status.h"

namespace srs {

/// \brief Buffered reader of '\n'-terminated lines from a connected
/// socket.
class LineReader {
 public:
  /// Reads lines of at most `max_line_bytes` bytes before their '\n';
  /// the default leaves them unbounded.
  explicit LineReader(
      int fd, size_t max_line_bytes = std::numeric_limits<size_t>::max())
      : fd_(fd), max_line_bytes_(max_line_bytes) {}

  /// Fills `*line` with the next line, without its '\n' and one trailing
  /// '\r'. CapacityError, naming the limit, as soon as the line is known
  /// to be longer than the limit (having buffered at most one recv past
  /// it); the stream cannot be framed after that. IoError on end of
  /// stream or a recv failure.
  Status ReadLine(std::string* line);

 private:
  int fd_;
  size_t max_line_bytes_;
  std::string buffer_;
  size_t scanned_ = 0;  ///< buffer_[0, scanned_) holds no '\n'
};

/// Sends `line` followed by '\n', gathering both into each send so the
/// line is never copied. IoError on a broken connection.
Status WriteLine(int fd, std::string_view line);

}  // namespace srs
