#pragma once

/// \file line_io.h
/// \brief The '\n'-framed line transport of the srs_serve protocol, shared
/// by SrsServer and SrsClient.
///
/// Both directions carry lines of any length — a full score row at n = 1M
/// is a ~2 MB line — so neither side may cost more than O(line length):
/// the reader resumes its terminator search where the previous recv left
/// off, and the writer frames a line without copying it.

#include <string>
#include <string_view>

#include "srs/common/status.h"

namespace srs {

/// \brief Buffered reader of '\n'-terminated lines from a connected
/// socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Fills `*line` with the next line, without its '\n' and one trailing
  /// '\r'. IoError on end of stream or a recv failure.
  Status ReadLine(std::string* line);

 private:
  int fd_;
  std::string buffer_;
  size_t scanned_ = 0;  ///< buffer_[0, scanned_) holds no '\n'
};

/// Sends `line` followed by '\n', gathering both into each send so the
/// line is never copied. IoError on a broken connection.
Status WriteLine(int fd, std::string_view line);

}  // namespace srs
