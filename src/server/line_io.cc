#include "srs/server/line_io.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>
#include <cstring>

namespace srs {

Status LineReader::ReadLine(std::string* line) {
  while (true) {
    const size_t newline = buffer_.find('\n', scanned_);
    if ((newline != std::string::npos ? newline : buffer_.size()) >
        max_line_bytes_) {
      return Status::CapacityError("line longer than " +
                                   std::to_string(max_line_bytes_) +
                                   " bytes");
    }
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return Status::OK();
    }
    scanned_ = buffer_.size();
    char chunk[64 * 1024];
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got == 0) return Status::IoError("connection closed by peer");
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

Status WriteLine(int fd, std::string_view line) {
  char newline = '\n';
  iovec parts[2] = {{const_cast<char*>(line.data()), line.size()},
                    {&newline, 1}};
  msghdr msg{};
  msg.msg_iov = parts;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    // Drop what was sent: whole parts first, then a prefix of the next.
    size_t sent = static_cast<size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

}  // namespace srs
