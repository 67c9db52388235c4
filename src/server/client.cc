#include "srs/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace srs {

Result<SrsClient> SrsClient::Connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("connect " + host + ":" + std::to_string(port) +
                           ": " + err);
  }
  return SrsClient(fd);
}

SrsClient::SrsClient(SrsClient&& other) noexcept
    : fd_(other.fd_), reader_(std::move(other.reader_)) {
  other.fd_ = -1;
}

SrsClient& SrsClient::operator=(SrsClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    reader_ = std::move(other.reader_);
    other.fd_ = -1;
  }
  return *this;
}

SrsClient::~SrsClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status SrsClient::SendLine(const std::string& line) {
  return WriteLine(fd_, line);
}

Result<std::string> SrsClient::ReadLine() {
  std::string line;
  SRS_RETURN_NOT_OK(reader_.ReadLine(&line));
  return line;
}

Result<JsonValue> SrsClient::Call(const JsonValue& request) {
  SRS_RETURN_NOT_OK(SendLine(request.Encode()));
  SRS_ASSIGN_OR_RETURN(std::string line, ReadLine());
  return ParseJson(line);
}

}  // namespace srs
