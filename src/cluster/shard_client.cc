#include "cluster/shard_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace useful::cluster {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

void SetIoTimeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

TcpShardBackend::TcpShardBackend(Endpoint endpoint, TcpBackendOptions options)
    : endpoint_(std::move(endpoint)), options_(options) {}

TcpShardBackend::~TcpShardBackend() {
  if (fd_ >= 0) ::close(fd_);
}

Status TcpShardBackend::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint_.port);
  if (::inet_pton(AF_INET, endpoint_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad shard host: " + endpoint_.host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");

  // Non-blocking connect with a poll deadline, so an unreachable replica
  // costs connect_timeout_ms instead of the kernel's SYN-retry minutes.
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    Status s = ErrnoStatus("connect " + endpoint_.ToString());
    ::close(fd);
    return s;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, options_.connect_timeout_ms);
    if (ready <= 0) {
      ::close(fd);
      return Status::DeadlineExceeded("connect " + endpoint_.ToString() +
                                      ": timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      return Status::IOError("connect " + endpoint_.ToString() + ": " +
                             std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking; deadlines via timeouts
  SetIoTimeout(fd, options_.io_timeout_ms);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

Status TcpShardBackend::SendAll(std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::DeadlineExceeded("send " + endpoint_.ToString() +
                                      ": timed out");
    }
    return ErrnoStatus("send " + endpoint_.ToString());
  }
  return Status::OK();
}

Status TcpShardBackend::Send(const std::string& line) {
  if (fd_ >= 0) {
    // Bytes on a kept connection between requests mean the replica
    // closed it (see the header): reconnect instead of sending into it.
    pollfd pfd{fd_, POLLIN, 0};
    if (!reader_.empty() || ::poll(&pfd, 1, 0) != 0) {
      ::close(fd_);
      fd_ = -1;
      reader_ = service::ReplyReader();
    }
  }
  Status s = EnsureConnected();
  if (!s.ok()) return s;
  return SendAll(line + '\n');
}

Status TcpShardBackend::Receive(service::Reply* reply) {
  for (;;) {
    Result<bool> next = reader_.Next(reply);
    if (!next.ok() || next.value()) return next.status();
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      reader_.Feed(std::string_view(chunk, static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {
      return Status::IOError("recv " + endpoint_.ToString() +
                             ": connection closed");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("recv " + endpoint_.ToString() +
                                      ": timed out");
    }
    return ErrnoStatus("recv " + endpoint_.ToString());
  }
}

}  // namespace useful::cluster
