#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "service/connection.h"
#include "service/offload_pool.h"
#include "service/reactor.h"

namespace useful::service {

namespace {

// Completion budget for a shed error line whose first send only partially
// fit the socket buffer; see SendErrorLine.
constexpr int kShedErrorBudgetMs = 20;

// Pause after an fd-exhaustion accept() failure before retrying. Short
// enough that the stop flag is still observed promptly.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(100);

Status ErrnoStatus(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// accept() errno values that mean "out of descriptors or buffers": the
/// listen socket stays level-triggered readable, so retrying immediately
/// would spin a core without ever succeeding.
bool IsAcceptResourceError(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

}  // namespace

Server::Server(RequestHandler* handler, ServerOptions options)
    : handler_(handler), options_(std::move(options)) {}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status Server::Start() {
  if (listen_fd_ >= 0) return Status::FailedPrecondition("already started");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = ErrnoStatus("bind " + options_.host);
    ::close(fd);
    return s;
  }
  if (::listen(fd, options_.backlog) != 0) {
    Status s = ErrnoStatus("listen");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status s = ErrnoStatus("getsockname");
    ::close(fd);
    return s;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  return Status::OK();
}

Status Server::PublishPort(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return ErrnoStatus("cannot write port file " + tmp);
  Status s;
  if (std::fprintf(f, "%u\n", static_cast<unsigned>(port_)) < 0) {
    s = ErrnoStatus("cannot write port file " + tmp);
  }
  // fclose flushes the line, so a full disk fails here, not in fprintf.
  if (std::fclose(f) != 0 && s.ok()) {
    s = ErrnoStatus("cannot write port file " + tmp);
  }
  if (s.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    s = ErrnoStatus("cannot publish port file " + path);
  }
  if (!s.ok()) std::remove(tmp.c_str());
  return s;
}

Status Server::Serve() {
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition("Serve before Start");
  }
  // Construction order doubles as teardown insurance: the pool outlives
  // the reactors in scope, but it is explicitly drained BEFORE the
  // reactors are destroyed — a batch mid-execution holds a Reactor* for
  // its completion post.
  OffloadPool pool(options_.threads, handler_->mutable_stats());
  std::size_t num_reactors =
      options_.reactor_threads > 0 ? options_.reactor_threads : 1;
  std::vector<std::unique_ptr<Reactor>> reactors;
  reactors.reserve(num_reactors);
  for (std::size_t i = 0; i < num_reactors; ++i) {
    auto reactor =
        std::make_unique<Reactor>(this, handler_, &pool, &options_);
    Status s = reactor->Init();
    if (!s.ok()) {
      pool.Shutdown();
      return s;
    }
    reactors.push_back(std::move(reactor));
  }
  reactors_.clear();
  next_reactor_ = 0;
  for (const auto& reactor : reactors) reactors_.push_back(reactor.get());

  std::vector<std::thread> reactor_threads;
  reactor_threads.reserve(num_reactors);
  for (const auto& reactor : reactors) {
    reactor_threads.emplace_back([r = reactor.get()] { r->Run(); });
  }

  // Shutdown ordering: the accept loop, run on this thread, exits on the
  // stop flag; only then are the reactors told no more sockets will
  // arrive, so they can drain (serve buffered requests, flush, close) and
  // exit; only then is the pool drained, so every completion lands in a
  // still-alive reactor's mailbox (possibly unread — that is fine).
  AcceptLoop();
  for (const auto& reactor : reactors) reactor->NotifyNoMoreAdopts();
  for (std::thread& t : reactor_threads) t.join();
  pool.Shutdown();
  reactors_.clear();

  ::close(listen_fd_);
  listen_fd_ = -1;
  return Status::OK();
}

void Server::AcceptLoop() {
  Stats* stats = handler_->mutable_stats();
  int one = 1;
  pollfd pfd{listen_fd_, POLLIN, 0};
  while (!stopping()) {
    int ready = ::poll(&pfd, 1, options_.poll_interval_ms);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (IsAcceptResourceError(errno)) {
        stats->Add(Stats::kAcceptErrors);
        // The condition clears only when some connection closes; sleeping
        // cedes the core and bounds the retry rate.
        std::this_thread::sleep_for(kAcceptBackoff);
      }
      continue;
    }

    bool over_connections =
        options_.max_connections > 0 &&
        open_connections() >= options_.max_connections;
    bool over_queue =
        options_.max_accept_queue > 0 &&
        unclaimed_.load(std::memory_order_relaxed) >=
            options_.max_accept_queue;
    if (over_connections || over_queue) {
      stats->Add(Stats::kConnsShed);
      SendErrorLine(fd,
                    Status::Unavailable(
                        over_connections
                            ? "overloaded: connection limit reached"
                            : "overloaded: accept queue full"),
                    kShedErrorBudgetMs);
      ::close(fd);
      continue;
    }

    SetNonBlocking(fd);
    // Replies go out as one small send per batch; Nagle would pair with
    // the peer's delayed ACK and stall pipelined batches ~40 ms per
    // coalesce, so turn it off (request/response servers always do).
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    unclaimed_.fetch_add(1, std::memory_order_relaxed);
    reactors_[next_reactor_ % reactors_.size()]->Adopt(fd);
    ++next_reactor_;
  }
}

}  // namespace useful::service
