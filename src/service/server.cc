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

Result<int> Server::CreateListenSocket(std::uint16_t port,
                                       std::uint16_t* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // SO_REUSEPORT must be set on EVERY socket of the group before its
  // bind — including the first, or the later binds fail with EADDRINUSE.
  if (options_.reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    Status s = ErrnoStatus("setsockopt SO_REUSEPORT");
    ::close(fd);
    return s;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
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
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

Status Server::Start() {
  if (listen_fd_ >= 0) return Status::FailedPrecondition("already started");
  auto fd = CreateListenSocket(options_.port, &port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = fd.value();
  return Status::OK();
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

  // Reuseport mode: one listen socket + one acceptor thread per reactor,
  // all bound to the same host:port. The Start() socket serves reactor 0;
  // the extras join its SO_REUSEPORT group here. Extra sockets close when
  // `extra_fds` leaves scope after the acceptors join.
  std::vector<int> extra_fds;
  if (options_.reuseport) {
    for (std::size_t i = 1; i < num_reactors; ++i) {
      std::uint16_t bound = 0;
      auto fd = CreateListenSocket(port_, &bound);
      if (!fd.ok()) {
        for (int extra : extra_fds) ::close(extra);
        pool.Shutdown();
        reactors_.clear();
        return fd.status();
      }
      extra_fds.push_back(fd.value());
    }
  }

  std::vector<std::thread> reactor_threads;
  reactor_threads.reserve(num_reactors);
  for (const auto& reactor : reactors) {
    reactor_threads.emplace_back([r = reactor.get()] { r->Run(); });
  }
  std::vector<std::thread> acceptors;
  if (options_.reuseport) {
    acceptors.reserve(num_reactors);
    acceptors.emplace_back(
        [this] { AcceptLoop(listen_fd_, /*reactor_index=*/0); });
    for (std::size_t i = 1; i < num_reactors; ++i) {
      int fd = extra_fds[i - 1];
      acceptors.emplace_back([this, fd, i] {
        AcceptLoop(fd, static_cast<std::ptrdiff_t>(i));
      });
    }
  } else {
    acceptors.emplace_back(
        [this] { AcceptLoop(listen_fd_, kRoundRobinAcceptor); });
  }

  // Shutdown ordering: the acceptors exit on the stop flag; only then are
  // the reactors told no more sockets will arrive, so they can drain
  // (serve buffered requests, flush, close) and exit; only then is the
  // pool drained, so every completion lands in a still-alive reactor's
  // mailbox (possibly unread — that is fine).
  for (std::thread& t : acceptors) t.join();
  for (int fd : extra_fds) ::close(fd);
  for (const auto& reactor : reactors) reactor->NotifyNoMoreAdopts();
  for (std::thread& t : reactor_threads) t.join();
  pool.Shutdown();
  reactors_.clear();

  ::close(listen_fd_);
  listen_fd_ = -1;
  return Status::OK();
}

void Server::AcceptLoop(int listen_fd, std::ptrdiff_t reactor_index) {
  Stats* stats = handler_->mutable_stats();
  int one = 1;
  pollfd pfd{listen_fd, POLLIN, 0};
  while (!stopping()) {
    int ready = ::poll(&pfd, 1, options_.poll_interval_ms);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (IsAcceptResourceError(errno)) {
        stats->Add(Stats::kAcceptErrors);
        // The condition clears only when some connection closes; sleeping
        // cedes the core and bounds the retry rate. Short enough that the
        // stop flag is still observed promptly.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.accept_backoff_ms));
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
    if (reactor_index >= 0) {
      // Reuseport: this acceptor is pinned to one reactor; the kernel's
      // listen-socket hashing already spread the load.
      reactors_[static_cast<std::size_t>(reactor_index)]->Adopt(fd);
    } else {
      reactors_[next_reactor_ % reactors_.size()]->Adopt(fd);
      ++next_reactor_;
    }
  }
}

}  // namespace useful::service
