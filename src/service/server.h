// Dependency-free TCP front end for service::Service.
//
// POSIX sockets only: Start() binds and listens (port 0 picks an
// ephemeral port, readable via port()), Serve() runs the event-driven
// core until QUIT or RequestStop(). The core is a small reactor fleet:
//
//   accept loop ──round-robin──▶ N reactor threads ──batches──▶
//     estimation offload pool ──completions (eventfd)──▶ reactors
//
// The accept loop runs on the thread that called Serve(). Each reactor
// (service::Reactor) owns an epoll instance and the per-connection state
// machines (service::Connection) the accept loop handed it; request
// execution happens on the offload pool (service::OffloadPool), so a slow
// ROUTE never blocks an epoll loop and ~10k mostly-idle keep-alive
// connections cost two file descriptors per reactor plus their own, not a
// thread each.
//
// Connection lifecycle: every accepted socket is non-blocking and lives
// under three deadlines — idle_timeout_ms (no request in progress, no
// bytes arriving), request_timeout_ms (a partial request line pending;
// trickling one byte at a time does NOT reset it, so slow-loris writers
// are cut off), and write_timeout_ms (the peer stops draining our
// replies). Deadlines live on each reactor's earliest-deadline heap, one
// live entry per connection, so a busy keep-alive connection pushes about
// once per idle timeout rather than once per request; the epoll_wait
// timeout is the time to the nearest one, capped at poll_interval_ms.
// Expired connections get a best-effort one-line ERR and are closed;
// each expiry increments a Stats counter rendered by STATS.
//
// Backpressure: the server sheds rather than queues unboundedly. A
// connection accepted while open connections >= max_connections or while
// >= max_accept_queue adopted sockets await reactor registration gets a
// single "ERR Unavailable: overloaded ..." line (all-or-nothing: a torn
// fragment is never left on the wire) and is closed immediately. accept()
// failures that signal fd exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) back
// off for 100 ms instead of hot-spinning on the level-triggered listen
// socket.
//
// Shutdown: a QUIT request or RequestStop() (e.g. from a SIGINT handler;
// it is a single atomic store, safe in signal context) stops the accept
// loop first, then every reactor drains — buffered complete requests
// still execute and their replies flush, idle connections drop — and
// finally the offload pool runs down its queue. Serve() returns once all
// of that finished.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/handler.h"
#include "util/status.h"

namespace useful::service {

class Reactor;

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;          // 0: OS-assigned ephemeral port
  std::size_t threads = 0;         // offload workers; 0 = one per allowed CPU
  std::size_t reactor_threads = 2;  // epoll event loops; 0 behaves as 1
  int backlog = 64;
  int poll_interval_ms = 50;       // stop-flag latency for blocked waits

  // --- Connection lifecycle (0 disables the corresponding limit) -------
  /// Close a connection with no request in progress after this long
  /// without traffic.
  int idle_timeout_ms = 60'000;
  /// Close a connection whose partial request line has been pending this
  /// long, measured from its first byte — slow writers cannot reset it.
  int request_timeout_ms = 10'000;
  /// Give up on a reply the peer has not drained within this long.
  int write_timeout_ms = 10'000;

  // --- Overload shedding (0 disables the corresponding limit) ----------
  /// Open connections (adopted or registered at a reactor) above which
  /// new arrivals are shed with an ERR line instead of adopted.
  std::size_t max_connections = 1024;
  /// Adopted sockets allowed to wait for reactor registration; arrivals
  /// beyond this are shed even below max_connections.
  std::size_t max_accept_queue = 256;
};

class Server {
 public:
  /// `handler` answers every request line (a local service::Service or a
  /// cluster::Frontend) and must outlive the server.
  Server(RequestHandler* handler, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates, binds, and listens on the socket. Must be called once,
  /// before Serve(); after it returns port() is the real port.
  Status Start();

  /// The bound port (valid after a successful Start()).
  std::uint16_t port() const { return port_; }

  /// Publishes port() as one line in the file `path`, for a process that
  /// waits for it. The line goes to `path`.tmp, which is then renamed onto
  /// `path`, so a reader never sees a partial file. A failed open, write,
  /// flush, close or rename returns an IOError naming the file and leaves
  /// no .tmp file behind.
  Status PublishPort(const std::string& path) const;

  /// Blocks serving connections until QUIT or RequestStop(), then drains
  /// and returns. Call from the thread that should own the serve loop's
  /// lifetime (typically main).
  Status Serve();

  /// Asks Serve() to wind down. Thread- and signal-safe.
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }

  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  /// Open connections: accepted and not yet closed (awaiting a reactor or
  /// registered at one). Sheds never count.
  std::size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

  // --- Reactor accounting (internal; called from reactor threads) -------

  /// A reactor pulled an adopted socket out of its inbox.
  void OnConnectionClaimed() {
    unclaimed_.fetch_sub(1, std::memory_order_relaxed);
  }
  /// An accepted connection's slot was released (registered one closed,
  /// or an adopted-but-never-registered socket was dropped at shutdown).
  void OnConnectionReleased() {
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  /// Serve()'s accept loop: accepts on listen_fd_ until stopping() and
  /// hands each socket to the next reactor in round-robin order.
  void AcceptLoop();

  RequestHandler* handler_;
  ServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> open_connections_{0};
  /// Adopted sockets not yet registered at their reactor; the accept-queue
  /// shed limit is enforced against this.
  std::atomic<std::size_t> unclaimed_{0};

  // Valid only while Serve() runs; the acceptor round-robins over it.
  std::vector<Reactor*> reactors_;
  std::size_t next_reactor_ = 0;
};

}  // namespace useful::service
