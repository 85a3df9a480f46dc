// One reactor thread of the event-driven server core.
//
// Each Reactor owns an epoll instance, an eventfd for cross-thread
// wakeups, and the Connection state machines the acceptor handed it. Its
// loop is the classic shape: compute the earliest connection deadline,
// epoll_wait no longer than that (capped at poll_interval_ms so the stop
// flag stays observable), run the ready state machines, then drain the
// two mailboxes — adopted sockets from the acceptor and completed
// batches from the estimation offload pool.
//
// The deadlines sit on one earliest-deadline min-heap with at most one
// live entry per connection. A connection pushes only when it has no
// entry queued or its deadline comes before the queued one; a later
// deadline waits for the queued entry, which fires as a no-op and
// re-arms from the connection's current state. A busy keep-alive
// connection thus pushes about once per idle timeout, not once per
// request, and the heap holds about two entries per open connection
// plus those of connections closed within the last idle timeout.
//
// The reactor never executes a request. When a connection has complete
// lines buffered, the reactor carves a batch, stamps it, and submits one
// closure to the OffloadPool; the closure runs Service::Execute per line
// on a pool worker, renders the replies into one buffer, and posts a
// BatchResult back through PostCompletion + eventfd. A slow ROUTE
// therefore never blocks an epoll loop, and a reactor never blocks a
// sibling. Completions are routed by connection id — if the connection
// died while its batch executed (peer reset, deadline), the stale result
// is dropped and only its traces are finished.
//
// Threading: Run(), and everything reached from it, is single-threaded
// per reactor. Adopt / NotifyNoMoreAdopts / PostCompletion are the only
// cross-thread entry points; each takes the mailbox mutex and pokes the
// eventfd. PostCompletion outlives Run — the Server keeps every Reactor
// alive until the offload pool has drained, so a completion posted after
// a reactor exited is just an enqueue nobody reads.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "service/connection.h"
#include "service/handler.h"
#include "service/offload_pool.h"
#include "service/server.h"
#include "util/status.h"

namespace useful::service {

/// One executed batch, posted from a pool worker back to the owning
/// reactor: the rendered wire bytes for every reply, the sampled traces
/// awaiting their write stage, and the control effects of the batch.
struct BatchResult {
  std::uint64_t conn_id = 0;
  std::string rendered;
  std::vector<obs::Trace> traces;
  bool close_connection = false;
  bool shutdown_server = false;
};

class Reactor {
 public:
  using Clock = Connection::Clock;

  /// All pointers must outlive the reactor.
  Reactor(Server* server, RequestHandler* handler, OffloadPool* pool,
          const ServerOptions* options);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Creates the epoll instance and wakeup eventfd. Must succeed before
  /// Run() is started.
  Status Init();

  /// The reactor thread's body. Returns once the server is stopping, the
  /// acceptor has finished (NotifyNoMoreAdopts), and every connection has
  /// drained: buffered complete requests executed, replies flushed.
  void Run();

  /// Hands an accepted, non-blocking socket to this reactor. Thread-safe;
  /// called by the acceptor.
  void Adopt(int fd);

  /// Tells the reactor no further Adopt calls will come. Thread-safe;
  /// called after the accept loop returned.
  void NotifyNoMoreAdopts();

  /// Posts an executed batch back to the reactor. Thread-safe; called by
  /// offload pool workers.
  void PostCompletion(BatchResult result);

 private:
  void Wake();
  void DrainEventFd();
  void RegisterAdopted(int fd);
  void DrainInbox();
  void DrainCompletions();
  void ApplyCompletion(BatchResult result);
  void FireDeadlines(Clock::time_point now);
  int WaitTimeoutMs() const;
  /// Post-event settling for one connection: queue deferred work, dispatch
  /// a batch if one is ready, close if finished, then refresh epoll
  /// interest and the deadline heap. Every event path funnels through it.
  void Pump(Connection* conn);
  void Dispatch(Connection* conn);
  void ExecuteBatch(std::uint64_t conn_id, std::vector<std::string> lines,
                    Clock::time_point submitted);
  void CloseConnection(std::uint64_t id);
  void UpdateInterest(Connection* conn);
  void ScheduleDeadline(Connection* conn);
  void BeginDrainAll();

  Server* server_;
  RequestHandler* handler_;
  OffloadPool* pool_;
  const ServerOptions* options_;
  Stats* stats_;

  int epoll_fd_ = -1;
  int event_fd_ = -1;

  // --- Reactor-thread state (no locking) --------------------------------
  std::uint64_t next_id_ = 1;  // 0 is the eventfd's sentinel in data.u64
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  using DeadlineEntry = std::pair<Clock::time_point, std::uint64_t>;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_;
  bool draining_ = false;

  // --- Mailboxes (cross-thread, under mu_) ------------------------------
  std::mutex mu_;
  std::deque<int> inbox_;              // adopted sockets from the acceptor
  std::deque<BatchResult> completions_;  // executed batches from the pool
  bool accepting_done_ = false;
};

}  // namespace useful::service
