// Per-connection state machine for the epoll reactor core.
//
// A Connection owns one accepted socket and every byte of its lifecycle:
// the inbound buffer with the O(n) consumed-offset framing (complete
// lines are carved out per batch with a single compaction, never a
// per-line head erase), the outbound buffer with partial-write resume,
// and the three PR-3 deadlines re-expressed as *state-derived* deadlines
// instead of per-socket poll timeouts:
//
//   - write:   outbound bytes pending and the peer not draining them,
//              measured from the moment the reply was queued;
//   - request: a trailing partial request line pending, measured from the
//              arrival of its FIRST byte — a slow-loris writer trickling
//              bytes cannot reset it, because the timer only re-arms on
//              the empty -> non-empty transition of the partial;
//   - idle:    nothing buffered, nothing in flight, measured from the
//              last traffic.
//
// The owning Reactor asks NextDeadline() for the earliest applicable one
// (feeding its earliest-deadline heap), and calls OnDeadline() to fire
// it. Exactly one request batch is in flight at the offload pool per
// connection at a time, so replies stay in request order. The out buffer
// holds at most the one rendered batch being flushed and is released
// once it is, so an idle connection holds no reply bytes; an empty
// inbound buffer is released with it once a burst has grown it past
// about 1 KiB.
//
// All methods must be called from the connection's owning reactor thread;
// there is no internal locking.
#pragma once

#include <sys/epoll.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "service/handler.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/stats.h"

namespace useful::service {

/// Best-effort, all-or-nothing error line ("ERR <Code>: <msg>\n") for the
/// shed and timeout paths, where the peer may not be reading. The first
/// send is non-blocking: if the kernel takes nothing, nothing was torn
/// and we give up immediately. Only if the kernel accepted a strict
/// prefix (possible when the socket buffer has 1..len-1 free bytes) does
/// the call poll for writability, up to `budget_ms`, to finish the line
/// instead of leaving a torn fragment on the wire. Returns true iff the
/// complete line was sent.
bool SendErrorLine(int fd, const Status& status, int budget_ms);

class Connection {
 public:
  using Clock = std::chrono::steady_clock;

  /// Which deadline NextDeadline()/OnDeadline() currently tracks.
  enum class DeadlineKind { kNone, kIdle, kRequest, kWrite };

  /// Takes ownership of `fd` (closed by the destructor). `options` and
  /// `stats` must outlive the connection.
  Connection(int fd, std::uint64_t id, const ServerOptions* options,
             Stats* stats);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  std::uint64_t id() const { return id_; }
  Clock::time_point opened() const { return opened_; }

  /// Epoll interest right now: EPOLLIN while reading is useful and the
  /// inbound buffer is under the backpressure threshold, EPOLLOUT while
  /// outbound bytes are pending.
  std::uint32_t InterestMask() const;

  /// Drains recv until EAGAIN (bounded per call so one firehose peer
  /// cannot starve the reactor). Updates framing and deadline state.
  void OnReadable();

  /// Flushes pending outbound bytes; on completion finishes the batch's
  /// traces and re-arms idle tracking.
  void OnWritable();

  /// Fires the earliest expired deadline, if any: records the matching
  /// Stats counter, sends the best-effort ERR line (idle/request only —
  /// a write timeout means the peer is not reading), and marks the
  /// connection closing. Returns the kind fired, kNone if nothing
  /// expired.
  DeadlineKind OnDeadline(Clock::time_point now);

  /// Earliest applicable deadline, or Clock::time_point::max() when no
  /// deadline governs the current state (e.g. a batch is executing).
  Clock::time_point NextDeadline() const;

  /// True when a batch should be dispatched: at least one complete line
  /// is buffered, nothing is in flight, and the out buffer is drained.
  bool WantsDispatch() const;

  /// Carves up to `max_lines` complete lines (newline stripped) out of
  /// the inbound buffer with one compaction, and marks a batch in flight.
  std::vector<std::string> TakeBatch(std::size_t max_lines);

  bool batch_in_flight() const { return in_flight_; }

  /// Bytes the inbound buffer has room for (its std::string capacity).
  std::size_t inbound_capacity() const { return in_.capacity(); }

  /// Applies an executed batch: queues the rendered bytes, arms the write
  /// deadline, and attempts an immediate flush. `close_after` closes the
  /// connection once the reply is fully written (QUIT, fatal error).
  void OnBatchComplete(std::string rendered, std::vector<obs::Trace> traces,
                       bool close_after);

  /// Shutdown drain: stop reading; buffered complete requests still
  /// execute and flush, then the connection closes.
  void BeginDrain();

  /// Queues deferred work whose turn has come — today only the overlong
  /// request-line error, emitted once every request buffered ahead of the
  /// oversized partial has been served. Called by the reactor each pump.
  void Advance();

  /// True when the connection is done (error, EOF/drain with nothing left
  /// to serve, or a completed close-after-reply) and must be destroyed.
  bool ShouldClose() const;

  // --- Reactor bookkeeping (written by the owning reactor only) ---------
  /// Epoll interest last installed via epoll_ctl for this fd.
  std::uint32_t registered_mask = 0;
  /// The time of this connection's live entry on the reactor's deadline
  /// heap, or max() when there is none; any other entry of it is skipped.
  Clock::time_point scheduled_deadline = Clock::time_point::max();

 private:
  void NoteAppended(std::size_t old_size, Clock::time_point now);
  void FlushOut();
  void FinishFlush(Clock::time_point now);
  bool has_partial() const { return in_.size() > line_end_; }

  const int fd_;
  const std::uint64_t id_;
  const ServerOptions* options_;
  Stats* stats_;
  const Clock::time_point opened_;

  std::string in_;
  std::size_t line_end_ = 0;  // bytes of in_ covered by complete lines
  std::string out_;
  std::size_t out_off_ = 0;

  bool in_flight_ = false;
  bool read_closed_ = false;   // EOF, read error, or shutdown drain
  bool close_after_flush_ = false;
  bool closing_ = false;
  bool overlong_ = false;  // oversized partial line; error reply deferred

  Clock::time_point last_activity_;
  Clock::time_point partial_since_{};   // first byte of the trailing partial
  Clock::time_point write_deadline_{};  // armed while out_ is pending
  Clock::time_point write_start_{};

  std::vector<obs::Trace> pending_traces_;
};

}  // namespace useful::service
