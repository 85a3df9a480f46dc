#include "service/connection.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "service/protocol.h"
#include "util/clock.h"

namespace useful::service {

namespace {

// Bound on recv() calls per readiness event: a peer firehosing bytes gets
// re-queued by level-triggered epoll instead of starving the reactor's
// other connections.
constexpr int kMaxReadsPerEvent = 4;

// Completion budget for a partially-written best-effort error line.
constexpr int kErrorLineBudgetMs = 20;

// Longest request line a connection buffers; a longer one is fatal.
constexpr std::size_t kMaxLineBytes = 1u << 16;

// Inbound capacity an idle connection may keep: well above one request
// line, so a client sending one line at a time keeps its buffer, while the
// buffer of a pipelined burst is given back.
constexpr std::size_t kIdleInboundBytes = 1024;

}  // namespace

bool SendErrorLine(int fd, const Status& status, int budget_ms) {
  std::string line = FormatErrorHeader(status);
  line.push_back('\n');
  const Connection::Clock::time_point deadline =
      Connection::Clock::now() + std::chrono::milliseconds(budget_ms);
  std::size_t sent = 0;
  while (sent < line.size()) {
    ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Nothing accepted yet: clean give-up, nothing on the wire. The peer
      // whose receive window is already full was not reading anyway.
      if (sent == 0) return false;
      // A prefix went out. Spend the small budget trying to complete the
      // line rather than leaving a torn "ERR Unavai" fragment.
      auto now = Connection::Clock::now();
      if (now >= deadline) return false;
      int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count());
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, wait_ms > 0 ? wait_ms : 1);
      continue;
    }
    return false;  // peer closed or hard error
  }
  return true;
}

Connection::Connection(int fd, std::uint64_t id, const ServerOptions* options,
                       Stats* stats)
    : fd_(fd),
      id_(id),
      options_(options),
      stats_(stats),
      opened_(Clock::now()),
      last_activity_(opened_) {}

Connection::~Connection() {
  // Traces still pending a flush when the connection dies (write error,
  // shutdown) are finished here so sampled requests never vanish from the
  // stage histograms.
  for (const obs::Trace& t : pending_traces_) stats_->FinishTrace(t);
  ::close(fd_);
}

std::uint32_t Connection::InterestMask() const {
  std::uint32_t mask = 0;
  // Backpressure: stop reading while more than a full request line is
  // already buffered; level-triggered epoll resumes delivery as soon as
  // dispatch drains the buffer and the mask is re-installed.
  if (!read_closed_ && !closing_ && in_.size() <= kMaxLineBytes) {
    mask |= EPOLLIN;
  }
  if (out_off_ < out_.size() && !closing_) mask |= EPOLLOUT;
  return mask;
}

void Connection::OnReadable() {
  if (read_closed_ || closing_) return;
  char chunk[8192];
  for (int reads = 0; reads < kMaxReadsPerEvent; ++reads) {
    if (in_.size() > kMaxLineBytes) break;  // backpressure
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      // Half-close: the peer finished sending but may still be reading.
      // Buffered complete requests are served and flushed before the
      // connection is torn down; a trailing partial line is discarded.
      read_closed_ = true;
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      closing_ = true;  // hard error: reclaim immediately
      return;
    }
    std::size_t old_size = in_.size();
    Clock::time_point now = Clock::now();
    in_.append(chunk, static_cast<std::size_t>(n));
    NoteAppended(old_size, now);
    last_activity_ = now;
    if (in_.size() - line_end_ > kMaxLineBytes) {
      // Overlong partial request line. Stop reading; the error reply is
      // queued once every complete request buffered ahead of it has been
      // served, preserving reply order.
      read_closed_ = true;
      overlong_ = true;
      return;
    }
  }
}

void Connection::NoteAppended(std::size_t old_size, Clock::time_point now) {
  bool had_partial = old_size > line_end_;
  std::size_t nl = in_.rfind('\n');
  bool chunk_has_nl = nl != std::string::npos && nl >= old_size;
  if (chunk_has_nl) line_end_ = nl + 1;
  // The request timer measures from the FIRST byte of the pending partial
  // line: it re-arms only when a partial appears where none was (fresh
  // partial after a newline, or the empty -> non-empty transition), so a
  // slow-loris writer trickling bytes cannot push the deadline out.
  if (in_.size() > line_end_ && (chunk_has_nl || !had_partial)) {
    partial_since_ = now;
  }
}

void Connection::OnWritable() {
  if (closing_) return;
  if (out_off_ < out_.size()) FlushOut();
}

bool Connection::WantsDispatch() const {
  return !closing_ && !in_flight_ && line_end_ > 0 &&
         out_off_ >= out_.size();
}

std::vector<std::string> Connection::TakeBatch(std::size_t max_lines) {
  std::vector<std::string> lines;
  lines.reserve(max_lines < 16 ? max_lines : 16);
  // Consumed-offset framing: carve every line with find('\n'), then
  // compact the buffer once. Erasing the head per line would make a
  // pipelined batch of n requests cost O(n^2) in memmoves.
  std::size_t consumed = 0;
  while (lines.size() < max_lines && consumed < line_end_) {
    std::size_t pos = in_.find('\n', consumed);
    lines.emplace_back(in_, consumed, pos - consumed);
    consumed = pos + 1;
  }
  in_.erase(0, consumed);
  line_end_ -= consumed;
  in_flight_ = true;
  last_activity_ = Clock::now();
  return lines;
}

void Connection::OnBatchComplete(std::string rendered,
                                 std::vector<obs::Trace> traces,
                                 bool close_after) {
  in_flight_ = false;
  pending_traces_ = std::move(traces);
  close_after_flush_ = close_after_flush_ || close_after;
  if (close_after_flush_) {
    // A fatal reply (QUIT, protocol violation) ends the stream: whatever
    // the peer pipelined after it is dead input, so stop reading now.
    read_closed_ = true;
  }
  out_ = std::move(rendered);
  out_off_ = 0;
  Clock::time_point now = Clock::now();
  write_start_ = now;
  if (options_->write_timeout_ms > 0) {
    write_deadline_ =
        now + std::chrono::milliseconds(options_->write_timeout_ms);
  }
  if (out_.empty()) {
    FinishFlush(now);  // batch of blank lines: nothing to write
    return;
  }
  FlushOut();
}

void Connection::FlushOut() {
  while (out_off_ < out_.size()) {
    ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    closing_ = true;  // peer closed or hard error; traces finish in dtor
    return;
  }
  FinishFlush(Clock::now());
}

void Connection::FinishFlush(Clock::time_point now) {
  // Release the flushed batch rather than keep its capacity: the next
  // batch brings its own buffer, so an idle connection pins none. With
  // nothing left to serve, an inbound buffer a burst grew goes too.
  std::string().swap(out_);
  out_off_ = 0;
  if (in_.empty() && in_.capacity() > kIdleInboundBytes) {
    std::string().swap(in_);
  }
  std::uint64_t write_us = util::MicrosSince(write_start_, now);
  for (obs::Trace& t : pending_traces_) {
    // The socket write is the one stage the service cannot see. Every
    // request in the batch shares the flush, so each gets the whole flush
    // time — an upper bound, same as the old per-request SendAll span
    // under pipelining.
    t.AddStageMicros(obs::Stage::kWrite, write_us);
    stats_->FinishTrace(t);
  }
  pending_traces_.clear();
  last_activity_ = now;
  if (close_after_flush_) closing_ = true;
}

void Connection::Advance() {
  if (overlong_ && !in_flight_ && out_off_ >= out_.size() && line_end_ == 0 &&
      !closing_) {
    overlong_ = false;
    Reply reply;
    reply.status = Status::InvalidArgument("request line too long");
    reply.close_connection = true;
    OnBatchComplete(RenderReply(reply), {}, /*close_after=*/true);
  }
}

Connection::DeadlineKind Connection::OnDeadline(Clock::time_point now) {
  if (closing_) return DeadlineKind::kNone;
  if (out_off_ < out_.size()) {
    if (options_->write_timeout_ms > 0 && now >= write_deadline_) {
      stats_->Add(Stats::kWriteTimeouts);
      // No error line: the peer is not draining writes by definition.
      closing_ = true;
      return DeadlineKind::kWrite;
    }
    return DeadlineKind::kNone;
  }
  if (in_flight_) return DeadlineKind::kNone;
  if (has_partial() && !read_closed_) {
    if (options_->request_timeout_ms > 0 &&
        now >= partial_since_ +
                   std::chrono::milliseconds(options_->request_timeout_ms)) {
      stats_->Add(Stats::kRequestTimeouts);
      SendErrorLine(fd_, Status::DeadlineExceeded("request timeout"),
                    kErrorLineBudgetMs);
      closing_ = true;
      return DeadlineKind::kRequest;
    }
    return DeadlineKind::kNone;
  }
  if (in_.empty() && !read_closed_) {
    if (options_->idle_timeout_ms > 0 &&
        now >= last_activity_ +
                   std::chrono::milliseconds(options_->idle_timeout_ms)) {
      stats_->Add(Stats::kIdleTimeouts);
      SendErrorLine(fd_, Status::DeadlineExceeded("idle timeout"),
                    kErrorLineBudgetMs);
      closing_ = true;
      return DeadlineKind::kIdle;
    }
  }
  return DeadlineKind::kNone;
}

Connection::Clock::time_point Connection::NextDeadline() const {
  constexpr auto kNever = Clock::time_point::max();
  if (closing_) return kNever;
  if (out_off_ < out_.size()) {
    return options_->write_timeout_ms > 0 ? write_deadline_ : kNever;
  }
  if (in_flight_) return kNever;
  if (has_partial() && !read_closed_) {
    return options_->request_timeout_ms > 0
               ? partial_since_ +
                     std::chrono::milliseconds(options_->request_timeout_ms)
               : kNever;
  }
  if (in_.empty() && !read_closed_) {
    return options_->idle_timeout_ms > 0
               ? last_activity_ +
                     std::chrono::milliseconds(options_->idle_timeout_ms)
               : kNever;
  }
  // Complete lines are buffered and dispatchable: the reactor dispatches
  // before it sleeps, so no deadline needs to cover this state.
  return kNever;
}

void Connection::BeginDrain() { read_closed_ = true; }

bool Connection::ShouldClose() const {
  if (closing_) return true;
  return read_closed_ && !overlong_ && !in_flight_ && line_end_ == 0 &&
         out_off_ >= out_.size();
}

}  // namespace useful::service
