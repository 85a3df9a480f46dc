#include "service/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>

#include "util/clock.h"

namespace useful::service {

namespace {

// Complete request lines a reactor hands the offload pool per batch.
// Batching amortizes the reactor->pool->reactor handoff for pipelined
// clients while bounding how much rendered output one connection can
// buffer at a time.
constexpr std::size_t kMaxBatchLines = 128;

}  // namespace

Reactor::Reactor(Server* server, RequestHandler* handler, OffloadPool* pool,
                 const ServerOptions* options)
    : server_(server),
      handler_(handler),
      pool_(pool),
      options_(options),
      stats_(handler->mutable_stats()) {}

Reactor::~Reactor() {
  // Sockets adopted but never registered (Init failed, or the server shut
  // down before Run drained the inbox) still hold an open-connection slot.
  for (int fd : inbox_) {
    ::close(fd);
    server_->OnConnectionClaimed();
    server_->OnConnectionReleased();
  }
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status Reactor::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // sentinel: connection ids start at 1
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(eventfd): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void Reactor::Wake() {
  std::uint64_t one = 1;
  ssize_t ignored = ::write(event_fd_, &one, sizeof(one));
  (void)ignored;  // full counter still wakes the reader
}

void Reactor::DrainEventFd() {
  std::uint64_t value;
  while (::read(event_fd_, &value, sizeof(value)) > 0) {
  }
}

void Reactor::Adopt(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    inbox_.push_back(fd);
  }
  Wake();
}

void Reactor::NotifyNoMoreAdopts() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_done_ = true;
  }
  Wake();
}

void Reactor::PostCompletion(BatchResult result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    completions_.push_back(std::move(result));
  }
  Wake();
}

void Reactor::Run() {
  std::array<epoll_event, 64> events;
  for (;;) {
    if (!draining_ && server_->stopping()) {
      draining_ = true;
      BeginDrainAll();
    }
    if (draining_ && conns_.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (accepting_done_ && inbox_.empty() && completions_.empty()) break;
    }

    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), WaitTimeoutMs());
    stats_->Add(Stats::kEpollWakeups);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself broke; nothing recoverable
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == 0) {
        DrainEventFd();
        continue;
      }
      auto it = conns_.find(events[i].data.u64);
      if (it == conns_.end()) continue;
      Connection* conn = it->second.get();
      std::uint32_t ev = events[i].events;
      // EPOLLERR/EPOLLHUP are delivered regardless of interest; routing
      // them through the read path collects any bytes the kernel still
      // buffers, then observes the EOF or error.
      if (ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) conn->OnReadable();
      if (ev & EPOLLOUT) conn->OnWritable();
      Pump(conn);  // may erase the connection
    }
    DrainInbox();
    DrainCompletions();
    FireDeadlines(Clock::now());
  }
}

int Reactor::WaitTimeoutMs() const {
  int wait = options_->poll_interval_ms > 0 ? options_->poll_interval_ms : 50;
  if (!deadlines_.empty()) {
    auto now = Clock::now();
    auto top = deadlines_.top().first;
    if (top <= now) return 0;
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  top - now)
                  .count() +
              1;  // round up: never wake before the deadline
    if (ms < wait) wait = static_cast<int>(ms);
  }
  return wait;
}

void Reactor::DrainInbox() {
  for (;;) {
    int fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (inbox_.empty()) return;
      fd = inbox_.front();
      inbox_.pop_front();
    }
    server_->OnConnectionClaimed();
    if (draining_) {
      // Stopping: sockets that never got registered are dropped — they
      // have no requests in flight.
      ::close(fd);
      server_->OnConnectionReleased();
      continue;
    }
    RegisterAdopted(fd);
  }
}

void Reactor::RegisterAdopted(int fd) {
  std::uint64_t id = next_id_++;
  auto conn = std::make_unique<Connection>(fd, id, options_, stats_);
  epoll_event ev{};
  ev.events = conn->InterestMask();
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    server_->OnConnectionReleased();  // Connection dtor closes the fd
    return;
  }
  conn->registered_mask = ev.events;
  stats_->Add(Stats::kConnsOpened);
  ScheduleDeadline(conn.get());
  conns_.emplace(id, std::move(conn));
}

void Reactor::DrainCompletions() {
  for (;;) {
    BatchResult result;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (completions_.empty()) return;
      result = std::move(completions_.front());
      completions_.pop_front();
    }
    ApplyCompletion(std::move(result));
  }
}

void Reactor::ApplyCompletion(BatchResult result) {
  if (result.shutdown_server) server_->RequestStop();
  auto it = conns_.find(result.conn_id);
  if (it == conns_.end()) {
    // The connection died while its batch executed. The replies have no
    // destination, but the sampled traces still happened.
    for (const obs::Trace& t : result.traces) stats_->FinishTrace(t);
    return;
  }
  Connection* conn = it->second.get();
  conn->OnBatchComplete(std::move(result.rendered), std::move(result.traces),
                        result.close_connection);
  Pump(conn);
}

void Reactor::FireDeadlines(Clock::time_point now) {
  while (!deadlines_.empty() && deadlines_.top().first <= now) {
    auto [when, id] = deadlines_.top();
    deadlines_.pop();
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // the connection closed
    Connection* conn = it->second.get();
    if (conn->scheduled_deadline != when) continue;  // superseded entry
    conn->scheduled_deadline = Clock::time_point::max();
    // OnDeadline re-derives the deadline from current state, so an entry
    // made stale by later activity fires as a no-op and Pump re-arms it.
    conn->OnDeadline(now);
    Pump(conn);
  }
}

void Reactor::Pump(Connection* conn) {
  conn->Advance();
  if (!conn->ShouldClose() && conn->WantsDispatch()) Dispatch(conn);
  if (conn->ShouldClose()) {
    CloseConnection(conn->id());
    return;
  }
  UpdateInterest(conn);
  ScheduleDeadline(conn);
}

void Reactor::Dispatch(Connection* conn) {
  std::vector<std::string> lines = conn->TakeBatch(kMaxBatchLines);
  stats_->Add(Stats::kDispatches);
  stats_->Add(Stats::kDispatchedLines, lines.size());
  std::uint64_t id = conn->id();
  Clock::time_point submitted = Clock::now();
  pool_->Submit([this, id, submitted, lines = std::move(lines)]() mutable {
    ExecuteBatch(id, std::move(lines), submitted);
  });
}

void Reactor::ExecuteBatch(std::uint64_t conn_id,
                           std::vector<std::string> lines,
                           Clock::time_point submitted) {
  // Runs on an offload pool worker: touches only the service, the stats,
  // and the completion mailbox.
  std::uint64_t dispatch_us = util::MicrosSince(submitted);
  BatchResult result;
  result.conn_id = conn_id;
  for (const std::string& raw : lines) {
    std::string_view line(raw);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    obs::Trace trace(stats_->sampler()->Sample());
    trace.AddStageMicros(obs::Stage::kDispatch, dispatch_us);
    Reply reply = handler_->Execute(line, &trace);
    result.rendered += RenderReply(reply);
    if (trace.sampled()) {
      // The write stage is appended at flush time by the connection;
      // FinishTrace waits until then.
      result.traces.push_back(trace);
    }
    if (reply.shutdown_server) result.shutdown_server = true;
    if (reply.close_connection) {
      // A fatal reply ends the stream; later lines in the batch are dead
      // input, exactly as the old per-line loop broke on close.
      result.close_connection = true;
      break;
    }
  }
  PostCompletion(std::move(result));
}

void Reactor::CloseConnection(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  std::uint64_t lifetime_us = util::MicrosSince(it->second->opened());
  conns_.erase(it);  // closes the fd, which deregisters it from epoll
  server_->OnConnectionReleased();
  stats_->RecordConnectionClosed(lifetime_us);
}

void Reactor::UpdateInterest(Connection* conn) {
  std::uint32_t mask = conn->InterestMask();
  if (mask == conn->registered_mask) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.u64 = conn->id();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev) == 0) {
    conn->registered_mask = mask;
  }
}

void Reactor::ScheduleDeadline(Connection* conn) {
  // scheduled_deadline is max() when no entry is queued, and next is max()
  // when no deadline applies (a batch in flight), which keeps the entry.
  Clock::time_point next = conn->NextDeadline();
  if (conn->scheduled_deadline <= next) return;
  deadlines_.push({next, conn->id()});
  stats_->Add(Stats::kDeadlinePushes);
  conn->scheduled_deadline = next;
}

void Reactor::BeginDrainAll() {
  // Pump erases finished connections, so iterate over a snapshot of ids.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (std::uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    it->second->BeginDrain();
    Pump(it->second.get());
  }
}

}  // namespace useful::service
