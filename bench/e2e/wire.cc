#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <random>

#include "common.h"
#include "spans.h"

namespace useful::e2e {

namespace {

/// Replies still owed after the sending window closes get this long.
constexpr std::int64_t kDrainNs = 10'000'000'000;

int ConnectTo(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) Fail("socket: " + std::string(std::strerror(errno)));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail("connect to port " + std::to_string(port) + ": " +
         std::strerror(errno));
  }
  return fd;
}

}  // namespace

std::size_t FrameLength(std::string_view data,
                        service::ResponseHeader* header) {
  const std::size_t eol = data.find('\n');
  if (eol == std::string_view::npos) return 0;
  auto parsed = service::ParseResponseHeader(data.substr(0, eol));
  // A header that does not parse frames as one line, an error reply.
  service::ResponseHeader h = parsed.ok() ? std::move(parsed).value()
                                          : service::ResponseHeader{};
  std::size_t pos = eol + 1;
  for (std::size_t i = 0; h.ok && i < h.payload_lines; ++i) {
    const std::size_t next = data.find('\n', pos);
    if (next == std::string_view::npos) return 0;
    pos = next + 1;
  }
  if (header != nullptr) *header = std::move(h);
  return pos;
}

std::vector<std::string> PayloadLines(std::string_view reply) {
  std::vector<std::string> lines;
  service::ResponseHeader header;
  if (FrameLength(reply, &header) == 0 || !header.ok) return lines;
  std::size_t pos = reply.find('\n') + 1;
  for (std::size_t i = 0; i < header.payload_lines; ++i) {
    const std::size_t eol = reply.find('\n', pos);
    lines.emplace_back(reply.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

Client::Client(std::uint16_t port) : fd_(ConnectTo(port)) {
  timeval timeout{30, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

Client::~Client() { ::close(fd_); }

std::string Client::Call(std::string_view line) {
  std::string out(line);
  out.push_back('\n');
  for (std::size_t sent = 0; sent < out.size();) {
    ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Fail("send: " + std::string(std::strerror(errno)));
    sent += static_cast<std::size_t>(n);
  }
  for (;;) {
    if (std::size_t len = FrameLength(buf_); len > 0) {
      std::string reply = buf_.substr(0, len);
      buf_.erase(0, len);
      return reply;
    }
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Fail("recv: connection closed or timed out");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void PhaseResult::Absorb(const PhaseResult& o) {
  sent += o.sent;
  wrong += o.wrong;
  errors += o.errors;
  degraded += o.degraded;
  missing += o.missing;
  correct_in_window += o.correct_in_window;
  seconds += o.seconds;
  latency_us.insert(latency_us.end(), o.latency_us.begin(),
                    o.latency_us.end());
  lag_us.insert(lag_us.end(), o.lag_us.begin(), o.lag_us.end());
}

Generator::Generator(const RequestPool* pool, std::uint16_t port,
                     std::size_t conns)
    : pool_(pool), conns_(conns) {
  for (Conn& c : conns_) c.fd = ConnectTo(port);
}

Generator::~Generator() {
  for (Conn& c : conns_) ::close(c.fd);
}

PhaseResult Generator::OpenLoop(double rate, double seconds,
                                std::uint64_t seed, SpanLog* spans) {
  return Run(rate, 0, seconds, seed, spans);
}

PhaseResult Generator::ClosedLoop(std::size_t window, double seconds,
                                  std::uint64_t seed) {
  return Run(0.0, window, seconds, seed, nullptr);
}

void Generator::Flush(Conn* c) {
  while (c->out_off < c->out.size()) {
    ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                       c->out.size() - c->out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) Fail("send: " + std::string(std::strerror(errno)));
    c->out_off += static_cast<std::size_t>(n);
  }
  if (c->out_off == c->out.size()) {
    c->out.clear();
    c->out_off = 0;
  }
}

PhaseResult Generator::Run(double rate, std::size_t window, double seconds,
                           std::uint64_t seed, SpanLog* spans) {
  const bool open = rate > 0.0;
  // Wake on time: the default 50 µs timer slack would show up as send lag.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(open ? rate : 1.0);
  PhaseResult result;
  result.seconds = seconds;
  if (open) result.lag_us.reserve(static_cast<std::size_t>(rate * seconds));

  const std::int64_t start = NowNs() + (open ? 1'000'000 : 0);
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_due = start + static_cast<std::int64_t>(gap(rng) * 1e9);
  std::size_t next_conn = 0;
  std::size_t outstanding = 0;

  auto enqueue = [&](Conn& c, std::int64_t due, std::int64_t now) {
    std::uint32_t index = static_cast<std::uint32_t>(pool_->Sample(rng));
    c.out += pool_->lines[index];
    c.pending.push_back({due, now, index});
    ++outstanding;
    ++result.sent;
  };
  if (!open) {
    for (Conn& c : conns_) {
      for (std::size_t w = 0; w < window; ++w) enqueue(c, start, start);
    }
  }

  std::vector<pollfd> pfds(conns_.size());
  char chunk[65536];
  for (;;) {
    std::int64_t now = NowNs();
    if (open) {
      while (next_due <= now && next_due < end) {
        enqueue(conns_[next_conn], next_due, now);
        next_conn = (next_conn + 1) % conns_.size();
        result.lag_us.push_back(static_cast<double>(now - next_due) / 1e3);
        next_due += static_cast<std::int64_t>(gap(rng) * 1e9);
      }
    }
    for (Conn& c : conns_) Flush(&c);

    const bool sending = open ? next_due < end : now < end;
    if (!sending && outstanding == 0) break;
    if (!sending && now > end + kDrainNs) {
      result.missing += outstanding;
      for (Conn& c : conns_) c.pending.clear();
      break;
    }
    // Block until the next send is due (or the phase or drain ends) or a
    // reply arrives.
    const std::int64_t wake =
        sending ? (open ? next_due : end) : end + kDrainNs;
    std::int64_t wait_ns = std::max<std::int64_t>(0, wake - now);
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds[i].fd = conns_[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) Fail("ppoll failed");
    if (ready <= 0) continue;

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      Conn& c = conns_[i];
      if (pfds[i].revents & POLLOUT) Flush(&c);
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      for (;;) {
        ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) Fail("a server closed a load connection");
        c.in.append(chunk, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
      }
      const std::int64_t arrived = NowNs();
      std::size_t pos = 0;
      service::ResponseHeader header;
      while (std::size_t len =
                 FrameLength(std::string_view(c.in).substr(pos), &header)) {
        std::string_view reply(c.in.data() + pos, len);
        pos += len;
        if (c.pending.empty()) Fail("a reply nobody asked for");
        Pending p = c.pending.front();
        c.pending.pop_front();
        --outstanding;
        if (!header.ok) {
          ++result.errors;
        } else if (header.degraded) {
          ++result.degraded;
        } else if (!pool_->Matches(p.index, reply)) {
          ++result.wrong;
        } else if (arrived <= end) {
          ++result.correct_in_window;
        }
        const std::int64_t from = open ? p.due_ns : p.sent_ns;
        result.latency_us.push_back(static_cast<double>(arrived - from) / 1e3);
        if (spans != nullptr) {
          std::uint64_t id = spans->NewRequest();
          int root = spans->Add(id, "client.request", p.due_ns, arrived);
          spans->Add(id, "client.send_lag", p.due_ns, p.sent_ns, root);
        }
        if (!open && arrived < end) enqueue(c, arrived, arrived);
      }
      c.in.erase(0, pos);
    }
  }
  return result;
}

}  // namespace useful::e2e
