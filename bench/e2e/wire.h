// The client side of the line protocol: a blocking connection for probes,
// admin verbs, and scrapes, and the load generator.
//
// The generator runs every read connection on the calling thread. In an
// open loop, arrivals are a seeded Poisson process at a fixed rate, spread
// round-robin over the connections; the thread blocks in ppoll until the
// next arrival is due or a reply arrives, so each reply is timestamped
// when it is read, and each latency runs from the request's *scheduled*
// send time (a late send is charged, never hidden). How late each send
// went out is recorded as the send lag. In a closed loop each connection
// keeps a fixed window of requests in flight. Every reply is checked
// byte-for-byte against the request pool's precomputed replies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.h"
#include "workload.h"

namespace useful::e2e {

class SpanLog;

/// Length of the complete framed reply ("OK <n>" plus n lines, or one
/// "ERR ..." line) at the front of `data`; 0 while it is incomplete. With
/// `header`, also returns the parsed header line (not ok for anything but
/// "OK <n>[ DEGRADED]").
std::size_t FrameLength(std::string_view data,
                        service::ResponseHeader* header = nullptr);

/// Payload lines of an "OK <n>" reply; empty for anything else.
std::vector<std::string> PayloadLines(std::string_view reply);

/// One blocking connection. Any transport failure ends the run (Fail).
class Client {
 public:
  explicit Client(std::uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `line` (without its newline) and returns the whole reply.
  std::string Call(std::string_view line);

 private:
  int fd_ = -1;
  std::string buf_;
};

struct PhaseResult {
  std::size_t sent = 0;
  std::size_t wrong = 0;     // OK reply matching no precomputed state
  std::size_t errors = 0;    // ERR reply
  std::size_t degraded = 0;  // OK ... DEGRADED reply
  std::size_t missing = 0;   // no reply by the drain deadline
  /// Correct replies read before the phase's scheduled end.
  std::size_t correct_in_window = 0;
  double seconds = 0.0;  // scheduled length
  /// Per reply: open loop from the scheduled send, closed loop from the
  /// actual send.
  std::vector<double> latency_us;
  /// Open loop: actual minus scheduled send time, per request.
  std::vector<double> lag_us;

  std::size_t failed() const { return wrong + errors + degraded + missing; }
  void Absorb(const PhaseResult& other);
};

class Generator {
 public:
  /// Opens `conns` connections to `port`. `pool` must outlive this.
  Generator(const RequestPool* pool, std::uint16_t port, std::size_t conns);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Open loop at `rate` requests/s for `seconds`, then drains. With
  /// `spans`, records a client.request span (scheduled send to reply)
  /// with a client.send_lag child per reply.
  PhaseResult OpenLoop(double rate, double seconds, std::uint64_t seed,
                       SpanLog* spans = nullptr);
  /// Closed loop, `window` requests in flight per connection.
  PhaseResult ClosedLoop(std::size_t window, double seconds,
                         std::uint64_t seed);

 private:
  struct Pending {
    std::int64_t due_ns;
    std::int64_t sent_ns;
    std::uint32_t index;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<Pending> pending;
  };

  PhaseResult Run(double rate, std::size_t window, double seconds,
                  std::uint64_t seed, SpanLog* spans);
  void Flush(Conn* c);

  const RequestPool* pool_;
  std::vector<Conn> conns_;
};

}  // namespace useful::e2e
