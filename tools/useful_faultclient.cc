// useful_faultclient: a deliberately badly-behaved client for exercising
// the serving layer's hardening paths. Each mode injects one class of
// fault against a running useful_served and prints what the server did,
// so smoke scripts can assert the defense fired:
//
//   --mode halfopen   connect, send nothing, wait — expects the idle
//                     timeout to disconnect us ("closed ...").
//   --mode slowloris  trickle a request line one byte at a time without
//                     ever finishing it — expects the request timeout to
//                     cut us off mid-write.
//   --mode midclose   send half a request line and disconnect — the
//                     server must just reclaim the connection.
//   --mode flood      open --count concurrent idle connections at once —
//                     expects connections beyond the server's limits to
//                     be shed with "ERR Unavailable: overloaded ...".
//                     With --pipeline N the success criterion flips to
//                     the C10K one: every connection must be HELD (none
//                     shed or dropped), and while they all sit idle a
//                     fresh client pipelining N requests in one write
//                     must get N in-order OK answers — proof that idle
//                     connections cost the server no execution resources.
//
//   useful_faultclient --port P --mode M [--count N] [--delay-ms D]
//                      [--timeout-ms T] [--pipeline N]
//
// Exits 0 when the server exhibited the expected defense, 1 when it did
// not (e.g. a half-open peer was never disconnected), 2 on usage errors.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "service/protocol.h"
#include "util/flags.h"

namespace {

using Clock = std::chrono::steady_clock;

int Connect(const std::string& host, std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads until EOF or `timeout_ms`, appending to *out. Returns true when
/// the peer closed the connection within the deadline.
bool ReadUntilClose(int fd, int timeout_ms, std::string* out) {
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  char chunk[4096];
  for (;;) {
    int remaining = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now())
            .count());
    if (remaining <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, remaining);
    if (ready <= 0) continue;
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return true;  // EOF (or reset): server dropped us
    out->append(chunk, static_cast<std::size_t>(n));
  }
}

int RunHalfOpen(const std::string& host, std::uint16_t port,
                int timeout_ms) {
  int fd = Connect(host, port);
  if (fd < 0) {
    std::perror("connect");
    return 2;
  }
  Clock::time_point start = Clock::now();
  std::string received;
  bool closed = ReadUntilClose(fd, timeout_ms, &received);
  ::close(fd);
  if (!closed) {
    std::printf("halfopen: still connected after %d ms\n", timeout_ms);
    return 1;
  }
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - start)
                .count();
  std::printf("halfopen: closed by server after %lld ms (%s)\n",
              static_cast<long long>(ms),
              received.empty() ? "no data" : received.c_str());
  return 0;
}

int RunSlowLoris(const std::string& host, std::uint16_t port, int delay_ms,
                 int timeout_ms) {
  int fd = Connect(host, port);
  if (fd < 0) {
    std::perror("connect");
    return 2;
  }
  const std::string request = "ROUTE subrange 0.2 0 never finished";
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t written = 0;
  bool cut_off = false;
  // Never send the newline: keep the request eternally partial, one byte
  // per delay, looping over the body until the server gives up on us.
  while (Clock::now() < deadline) {
    char byte = request[written % request.size()];
    ssize_t n = ::send(fd, &byte, 1, MSG_NOSIGNAL);
    if (n <= 0) {
      cut_off = true;
      break;
    }
    ++written;
    std::string received;
    if (ReadUntilClose(fd, delay_ms, &received)) {
      std::printf("slowloris: closed by server after %zu bytes (%s)\n",
                  written, received.empty() ? "no data" : received.c_str());
      ::close(fd);
      return 0;
    }
  }
  ::close(fd);
  if (cut_off) {
    std::printf("slowloris: send failed after %zu bytes (reset)\n", written);
    return 0;
  }
  std::printf("slowloris: still connected after %d ms (%zu bytes)\n",
              timeout_ms, written);
  return 1;
}

int RunMidClose(const std::string& host, std::uint16_t port) {
  int fd = Connect(host, port);
  if (fd < 0) {
    std::perror("connect");
    return 2;
  }
  const char partial[] = "ROUTE subrange 0.2";  // no newline: mid-request
  (void)::send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL);
  ::close(fd);
  std::printf("midclose: sent partial request and disconnected\n");
  return 0;
}

/// Non-blocking probe of an idle connection: 0 = still held open,
/// 1 = shed ("overloaded" arrived), 2 = closed/errored some other way.
int ProbeIdle(int fd) {
  char buf[256];
  ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
  if (n > 0 &&
      std::string(buf, static_cast<std::size_t>(n)).find("overloaded") !=
          std::string::npos) {
    return 1;
  }
  return 2;
}

/// Sends `pipeline` ROUTE requests in one write and reads the replies.
/// Returns the number of in-order OK answers received before `timeout_ms`.
int RunPipelinedProbe(const std::string& host, std::uint16_t port,
                      int pipeline, int timeout_ms) {
  int fd = Connect(host, port);
  if (fd < 0) return 0;
  std::string batch;
  for (int i = 0; i < pipeline; ++i) {
    batch += "ROUTE subrange 0.1 0 football stadium\n";
  }
  std::size_t sent = 0;
  while (sent < batch.size()) {
    ssize_t n = ::send(fd, batch.data() + sent, batch.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return 0;
    }
    sent += static_cast<std::size_t>(n);
  }
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  useful::service::ReplyReader reader;
  useful::service::Reply reply;
  char chunk[8192];
  int answered = 0;
  while (answered < pipeline) {
    useful::Result<bool> next = reader.Next(&reply);
    if (!next.ok()) break;  // garbage: the probe failed
    if (next.value()) {
      if (!reply.status.ok()) break;  // ERR: the probe failed
      ++answered;
      continue;
    }
    int remaining = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now())
            .count());
    if (remaining <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, remaining) <= 0) continue;
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    reader.Feed(std::string_view(chunk, static_cast<std::size_t>(n)));
  }
  ::close(fd);
  return answered;
}

int RunFlood(const std::string& host, std::uint16_t port, int count,
             int pipeline, int timeout_ms) {
  std::vector<int> fds;
  for (int i = 0; i < count; ++i) {
    int fd = Connect(host, port);
    if (fd < 0) break;
    fds.push_back(fd);
  }

  if (pipeline > 0) {
    // C10K criterion: everyone is held, and the server still answers.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int shed = 0, dropped = 0, held = 0;
    std::vector<int> live;
    for (int fd : fds) {
      switch (ProbeIdle(fd)) {
        case 0:
          ++held;
          live.push_back(fd);
          break;
        case 1:
          ++shed;
          ::close(fd);
          break;
        default:
          ++dropped;
          ::close(fd);
          break;
      }
    }
    int answered = RunPipelinedProbe(host, port, pipeline, timeout_ms);
    // The idle fleet must have survived the whole probe, not just the
    // first 100 ms.
    int still_held = 0;
    for (int fd : live) {
      if (ProbeIdle(fd) == 0) ++still_held;
      ::close(fd);
    }
    std::printf(
        "flood: opened %zu shed %d dropped %d held %d still_held %d "
        "pipelined %d/%d\n",
        fds.size(), shed, dropped, held, still_held, answered, pipeline);
    bool ok = fds.size() == static_cast<std::size_t>(count) && shed == 0 &&
              dropped == 0 && still_held == count && answered == pipeline;
    return ok ? 0 : 1;
  }

  int shed = 0, dropped = 0, held = 0;
  for (int fd : fds) {
    std::string received;
    bool closed = ReadUntilClose(fd, timeout_ms, &received);
    if (received.find("overloaded") != std::string::npos) {
      ++shed;
    } else if (closed) {
      ++dropped;  // accepted, then idle-timed-out or drained at shutdown
    } else {
      ++held;  // still connected (accepted and within its idle budget)
    }
    ::close(fd);
  }
  std::printf("flood: opened %zu shed %d dropped %d held %d\n", fds.size(),
              shed, dropped, held);
  // The flood "succeeds" when the server pushed back on at least one
  // connection instead of queueing everything.
  return shed > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string mode;
  std::uint16_t port = 0;
  int count = 16;
  int delay_ms = 20;
  int timeout_ms = 10'000;
  int pipeline = 0;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Parses the flag's value strictly into `*out`, within its type's range.
    auto need_number = [&](const char* flag, auto* out) {
      *out = useful::util::ParseFlag<std::remove_pointer_t<decltype(out)>>(
          flag, need_value(flag));
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      host = need_value("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      need_number("--port", &port);
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      mode = need_value("--mode");
    } else if (std::strcmp(argv[i], "--count") == 0) {
      need_number("--count", &count);
    } else if (std::strcmp(argv[i], "--delay-ms") == 0) {
      need_number("--delay-ms", &delay_ms);
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      need_number("--timeout-ms", &timeout_ms);
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      need_number("--pipeline", &pipeline);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (port == 0 || mode.empty()) {
    std::fprintf(stderr,
                 "usage: useful_faultclient --port P --mode "
                 "halfopen|slowloris|midclose|flood [--host H] [--count N] "
                 "[--delay-ms D] [--timeout-ms T] [--pipeline N]\n");
    return 2;
  }

  if (mode == "halfopen") return RunHalfOpen(host, port, timeout_ms);
  if (mode == "slowloris") {
    return RunSlowLoris(host, port, delay_ms, timeout_ms);
  }
  if (mode == "midclose") return RunMidClose(host, port);
  if (mode == "flood") return RunFlood(host, port, count, pipeline, timeout_ms);
  std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
  return 2;
}
