// Socket-level tests: a real service::Server on an ephemeral loopback
// port, driven by a raw TCP client. The heavy behavioral coverage lives
// in service_test.cc (socket-free); here we prove the wire layer —
// framing, concurrent connections, QUIT-driven shutdown, drain.
#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ir/search_engine.h"
#include "represent/builder.h"
#include "represent/serialize.h"
#include "service/connection.h"
#include "service/protocol.h"
#include "service/service.h"

namespace useful::service {
namespace {

/// Minimal blocking protocol client for tests.
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (tiny_rcvbuf_) {
      int bytes = 4096;  // kernel clamps to its minimum; small is enough
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool Send(const std::string& line) { return SendRaw(line + "\n"); }

  /// Sends bytes exactly as given — no newline appended, so tests can
  /// write partial requests and pipelined batches.
  bool SendRaw(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Shrinks the kernel receive buffer (before Connect) so a test can
  /// simulate a reader that stops draining the server's replies.
  void SetTinyReceiveBuffer() { tiny_rcvbuf_ = true; }

  /// Half-closes the write side: the server sees EOF after our request.
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Bounds every later receive (after Connect): a read that waits longer
  /// fails instead of blocking the test.
  void SetReceiveTimeoutMs(int ms) {
    timeval tv{ms / 1000, (ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        *line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Sends a request, returns the whole framed response (header first).
  std::vector<std::string> RoundTrip(const std::string& request) {
    std::vector<std::string> lines;
    if (!Send(request)) return lines;
    std::string header;
    if (!ReadLine(&header)) return lines;
    lines.push_back(header);
    auto parsed = ParseResponseHeader(header);
    if (!parsed.ok() || !parsed.value().ok) return lines;
    for (std::size_t i = 0; i < parsed.value().payload_lines; ++i) {
      std::string payload;
      if (!ReadLine(&payload)) break;
      lines.push_back(payload);
    }
    return lines;
  }

  /// True when the peer has closed (read returns EOF).
  bool WaitForClose() {
    std::string unused;
    return !ReadLine(&unused);
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool tiny_rcvbuf_ = false;
  std::string buffer_;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("useful_server_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);
    WriteRep("sports", {"football goal referee", "football stadium crowd"});
    WriteRep("science", {"quantum particle physics", "quantum entanglement"});

    ServiceOptions options;
    options.representative_paths = {(dir_ / "sports.rep").string(),
                                    (dir_ / "science.rep").string()};
    auto service = Service::Create(&analyzer_, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();

    ServerOptions server_options;
    server_options.threads = 4;
    StartServer(server_options);
  }

  void StartServer(ServerOptions server_options) {
    server_ = std::make_unique<Server>(service_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
    serve_thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
  }

  /// Tears the SetUp server down and starts one with custom lifecycle
  /// options — for the timeout/shed tests, which need tight deadlines.
  void RestartServer(ServerOptions server_options) {
    server_->RequestStop();
    serve_thread_.join();
    ASSERT_TRUE(serve_status_.ok()) << serve_status_.ToString();
    server_.reset();
    StartServer(std::move(server_options));
  }

  /// Spins until `predicate` holds, failing after `deadline_ms`.
  template <typename Fn>
  bool WaitFor(Fn predicate, int deadline_ms = 10'000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(deadline_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
  }

  void TearDown() override {
    server_->RequestStop();
    if (serve_thread_.joinable()) serve_thread_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void WriteRep(const std::string& name, std::vector<std::string> docs) {
    ir::SearchEngine engine(name, &analyzer_);
    int i = 0;
    for (const std::string& text : docs) {
      ASSERT_TRUE(engine.Add({name + "/d" + std::to_string(i++), text}).ok());
    }
    ASSERT_TRUE(engine.Finalize().ok());
    auto rep = represent::BuildRepresentative(engine);
    ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(represent::SaveRepresentative(
                    rep.value(), (dir_ / (name + ".rep")).string())
                    .ok());
  }

  text::Analyzer analyzer_;
  std::filesystem::path dir_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  Status serve_status_;
};

TEST_F(ServerTest, RouteOverTcpMatchesInProcessExecution) {
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  auto wire = client.RoundTrip("ROUTE subrange 0.1 0 football");
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire[0], "OK 1");

  auto direct = service_->Execute("ROUTE subrange 0.1 0 football");
  ASSERT_TRUE(direct.status.ok());
  ASSERT_EQ(wire.size(), 1u + direct.payload.size());
  for (std::size_t i = 0; i < direct.payload.size(); ++i) {
    EXPECT_EQ(wire[1 + i], direct.payload[i]);
  }
}

TEST_F(ServerTest, ErrorsAreFramedAsErr) {
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  auto wire = client.RoundTrip("NONSENSE");
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(wire[0].substr(0, 4), "ERR ");
  // The connection survives an error; the next request still works.
  auto stats = client.RoundTrip("STATS");
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].substr(0, 3), "OK ");
}

TEST_F(ServerTest, MultipleConcurrentConnections) {
  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client;
      if (!client.Connect(server_->port())) return;
      for (int i = 0; i < 20; ++i) {
        auto wire = client.RoundTrip(
            c % 2 == 0 ? "ROUTE subrange 0.1 0 football quantum"
                       : "ESTIMATE basic 0.2 quantum");
        if (wire.empty() || wire[0].substr(0, 3) != "OK ") return;
      }
      ok_count.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kClients);
  // 120 requests landed in the stats.
  EXPECT_GE(service_->stats().Get(Stats::kRequests), 120u);
}

TEST_F(ServerTest, QuitShutsTheServerDownCleanly) {
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  auto wire = client.RoundTrip("QUIT");
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(wire[0], "OK 0");
  EXPECT_TRUE(client.WaitForClose());
  serve_thread_.join();  // Serve() returns without RequestStop
  EXPECT_TRUE(serve_status_.ok());
  EXPECT_TRUE(server_->stopping());
}

TEST_F(ServerTest, OverlongRequestLineIsRejected) {
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  // Default max_line_bytes is 64 KiB; send 80 KiB without a newline.
  std::string big(80 * 1024, 'x');
  ASSERT_TRUE(client.Send(big));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.substr(0, 4), "ERR ");
  EXPECT_TRUE(client.WaitForClose());
}

TEST_F(ServerTest, PipelinedBatchInOneWriteIsServedInOrder) {
  // Many requests in a single send: the server must frame every reply and
  // keep them in request order (and the O(n) consumed-offset framing must
  // not regress correctness for batches).
  constexpr int kBatch = 200;
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  std::string batch;
  for (int i = 0; i < kBatch; ++i) {
    batch += i % 2 == 0 ? "ROUTE subrange 0.1 0 football\n"
                        : "ESTIMATE basic 0.2 quantum\n";
  }
  ASSERT_TRUE(client.SendRaw(batch));

  auto route = service_->Execute("ROUTE subrange 0.1 0 football");
  auto estimate = service_->Execute("ESTIMATE basic 0.2 quantum");
  ASSERT_TRUE(route.status.ok());
  ASSERT_TRUE(estimate.status.ok());
  for (int i = 0; i < kBatch; ++i) {
    const auto& expected = i % 2 == 0 ? route.payload : estimate.payload;
    std::string header;
    ASSERT_TRUE(client.ReadLine(&header)) << "response " << i;
    auto parsed = ParseResponseHeader(header);
    ASSERT_TRUE(parsed.ok()) << header;
    ASSERT_TRUE(parsed.value().ok) << header;
    ASSERT_EQ(parsed.value().payload_lines, expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
      std::string payload;
      ASSERT_TRUE(client.ReadLine(&payload));
      EXPECT_EQ(payload, expected[j]);
    }
  }
}

TEST_F(ServerTest, IdleConnectionIsClosedAfterIdleTimeout) {
  ServerOptions options;
  options.threads = 2;
  options.poll_interval_ms = 10;
  options.idle_timeout_ms = 150;
  RestartServer(options);

  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  // The server announces why before hanging up, then closes.
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(line.find("idle timeout"), std::string::npos) << line;
  EXPECT_TRUE(client.WaitForClose());
  EXPECT_GE(service_->stats().Get(Stats::kIdleTimeouts), 1u);
}

TEST_F(ServerTest, SlowLorisPartialRequestIsCutOff) {
  ServerOptions options;
  options.threads = 2;
  options.poll_interval_ms = 10;
  options.idle_timeout_ms = 10'000;   // idle is NOT what must fire
  options.request_timeout_ms = 200;
  RestartServer(options);

  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  ASSERT_TRUE(client.SendRaw("ROUTE subrange 0.2"));  // never a newline
  // Keep trickling bytes: each one refreshes last-activity but must NOT
  // push out the request deadline, which runs from the first byte.
  std::thread trickle([&client] {
    for (int i = 0; i < 100; ++i) {
      if (!client.SendRaw("x")) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(line.find("request timeout"), std::string::npos) << line;
  EXPECT_TRUE(client.WaitForClose());
  trickle.join();
  EXPECT_GE(service_->stats().Get(Stats::kRequestTimeouts), 1u);
  EXPECT_EQ(service_->stats().Get(Stats::kIdleTimeouts), 0u);
}

TEST_F(ServerTest, OverloadIsShedWithAnOverloadedError) {
  ServerOptions options;
  options.threads = 2;
  options.poll_interval_ms = 10;
  options.idle_timeout_ms = 10'000;
  options.max_connections = 2;
  // Queue bound left roomy: with a tight queue the second pinned
  // connection could itself be shed before a worker dequeues the first.
  options.max_accept_queue = 16;
  RestartServer(options);

  TestClient pinned1, pinned2;
  ASSERT_TRUE(pinned1.Connect(server_->port()));
  ASSERT_TRUE(pinned2.Connect(server_->port()));
  ASSERT_TRUE(WaitFor([&] { return server_->open_connections() >= 2; }));

  TestClient shed;
  ASSERT_TRUE(shed.Connect(server_->port()));
  std::string line;
  ASSERT_TRUE(shed.ReadLine(&line));
  EXPECT_EQ(line.substr(0, 4), "ERR ");
  EXPECT_NE(line.find("overloaded"), std::string::npos) << line;
  EXPECT_TRUE(shed.WaitForClose());
  EXPECT_GE(service_->stats().Get(Stats::kConnsShed), 1u);
  // The pinned connections were never disturbed.
  auto wire = pinned1.RoundTrip("ROUTE subrange 0.1 0 football");
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire[0].substr(0, 3), "OK ");
}

TEST_F(ServerTest, IdlePeersNeverBlockANewcomerAndStillTimeOut) {
  // The acceptance scenario, reactor edition: far more idle peers than
  // offload workers pin no execution resource at all, so a well-behaved
  // newcomer is answered immediately — and the idle peers are still
  // reaped by the deadline heap on schedule.
  ServerOptions options;
  options.threads = 2;
  options.reactor_threads = 2;
  options.poll_interval_ms = 10;
  options.idle_timeout_ms = 200;
  RestartServer(options);

  constexpr std::size_t kIdlers = 8;
  std::vector<TestClient> idlers(kIdlers);
  for (TestClient& idler : idlers) {
    ASSERT_TRUE(idler.Connect(server_->port()));
  }
  ASSERT_TRUE(
      WaitFor([&] { return server_->open_connections() >= kIdlers; }));

  TestClient newcomer;
  ASSERT_TRUE(newcomer.Connect(server_->port()));
  auto wire = newcomer.RoundTrip("ROUTE subrange 0.1 0 football");
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire[0].substr(0, 3), "OK ");
  // Served well before any idle deadline could have reclaimed a peer.
  EXPECT_EQ(service_->stats().Get(Stats::kIdleTimeouts), 0u);

  ASSERT_TRUE(WaitFor(
      [&] {
        return service_->stats().Get(Stats::kIdleTimeouts) >= kIdlers;
      },
      2000));
  for (TestClient& idler : idlers) {
    std::string line;
    ASSERT_TRUE(idler.ReadLine(&line));
    EXPECT_EQ(line.substr(0, 3), "ERR") << line;
    EXPECT_TRUE(idler.WaitForClose());
  }
}

TEST_F(ServerTest, MidRequestDisconnectLeavesServerHealthy) {
  {
    TestClient aborter;
    ASSERT_TRUE(aborter.Connect(server_->port()));
    ASSERT_TRUE(aborter.SendRaw("ROUTE subrange 0.1 0 foot"));
    aborter.Close();  // mid-request disconnect
  }
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  auto wire = client.RoundTrip("ROUTE subrange 0.1 0 football");
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire[0].substr(0, 3), "OK ");
}

TEST_F(ServerTest, HalfClosedPeerStillGetsItsReply) {
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  ASSERT_TRUE(client.Send("ROUTE subrange 0.1 0 football"));
  client.ShutdownWrite();  // EOF after the request
  std::string header;
  ASSERT_TRUE(client.ReadLine(&header));
  auto parsed = ParseResponseHeader(header);
  ASSERT_TRUE(parsed.ok()) << header;
  EXPECT_TRUE(parsed.value().ok);
  for (std::size_t i = 0; i < parsed.value().payload_lines; ++i) {
    std::string payload;
    ASSERT_TRUE(client.ReadLine(&payload));
  }
  EXPECT_TRUE(client.WaitForClose());
}

TEST_F(ServerTest, StuckReaderIsDroppedByWriteTimeout) {
  ServerOptions options;
  options.threads = 2;
  options.poll_interval_ms = 10;
  options.idle_timeout_ms = 30'000;
  options.request_timeout_ms = 30'000;
  options.write_timeout_ms = 300;
  RestartServer(options);

  TestClient client;
  client.SetTinyReceiveBuffer();
  ASSERT_TRUE(client.Connect(server_->port()));
  // Pipeline far more STATS output than the socket buffers can hold and
  // never read a byte: the server's send must eventually block, hit the
  // write deadline, and reclaim the worker. The client's send may itself
  // fail once the server drops the connection — that is the point.
  std::string batch;
  for (int i = 0; i < 20'000; ++i) batch += "STATS\n";
  (void)client.SendRaw(batch);
  EXPECT_TRUE(WaitFor(
      [&] { return service_->stats().Get(Stats::kWriteTimeouts) >= 1u; },
      30'000));
}

TEST_F(ServerTest, MetricsScrapeOverTcpIsMonotoneAndCleanlyFramed) {
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // Scrapes METRICS, checking framing and exposition shape, and collects
  // the samples by series name.
  auto scrape = [&](std::map<std::string, double>* samples) {
    std::vector<std::string> lines = client.RoundTrip("METRICS");
    ASSERT_GE(lines.size(), 2u);
    auto header = ParseResponseHeader(lines[0]);
    ASSERT_TRUE(header.ok()) << lines[0];
    ASSERT_TRUE(header.value().ok) << lines[0];
    ASSERT_EQ(lines.size(), header.value().payload_lines + 1);
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      ASSERT_FALSE(line.empty()) << "blank payload line " << i;
      EXPECT_EQ(line.find('\r'), std::string::npos) << line;
      if (line.rfind("# ", 0) == 0) continue;
      std::size_t sp = line.rfind(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      char* end = nullptr;
      double value = std::strtod(line.c_str() + sp + 1, &end);
      ASSERT_EQ(*end, '\0') << "non-numeric sample: " << line;
      (*samples)[line.substr(0, sp)] = value;
    }
  };

  std::map<std::string, double> first;
  scrape(&first);
  if (HasFatalFailure()) return;
  EXPECT_EQ(first.count("useful_requests_total"), 1u);
  EXPECT_EQ(
      first.count("useful_stage_latency_seconds_count{stage=\"write\"}"), 1u);
  EXPECT_EQ(
      first.count("useful_command_requests_total{command=\"route\"}"), 1u);

  for (int i = 0; i < 10; ++i) {
    ASSERT_FALSE(
        client.RoundTrip("ROUTE subrange 0.0 0 football quantum").empty());
  }

  std::map<std::string, double> second;
  scrape(&second);
  if (HasFatalFailure()) return;
  std::size_t compared = 0;
  for (const auto& [name, value] : first) {
    auto it = second.find(name);
    if (it == second.end()) continue;
    const bool counter = name.find("_total") != std::string::npos ||
                         name.find("_count") != std::string::npos ||
                         name.find("_bucket") != std::string::npos;
    if (!counter) continue;
    EXPECT_GE(it->second, value) << name;
    ++compared;
  }
  EXPECT_GT(compared, 20u);
  // A scrape counts itself only after rendering, so the delta is the
  // first METRICS plus the ten ROUTEs.
  EXPECT_DOUBLE_EQ(
      second["useful_requests_total"] - first["useful_requests_total"], 11.0);
}

TEST_F(ServerTest, SlowlogIsServedOverTcp) {
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  // The sampler's shared counter starts at zero, so the very first
  // request on a fresh service is always sampled — even at rate 256.
  std::vector<std::string> route =
      client.RoundTrip("ROUTE subrange 0.0 0 football");
  ASSERT_GE(route.size(), 1u);
  ASSERT_TRUE(ParseResponseHeader(route[0]).value().ok) << route[0];

  std::vector<std::string> lines = client.RoundTrip("SLOWLOG");
  ASSERT_GE(lines.size(), 2u);
  auto header = ParseResponseHeader(lines[0]);
  ASSERT_TRUE(header.ok()) << lines[0];
  ASSERT_TRUE(header.value().ok) << lines[0];
  EXPECT_EQ(lines[1].rfind("total_us=", 0), 0u) << lines[1];
  EXPECT_NE(lines[1].find("query=football"), std::string::npos) << lines[1];
}

TEST_F(ServerTest, StatsExposeReactorCounters) {
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  for (int i = 0; i < 5; ++i) {
    auto wire = client.RoundTrip("ROUTE subrange 0.1 0 football");
    ASSERT_FALSE(wire.empty());
  }
  std::vector<std::string> lines = client.RoundTrip("STATS");
  ASSERT_GE(lines.size(), 2u);
  std::map<std::string, std::uint64_t> kv;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::size_t space = lines[i].find(' ');
    if (space == std::string::npos) continue;
    kv[lines[i].substr(0, space)] =
        std::strtoull(lines[i].c_str() + space + 1, nullptr, 10);
  }
  // Every request travelled reactor -> offload pool -> reactor, so the
  // core's counters cannot be zero: at least one wakeup per dispatch and
  // one dispatched line per request (the STATS line itself is in flight
  // while rendering, so >= 5 ROUTEs are visible).
  ASSERT_TRUE(kv.count("epoll_wakeups"));
  ASSERT_TRUE(kv.count("dispatches"));
  ASSERT_TRUE(kv.count("dispatched_lines"));
  ASSERT_TRUE(kv.count("dispatch_queue_depth"));
  ASSERT_TRUE(kv.count("offload_wait_p99_us"));
  EXPECT_GE(kv["epoll_wakeups"], kv["dispatches"]);
  EXPECT_GE(kv["dispatches"], 5u);
  EXPECT_GE(kv["dispatched_lines"], kv["dispatches"]);
}

TEST_F(ServerTest, KeepAliveRoundTripsPushAFewDeadlinesNotOnePerRequest) {
  // Each round trip moves the idle deadline later. The entry queued when
  // the connection opened is due first, so none is pushed until it fires
  // (60 s away), however many requests the connection carries.
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  for (int i = 0; i < 2'000; ++i) {
    auto wire = client.RoundTrip("ROUTE subrange 0.1 0 football");
    ASSERT_FALSE(wire.empty());
    ASSERT_EQ(wire[0].substr(0, 3), "OK ") << wire[0];
  }
  EXPECT_LE(service_->stats().Get(Stats::kDeadlinePushes), 4u);
}

TEST_F(ServerTest, TrafficInsideTheIdleTimeoutKeepsTheConnectionUntilIdle) {
  // Requests every 50 ms for four idle timeouts: the entry queued when the
  // connection opened fires as a no-op and re-arms from the last traffic,
  // and so does each entry after it. Once the traffic stops, the idle
  // deadline runs from the last reply.
  ServerOptions options;
  options.threads = 2;
  options.poll_interval_ms = 10;
  options.idle_timeout_ms = 300;
  RestartServer(options);

  using Clock = std::chrono::steady_clock;
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  client.SetReceiveTimeoutMs(5'000);
  const Clock::time_point start = Clock::now();
  Clock::time_point last_sent = start;
  for (int i = 0; Clock::now() - start < std::chrono::milliseconds(1'200);
       ++i) {
    std::this_thread::sleep_until(start + i * std::chrono::milliseconds(50));
    last_sent = Clock::now();
    auto wire = client.RoundTrip("ROUTE subrange 0.1 0 football");
    ASSERT_FALSE(wire.empty()) << "request " << i;
    ASSERT_EQ(wire[0].substr(0, 3), "OK ") << wire[0];
  }
  EXPECT_EQ(service_->stats().Get(Stats::kIdleTimeouts), 0u);

  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  const auto idle_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::now() - last_sent)
                           .count();
  EXPECT_NE(line.find("idle timeout"), std::string::npos) << line;
  EXPECT_TRUE(client.WaitForClose());
  EXPECT_GE(idle_ms, 300);
  EXPECT_LT(idle_ms, 3'000);  // slack for sanitizer builds
  EXPECT_EQ(service_->stats().Get(Stats::kIdleTimeouts), 1u);
}

TEST_F(ServerTest, ManyMoreConnectionsThanOffloadWorkersAllGetServed) {
  // 16 concurrent request/response clients against 1 offload worker and
  // 2 reactors: connections are no longer pinned to threads, so fan-out
  // well past the execution pool's size must still answer everyone.
  ServerOptions options;
  options.threads = 1;
  options.reactor_threads = 2;
  options.poll_interval_ms = 10;
  RestartServer(options);

  constexpr int kClients = 16;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      TestClient client;
      if (!client.Connect(server_->port())) return;
      for (int round = 0; round < 3; ++round) {
        auto wire = client.RoundTrip("ROUTE subrange 0.1 0 football");
        if (wire.empty() || wire[0].substr(0, 3) != "OK ") return;
      }
      ok_count.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kClients);
}

TEST_F(ServerTest, PublishedPortFileReadsBackTheBoundPort) {
  const std::string path = (dir_ / "port").string();
  ASSERT_TRUE(server_->PublishPort(path).ok());
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, std::to_string(server_->port()));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(ServerTest, PortFileInAMissingDirectoryIsAnIOError) {
  const std::string path = (dir_ / "missing" / "port").string();
  Status s = server_->PublishPort(path);
  EXPECT_EQ(s.code(), Status::Code::kIOError) << s.ToString();
  EXPECT_NE(s.message().find(path + ".tmp"), std::string::npos) << s.message();
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(ServerTest, PortFileThatCannotBeRenamedIsAnIOErrorAndLeavesNoTmp) {
  // rename() cannot put a file in place of a directory.
  const std::filesystem::path path = dir_ / "port";
  std::filesystem::create_directory(path);
  Status s = server_->PublishPort(path.string());
  EXPECT_EQ(s.code(), Status::Code::kIOError) << s.ToString();
  EXPECT_NE(s.message().find(path.string()), std::string::npos) << s.message();
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}

TEST_F(ServerTest, PortFileThatCannotBeFlushedIsNotPublished) {
  // The line sits in stdio's buffer until fclose, so a full disk fails the
  // flush, not the fprintf; /dev/full fails every write with ENOSPC. An
  // unchecked fclose renamed an empty file into place.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string path = (dir_ / "port").string();
  std::filesystem::create_symlink("/dev/full", path + ".tmp");
  Status s = server_->PublishPort(path);
  EXPECT_EQ(s.code(), Status::Code::kIOError) << s.ToString();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::is_symlink(path + ".tmp"));
}

TEST(SendErrorLineTest, FullSocketBufferSendsNothingNotATornPrefix) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int tiny = 1;  // kernel clamps to its minimum, which is still small
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
  ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  // Fill the pipe until the kernel takes nothing more.
  std::string filler(4096, 'x');
  std::size_t filled = 0;
  for (;;) {
    ssize_t n = ::send(fds[0], filler.data(), filler.size(),
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n <= 0) break;
    filled += static_cast<std::size_t>(n);
  }
  // The old single-shot path could smear a prefix of the error line into
  // whatever buffer space freed up mid-send; all-or-nothing must refuse.
  EXPECT_FALSE(
      SendErrorLine(fds[0], Status::Unavailable("overloaded"), 20));

  // Drain everything the peer buffered: it must be exactly the filler,
  // with no "ERR" fragment appended.
  std::string received;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fds[1], chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n <= 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(received.size(), filled);
  EXPECT_EQ(received.find('E'), std::string::npos);

  // With the pipe drained the full line goes out and frames cleanly.
  EXPECT_TRUE(
      SendErrorLine(fds[0], Status::Unavailable("overloaded"), 20));
  ssize_t n = ::recv(fds[1], chunk, sizeof(chunk), MSG_DONTWAIT);
  ASSERT_GT(n, 0);
  std::string line(chunk, static_cast<std::size_t>(n));
  EXPECT_EQ(line.rfind("ERR Unavailable: overloaded", 0), 0u) << line;
  EXPECT_EQ(line.back(), '\n');
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SendErrorLineTest, SlowlyDrainingPeerStillGetsTheWholeLine) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int tiny = 1;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
  ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  std::string filler(4096, 'x');
  std::size_t filled = 0;
  // Leave the buffer ALMOST full so the error line can only go out in
  // pieces — the exact window where the old code tore the line.
  for (;;) {
    ssize_t n = ::send(fds[0], filler.data(), filler.size(),
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n <= 0) break;
    filled += static_cast<std::size_t>(n);
  }
  // Slowly drain everything the sender manages to push, in small reads so
  // buffer space frees a trickle at a time — the exact window where the
  // old single-shot path tore the line.
  std::string received;
  std::thread drainer([&] {
    char chunk[64];
    for (;;) {
      ssize_t n = ::recv(fds[1], chunk, sizeof(chunk), 0);
      if (n <= 0) return;  // EOF after shutdown below
      received.append(chunk, static_cast<std::size_t>(n));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  // A false return is the clean "no space at all right now" give-up and
  // guarantees nothing was written, so retrying is safe; once a call
  // returns true the peer must observe exactly ONE complete line — no
  // torn prefix from earlier attempts, no duplicates.
  bool sent = false;
  for (int attempt = 0; attempt < 2000 && !sent; ++attempt) {
    sent = SendErrorLine(fds[0], Status::Unavailable("overloaded"), 50);
    if (!sent) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(sent);
  ::shutdown(fds[0], SHUT_WR);
  drainer.join();
  ASSERT_GE(received.size(), filled);
  EXPECT_EQ(received.substr(filled), "ERR Unavailable: overloaded\n");
  ::close(fds[0]);
  ::close(fds[1]);
}

/// A Connection over one end of a socketpair, driven by hand: the test
/// writes requests to the other end and answers each batch itself.
class ConnectionBufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
    peer_ = fds[1];
    conn_ = std::make_unique<Connection>(fds[0], 1, &options_, &stats_);
  }
  void TearDown() override {
    conn_.reset();
    ::close(peer_);
  }

  /// Sends `lines` in one write, lets the connection read and take them
  /// as one batch, answers it, and reads the answer back.
  void RoundTrip(std::size_t lines) {
    std::string request;
    for (std::size_t i = 0; i < lines; ++i) {
      request += "ESTIMATE subrange 0.2 alpha\n";
    }
    ASSERT_EQ(::send(peer_, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    conn_->OnReadable();
    ASSERT_TRUE(conn_->WantsDispatch());
    ASSERT_EQ(conn_->TakeBatch(lines).size(), lines);
    const std::string reply(lines * 5, 'r');
    conn_->OnBatchComplete(reply, {}, /*close_after=*/false);
    std::string received;
    char chunk[4096];
    while (received.size() < reply.size()) {
      const ssize_t n = ::recv(peer_, chunk, sizeof(chunk), 0);
      ASSERT_GT(n, 0);
      received.append(chunk, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(received, reply);
  }

  ServerOptions options_;
  Stats stats_;
  int peer_ = -1;
  std::unique_ptr<Connection> conn_;
};

// A pipelined burst grows the inbound buffer past 1 KiB; once its reply has
// flushed and nothing is buffered, the connection gives the buffer back.
TEST_F(ConnectionBufferTest, IdleConnectionReleasesABurstsInboundBuffer) {
  RoundTrip(128);
  EXPECT_EQ(conn_->inbound_capacity(), std::string().capacity());
  EXPECT_FALSE(conn_->ShouldClose());
  RoundTrip(1);  // and still serves
}

// A client that sends one line at a time keeps its small buffer: no round
// trip after the first allocates it again.
TEST_F(ConnectionBufferTest, OneLineAtATimeKeepsItsSmallInboundBuffer) {
  RoundTrip(1);
  const std::size_t capacity = conn_->inbound_capacity();
  EXPECT_GT(capacity, std::string().capacity());
  EXPECT_LE(capacity, 1024u);
  for (int i = 0; i < 5; ++i) {
    RoundTrip(1);
    EXPECT_EQ(conn_->inbound_capacity(), capacity) << "round trip " << i;
  }
}

}  // namespace
}  // namespace useful::service
