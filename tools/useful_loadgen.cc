// useful_loadgen: open-loop trace replay against a useful_served (or
// useful_frontend) process. Replays a Zipfian query trace over many
// persistent connections and reports throughput plus latency
// percentiles — the traffic source of the loadgen and churn smokes.
// Serving performance is measured by bench/e2e, which also checks every
// reply byte for byte.
//
//   useful_loadgen --port P [--host H] [--connections N] [--qps Q]
//                  [--queries N] [--distinct D] [--zipf S] [--seed S]
//                  [--queries-file PATH] [--estimator NAME]
//                  [--threshold T] [--topk K] [--verb ESTIMATE|ROUTE]
//                  [--tag NAME]
//
// Load model: the trace is a Zipf(--zipf) draw over a pool of --distinct
// query texts (taken from --queries-file, e.g. corpusgen's queries.tsv,
// or synthesized over the shared pseudo-word vocabulary when absent), so
// repeated queries exercise the server's query cache the way a real log
// would. The total --queries requests are split across --connections
// persistent connections.
//
// Pacing: with --qps Q the generator is OPEN-LOOP — request i of a
// connection is due at start + i/rate regardless of whether earlier
// replies have arrived, and each latency is measured from the request's
// *scheduled* send time to its reply. A server that falls behind
// therefore shows the queueing delay it actually inflicted
// (coordinated omission is impossible by construction). Between sends a
// connection waits in ppoll on its socket until the next request is due,
// so each reply is stamped when it arrives and requests still pipeline.
// With --qps 0 the generator is closed-loop at maximum rate: each
// connection keeps a fixed window (--pipeline) of requests in flight —
// the throughput-ceiling mode.
//
// Output: a two-line summary on stdout, labelled with --tag.
// Exit 0 on a clean run, 1 when any reply was ERR or a connection broke
// mid-run, 2 on usage/connect errors.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "service/protocol.h"
#include "testing/synthetic.h"
#include "util/clock.h"
#include "util/flags.h"
#include "util/histogram.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 8;
  double qps = 0.0;          // 0: closed-loop at maximum rate
  std::size_t queries = 100000;
  std::size_t distinct = 1024;
  double zipf = 0.99;
  std::uint64_t seed = 1;
  std::size_t pipeline = 64;  // closed-loop window per connection
  std::string queries_file;
  std::string estimator = "subrange";
  std::string threshold = "0.1";
  std::string topk = "0";
  std::string verb = "ESTIMATE";
  std::string tag = "loadgen";
};

/// Cumulative Zipf(s) distribution over ranks [0, n): a sampled rank is
/// the trace's next query-pool index. Heavy head = hot queries, the
/// regime the server's query cache exists for.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t Sample(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

int ConnectTo(const std::string& host, std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
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

bool SendAll(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocks until `fd` is readable (or closed) or `timeout` passes; true
/// when there is something to read.
bool WaitReadable(int fd, Clock::duration timeout) {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(timeout);
  timespec ts{static_cast<std::time_t>(ns.count() / 1'000'000'000),
              static_cast<long>(ns.count() % 1'000'000'000)};
  pollfd pfd{fd, POLLIN, 0};
  return ::ppoll(&pfd, 1, &ts, nullptr) > 0;
}

struct WorkerResult {
  std::size_t sent = 0;
  std::size_t replies = 0;
  std::size_t errors = 0;
  bool transport_error = false;
};

/// One connection's replay loop over the connected `fd`, which it closes.
/// `pool` holds the pre-rendered wire lines; request i is due at start +
/// offset + i*interval (interval 0: closed-loop with a `window`-deep
/// pipeline).
void RunWorker(const Options& opt, int fd,
               const std::vector<std::string>* pool,
               const ZipfSampler* sampler, std::uint64_t seed,
               std::size_t count, Clock::time_point start,
               Clock::duration offset, Clock::duration interval,
               useful::util::LatencyHistogram* histogram,
               WorkerResult* result) {
  std::mt19937_64 rng(seed);
  useful::service::ReplyReader reader;
  useful::service::Reply reply;
  // Scheduled send time of each in-flight request, FIFO. Latency is
  // reply time minus *scheduled* time: a late send (server back-pressure
  // through a full socket buffer) charges the server, not the clock.
  std::deque<Clock::time_point> in_flight;
  const bool open_loop = interval.count() > 0;
  char chunk[65536];

  auto drain = [&](bool block) -> bool {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), block ? 0 : MSG_DONTWAIT);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) return true;
      result->transport_error = true;
      return false;
    }
    reader.Feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    Clock::time_point now = Clock::now();
    for (;;) {
      useful::Result<bool> next = reader.Next(&reply);
      if (!next.ok() || (next.value() && in_flight.empty())) {
        result->transport_error = true;  // corrupt or unsolicited reply
        return false;
      }
      if (!next.value()) return true;
      if (!reply.status.ok()) ++result->errors;
      histogram->Record(useful::util::MicrosSince(in_flight.front(), now));
      in_flight.pop_front();
      ++result->replies;
    }
  };

  for (std::size_t i = 0; i < count; ++i) {
    if (open_loop) {
      Clock::time_point due = start + offset + interval * i;
      // Wait for the schedule in ppoll on the socket, draining each reply
      // as it arrives so it is stamped then, not at the next send.
      for (Clock::time_point now = Clock::now(); now < due;
           now = Clock::now()) {
        if (WaitReadable(fd, due - now) && !drain(/*block=*/false)) {
          goto done;
        }
      }
      in_flight.push_back(due);  // scheduled, not actual, send time
    } else {
      // Closed loop: block on replies once the window is full.
      while (in_flight.size() >= opt.pipeline) {
        if (!drain(/*block=*/true)) goto done;
      }
      in_flight.push_back(Clock::now());
    }
    const std::string& line = (*pool)[sampler->Sample(rng)];
    if (!SendAll(fd, line.data(), line.size())) {
      result->transport_error = true;
      break;
    }
    ++result->sent;
    if (!drain(/*block=*/false)) break;
  }
  while (!in_flight.empty() && !result->transport_error) {
    if (!drain(/*block=*/true)) break;
  }
done:
  ::close(fd);
}

std::vector<std::string> LoadQueryPool(const Options& opt) {
  std::vector<std::string> texts;
  if (!opt.queries_file.empty()) {
    std::ifstream in(opt.queries_file);
    std::string line;
    while (texts.size() < opt.distinct && std::getline(in, line)) {
      // queries.tsv rows are "id<TAB>text"; bare text files work too.
      std::size_t tab = line.find('\t');
      std::string text = tab == std::string::npos ? line : line.substr(tab + 1);
      if (!text.empty()) texts.push_back(text);
    }
  }
  if (texts.empty()) {
    useful::testing::SyntheticCorpusOptions corpus;
    corpus.vocab_size = 96;
    useful::testing::SyntheticQueryOptions queries;
    queries.count = opt.distinct;
    texts = useful::testing::MakeSyntheticQueryTexts(corpus, queries,
                                                     opt.seed);
  }
  return texts;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
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
      opt.host = need_value("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      need_number("--port", &opt.port);
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      need_number("--connections", &opt.connections);
    } else if (std::strcmp(argv[i], "--qps") == 0) {
      opt.qps = useful::util::ParseDoubleFlag("--qps", need_value("--qps"));
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      need_number("--queries", &opt.queries);
    } else if (std::strcmp(argv[i], "--distinct") == 0) {
      need_number("--distinct", &opt.distinct);
    } else if (std::strcmp(argv[i], "--zipf") == 0) {
      opt.zipf =
          useful::util::ParseDoubleFlag("--zipf", need_value("--zipf"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      need_number("--seed", &opt.seed);
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      need_number("--pipeline", &opt.pipeline);
    } else if (std::strcmp(argv[i], "--queries-file") == 0) {
      opt.queries_file = need_value("--queries-file");
    } else if (std::strcmp(argv[i], "--estimator") == 0) {
      opt.estimator = need_value("--estimator");
    } else if (std::strcmp(argv[i], "--threshold") == 0) {
      opt.threshold = need_value("--threshold");
    } else if (std::strcmp(argv[i], "--topk") == 0) {
      opt.topk = need_value("--topk");
    } else if (std::strcmp(argv[i], "--verb") == 0) {
      opt.verb = need_value("--verb");
    } else if (std::strcmp(argv[i], "--tag") == 0) {
      opt.tag = need_value("--tag");
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.port == 0 || opt.connections == 0 ||
      opt.queries == 0 || opt.distinct == 0 || opt.pipeline == 0 ||
      (opt.verb != "ESTIMATE" && opt.verb != "ROUTE")) {
    std::fprintf(
        stderr,
        "usage: useful_loadgen --port P [--host H] [--connections N] "
        "[--qps Q] [--queries N] [--distinct D] [--zipf S] [--seed S] "
        "[--pipeline W] [--queries-file PATH] [--estimator NAME] "
        "[--threshold T] [--topk K] [--verb ESTIMATE|ROUTE] "
        "[--tag NAME]\n");
    return 2;
  }

  std::vector<std::string> texts = LoadQueryPool(opt);
  if (texts.empty()) {
    std::fprintf(stderr, "empty query pool (bad --queries-file?)\n");
    return 2;
  }
  // Pre-render the wire lines once: the replay loop only samples + sends.
  std::vector<std::string> pool;
  pool.reserve(texts.size());
  for (const std::string& text : texts) {
    std::string line = opt.verb + " " + opt.estimator + " " + opt.threshold;
    if (opt.verb == "ROUTE") line += " " + opt.topk;
    line += " " + text + "\n";
    pool.push_back(std::move(line));
  }
  ZipfSampler sampler(pool.size(), opt.zipf);

  // Every connection is made before the run starts, so a server that
  // cannot be reached is a connect error, not a broken run.
  std::vector<int> fds;
  for (std::size_t c = 0; c < opt.connections; ++c) {
    const int fd = ConnectTo(opt.host, opt.port);
    if (fd < 0) {
      std::fprintf(stderr, "cannot connect to %s:%u\n", opt.host.c_str(),
                   static_cast<unsigned>(opt.port));
      for (int open_fd : fds) ::close(open_fd);
      return 2;
    }
    fds.push_back(fd);
  }

  useful::util::LatencyHistogram histogram;
  std::vector<WorkerResult> results(opt.connections);
  std::vector<std::thread> workers;
  Clock::duration interval{0};
  if (opt.qps > 0.0) {
    interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(opt.connections / opt.qps));
  }
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t c = 0; c < opt.connections; ++c) {
    std::size_t count = opt.queries / opt.connections +
                        (c < opt.queries % opt.connections ? 1 : 0);
    // Stagger connection c by c/qps so the aggregate arrival process is
    // uniform at --qps, not `connections` synchronized bursts.
    Clock::duration offset =
        opt.qps > 0.0 ? std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(c / opt.qps))
                      : Clock::duration{0};
    workers.emplace_back(RunWorker, std::cref(opt), fds[c], &pool, &sampler,
                         opt.seed * 0x9e3779b97f4a7c15ULL + c, count, start,
                         offset, interval, &histogram, &results[c]);
  }
  for (std::thread& t : workers) t.join();
  double elapsed = std::chrono::duration<double>(Clock::now() - start).count();

  std::size_t sent = 0, replies = 0, errors = 0;
  bool transport_error = false;
  for (const WorkerResult& r : results) {
    sent += r.sent;
    replies += r.replies;
    errors += r.errors;
    transport_error = transport_error || r.transport_error;
  }
  double achieved_qps = elapsed > 0.0 ? replies / elapsed : 0.0;
  double p50 = histogram.ValueAtPercentile(50);
  double p95 = histogram.ValueAtPercentile(95);
  double p99 = histogram.ValueAtPercentile(99);
  double p999 = histogram.ValueAtPercentile(99.9);

  std::printf(
      "loadgen %s: mode=%s sent=%zu replies=%zu errors=%zu elapsed_s=%.3f "
      "qps=%.0f\n",
      opt.tag.c_str(), opt.qps > 0.0 ? "open-loop" : "closed-loop", sent,
      replies, errors, elapsed, achieved_qps);
  std::printf(
      "latency_us: p50=%.0f p95=%.0f p99=%.0f p999=%.0f max=%llu "
      "mean=%.1f\n",
      p50, p95, p99, p999,
      static_cast<unsigned long long>(histogram.max()), histogram.mean());

  if (transport_error) {
    std::fprintf(stderr, "loadgen: a connection failed mid-run\n");
    return 1;
  }
  return errors > 0 ? 1 : 0;
}
