// useful_served: the broker as a long-running metasearch service. Loads
// representative files, listens on a TCP port, and answers the line
// protocol (ROUTE / ESTIMATE / STATS / METRICS / SLOWLOG / RELOAD / QUIT)
// until a QUIT request or SIGINT winds it down gracefully.
//
//   useful_served [--host H] [--port P] [--port-file PATH] [--threads N]
//                 [--reactor-threads N] [--backlog N] [--cache-entries N]
//                 [--cache-bytes N] [--idle-timeout-ms N]
//                 [--request-timeout-ms N] [--write-timeout-ms N]
//                 [--max-connections N] [--max-accept-queue N]
//                 [--trace-sample-rate N] [--slowlog-size N]
//                 [--num-shards N] [--shard-index I] <rep>...
//   useful_served --port 7979 a.rep b.rep
//
// --reactor-threads N sizes the epoll event-loop fleet (default 2);
// --threads N sizes the estimation offload pool that executes requests
// (0 = one per CPU the process may run on). Connections are state
// machines on the reactors, so thousands of idle keep-alive peers are
// fine with two reactor threads — size --threads to the estimation work
// instead.
//
// --cache-entries N (default 4096) bounds the query cache by per-engine
// estimates: a query over E engines holds up to E of them, and one with
// more than N is not cached. --cache-bytes N (default 8 MiB, 0 for no
// bound) bounds its bytes; eviction drops whole least-recently-used
// queries.
//
// --trace-sample-rate N traces one request in N (default 256; 0 disables
// tracing, 1 traces every request); sampled traces feed the per-stage
// histograms that METRICS exposes and the ring --slowlog-size sizes,
// dumped by SLOWLOG.
//
// --port 0 (the default) binds an ephemeral port; the chosen port is
// announced on stdout as "listening on H:P" before serving starts, so
// scripts can scrape it. --port-file PATH additionally publishes the bare
// port number to PATH via write-then-rename — the race-free handshake the
// ctest smoke scripts use (a polled log line can be half-flushed; a
// renamed file cannot). If the file cannot be written in full, the server
// exits 1 naming it rather than serve on a port no one can learn. ROUTE
// results are identical to useful_route on the same representatives;
// repeated queries are served from the query cache (see STATS), and
// RELOAD re-reads the representative files without dropping in-flight
// requests.
//
// The timeout/limit flags map 1:1 onto ServerOptions: idle peers and
// slow-loris writers are disconnected, stuck readers are dropped after
// the write timeout, and connections beyond --max-connections (or beyond
// the accept queue bound) are shed with "ERR Unavailable: overloaded".
// Pass 0 to disable any individual limit.
//
// --num-shards N --shard-index I declare this process's slice of a
// cluster: a live ADD only registers engines that hash to shard I, so
// an ADD fanned to every shard by the front-end lands each engine on
// exactly one owner. Startup/RELOAD/UPDATE stay unfiltered — they act
// on whatever the operator pointed this process at.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "service/server.h"
#include "service/service.h"
#include "text/analyzer.h"
#include "util/flags.h"

namespace {
useful::service::Server* g_server = nullptr;

void HandleSigint(int) {
  // RequestStop is one atomic store: signal-safe. Serve() notices within
  // its poll interval and drains.
  if (g_server != nullptr) g_server->RequestStop();
}
}  // namespace

int main(int argc, char** argv) {
  using namespace useful;
  service::ServerOptions server_options;
  service::ServiceOptions service_options;
  std::string port_file;

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
      *out = util::ParseFlag<std::remove_pointer_t<decltype(out)>>(
          flag, need_value(flag));
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      server_options.host = need_value("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      need_number("--port", &server_options.port);
    } else if (std::strcmp(argv[i], "--port-file") == 0) {
      port_file = need_value("--port-file");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      need_number("--threads", &server_options.threads);
    } else if (std::strcmp(argv[i], "--reactor-threads") == 0) {
      need_number("--reactor-threads", &server_options.reactor_threads);
    } else if (std::strcmp(argv[i], "--backlog") == 0) {
      need_number("--backlog", &server_options.backlog);
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
      need_number("--idle-timeout-ms", &server_options.idle_timeout_ms);
    } else if (std::strcmp(argv[i], "--request-timeout-ms") == 0) {
      need_number("--request-timeout-ms", &server_options.request_timeout_ms);
    } else if (std::strcmp(argv[i], "--write-timeout-ms") == 0) {
      need_number("--write-timeout-ms", &server_options.write_timeout_ms);
    } else if (std::strcmp(argv[i], "--max-connections") == 0) {
      need_number("--max-connections", &server_options.max_connections);
    } else if (std::strcmp(argv[i], "--max-accept-queue") == 0) {
      need_number("--max-accept-queue", &server_options.max_accept_queue);
    } else if (std::strcmp(argv[i], "--cache-entries") == 0) {
      need_number("--cache-entries", &service_options.cache.max_entries);
    } else if (std::strcmp(argv[i], "--cache-bytes") == 0) {
      need_number("--cache-bytes", &service_options.cache.max_bytes);
    } else if (std::strcmp(argv[i], "--trace-sample-rate") == 0) {
      need_number("--trace-sample-rate", &service_options.trace_sample_rate);
    } else if (std::strcmp(argv[i], "--slowlog-size") == 0) {
      need_number("--slowlog-size", &service_options.slowlog_size);
    } else if (std::strcmp(argv[i], "--num-shards") == 0) {
      need_number("--num-shards", &service_options.num_shards);
    } else if (std::strcmp(argv[i], "--shard-index") == 0) {
      need_number("--shard-index", &service_options.shard_index);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    } else {
      service_options.representative_paths.push_back(argv[i]);
    }
  }
  if (service_options.representative_paths.empty()) {
    std::fprintf(stderr,
                 "usage: useful_served [--host H] [--port P] "
                 "[--port-file PATH] [--threads N] [--reactor-threads N] "
                 "[--backlog N] [--cache-entries N] [--cache-bytes N] "
                 "[--idle-timeout-ms N] [--request-timeout-ms N] "
                 "[--write-timeout-ms N] [--max-connections N] "
                 "[--max-accept-queue N] [--trace-sample-rate N] "
                 "[--slowlog-size N] [--num-shards N] [--shard-index I] "
                 "<rep-file>...\n");
    return 2;
  }

  text::Analyzer analyzer;
  auto service = service::Service::Create(&analyzer, service_options);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  std::printf("serving %zu engines\n", service.value()->num_engines());

  service::Server server(service.value().get(), server_options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSigint);
  std::signal(SIGTERM, HandleSigint);

  std::printf("listening on %s:%u\n", server_options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);  // scripts scrape the port from a pipe

  if (!port_file.empty()) {
    // A server whose port no one can learn must not go on serving.
    if (Status s = server.PublishPort(port_file); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  if (Status s = server.Serve(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("shut down cleanly\n");
  return 0;
}
