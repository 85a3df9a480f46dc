// useful_frontend: the cluster's scatter-gather front-end as a
// long-running service. Speaks the ordinary line protocol upstream on
// its own TCP port (same epoll reactor core as useful_served) and is a
// line-protocol client of one replica per shard downstream.
//
//   useful_frontend --cluster h:p,h:p|h:p,h:p [--host H] [--port P]
//                   [--port-file PATH] [--threads N] [--reactor-threads N]
//                   [--backlog N] [--eject-failures N] [--probe-backoff-ms N]
//                   [--connect-timeout-ms N] [--io-timeout-ms N]
//                   [--trace-sample-rate N] [--slowlog-size N]
//   useful_frontend --cluster 127.0.0.1:7001,127.0.0.1:7002\|127.0.0.1:7003
//
// --cluster is S shards split by '|' (or ';' — shell-friendlier), each
// shard R replicas split by ',' in failover preference order. ROUTE and
// ESTIMATE scatter to every shard and merge the partial rankings
// bit-identically to a single useful_served holding all representatives;
// STATS/METRICS add cluster health (stale_shards, per-shard live
// replicas, per-shard round-trip histograms) and aggregated downstream
// counters; RELOAD fans to every replica. When a whole shard is
// unreachable, replies carry a DEGRADED token on the OK header instead
// of failing. A replica that fails --eject-failures times in a row is
// ejected and re-probed after a doubling --probe-backoff-ms; an
// all-ejected shard is still probed, so a restarted shard recovers on
// the next request.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

#include "cluster/frontend.h"
#include "cluster/topology.h"
#include "service/server.h"
#include "util/flags.h"

namespace {
useful::service::Server* g_server = nullptr;

void HandleSigint(int) {
  if (g_server != nullptr) g_server->RequestStop();
}
}  // namespace

int main(int argc, char** argv) {
  using namespace useful;
  service::ServerOptions server_options;
  cluster::FrontendOptions frontend_options;
  std::string cluster_spec;
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
    if (std::strcmp(argv[i], "--cluster") == 0) {
      cluster_spec = need_value("--cluster");
    } else if (std::strcmp(argv[i], "--host") == 0) {
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
    } else if (std::strcmp(argv[i], "--eject-failures") == 0) {
      need_number("--eject-failures", &frontend_options.eject_failures);
    } else if (std::strcmp(argv[i], "--probe-backoff-ms") == 0) {
      need_number("--probe-backoff-ms", &frontend_options.probe_backoff_ms);
    } else if (std::strcmp(argv[i], "--connect-timeout-ms") == 0) {
      need_number("--connect-timeout-ms",
                  &frontend_options.tcp.connect_timeout_ms);
    } else if (std::strcmp(argv[i], "--io-timeout-ms") == 0) {
      need_number("--io-timeout-ms", &frontend_options.tcp.io_timeout_ms);
    } else if (std::strcmp(argv[i], "--trace-sample-rate") == 0) {
      need_number("--trace-sample-rate", &frontend_options.trace_sample_rate);
    } else if (std::strcmp(argv[i], "--slowlog-size") == 0) {
      need_number("--slowlog-size", &frontend_options.slowlog_size);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (cluster_spec.empty()) {
    std::fprintf(stderr,
                 "usage: useful_frontend --cluster h:p,h:p|h:p,h:p "
                 "[--host H] [--port P] [--port-file PATH] [--threads N] "
                 "[--reactor-threads N] [--backlog N] "
                 "[--eject-failures N] [--probe-backoff-ms N] "
                 "[--connect-timeout-ms N] [--io-timeout-ms N] "
                 "[--trace-sample-rate N] [--slowlog-size N]\n");
    return 2;
  }

  auto spec = cluster::ParseClusterSpec(cluster_spec);
  if (!spec.ok()) {
    std::fprintf(stderr, "--cluster: %s\n",
                 spec.status().ToString().c_str());
    return 2;
  }
  std::printf("fronting %zu shards / %zu replicas\n",
              spec.value().num_shards(), spec.value().num_replicas());

  cluster::Frontend frontend(std::move(spec).value(), frontend_options);
  service::Server server(&frontend, server_options);
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
