// useful_client: line-protocol client for useful_served. Reads request
// lines from stdin, sends each to the server, and prints every response
// line (header and payload) to stdout — a transparent protocol echo that
// scripts can grep.
//
//   printf 'ROUTE subrange 0.2 0 fox dog\nSTATS\nQUIT\n' |
//       useful_client --port 7979
//
// One-shot mode: trailing positional arguments form a single request, and
// only the payload is printed (no "OK <n>" header) — made for piping
// METRICS into a Prometheus checker or grepping SLOWLOG:
//
//   useful_client --port 7979 METRICS
//   useful_client --port 7979 SLOWLOG 5
//
// Multi-host mode: --hosts a:p1,b:p2 names several servers (shards, or
// shards plus the cluster front-end); stdin request lines round-robin
// across them on persistent per-host connections, so one invocation can
// poke every member of a cluster. One-shot requests go to the first
// host. --host/--port remain the single-host spelling.
//
// Each host is one cluster::TcpShardBackend, the connection the cluster
// front-end keeps to a shard: connects are bounded by --timeout-ms (1 s
// without it), and a kept connection the server has since closed (an
// idle timeout's parting ERR line, or EOF) is reopened before the next
// request is sent on it. --timeout-ms N also bounds every socket
// send/recv, so a wedged or overloaded server fails the client instead of
// hanging it; replies are read by service::ReplyReader, whose caps on the
// OK-header payload count and the line length stop a corrupt server from
// making the client read forever. Exits 0 when every request got an OK
// response, 1 when any got an ERR or the connection failed mid-stream, 2
// on usage errors and when the first request cannot connect. A stdin
// session over more than one --hosts entry exits 1 on a connect error
// too. In one-shot mode an ERR response is printed to stderr instead.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/shard_client.h"
#include "cluster/topology.h"
#include "service/protocol.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace useful;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int timeout_ms = 0;  // 0: no socket deadline
  std::string hosts_spec;
  std::string one_shot;  // positional tokens joined into one request

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      host = need_value("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      port = util::ParseFlag<std::uint16_t>("--port", need_value("--port"));
    } else if (std::strcmp(argv[i], "--hosts") == 0) {
      hosts_spec = need_value("--hosts");
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      timeout_ms =
          util::ParseFlag<int>("--timeout-ms", need_value("--timeout-ms"));
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    } else {
      if (!one_shot.empty()) one_shot.push_back(' ');
      one_shot.append(argv[i]);
    }
  }

  std::vector<cluster::Endpoint> endpoints;
  if (!hosts_spec.empty()) {
    // --hosts is a flat comma list: every entry is its own target (the
    // '|' shard grouping of a cluster spec has no meaning here).
    auto spec = cluster::ParseClusterSpec(hosts_spec);
    if (!spec.ok()) {
      std::fprintf(stderr, "--hosts: %s\n",
                   spec.status().ToString().c_str());
      return 2;
    }
    for (const auto& shard : spec.value().shards) {
      endpoints.insert(endpoints.end(), shard.replicas.begin(),
                       shard.replicas.end());
    }
  } else if (port > 0) {
    endpoints.push_back(cluster::Endpoint{host, port});
  }
  if (endpoints.empty()) {
    std::fprintf(stderr,
                 "usage: useful_client [--host H] [--timeout-ms N] "
                 "(--port P | --hosts h:p,h:p) [request tokens...]\n");
    return 2;
  }
  cluster::TcpBackendOptions tcp;
  if (timeout_ms > 0) tcp.connect_timeout_ms = timeout_ms;
  tcp.io_timeout_ms = timeout_ms;
  std::vector<std::unique_ptr<cluster::TcpShardBackend>> conns;
  for (const cluster::Endpoint& endpoint : endpoints) {
    conns.push_back(std::make_unique<cluster::TcpShardBackend>(endpoint, tcp));
  }

  // One round trip. A failed send is a connect error (exit 2) until the
  // first reply, when a single host is the only target; any other
  // failure ends the session mid-stream (exit 1).
  bool replied = false;
  auto exchange = [&](cluster::TcpShardBackend* conn,
                      const std::string& request, service::Reply* reply) {
    Status s = conn->Send(request);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.message().c_str());
      return replied || (one_shot.empty() && conns.size() > 1) ? 1 : 2;
    }
    s = conn->Receive(reply);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    replied = true;
    return 0;
  };

  service::Reply reply;
  if (!one_shot.empty()) {
    if (int rc = exchange(conns[0].get(), one_shot, &reply); rc != 0) {
      return rc;
    }
    if (!reply.status.ok()) {
      const std::string error = service::FormatErrorHeader(reply.status);
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    for (const std::string& line : reply.payload) {
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }

  bool any_error = false;
  std::string request;
  std::size_t next_host = 0;
  while (std::getline(std::cin, request)) {
    if (request.empty()) continue;
    cluster::TcpShardBackend* conn = conns[next_host % conns.size()].get();
    ++next_host;
    if (int rc = exchange(conn, request, &reply); rc != 0) return rc;
    const std::string rendered = service::RenderReply(reply);
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    any_error = any_error || !reply.status.ok();
  }
  return any_error ? 1 : 0;
}
