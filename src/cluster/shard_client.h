// TCP ShardBackend: one client connection to a replica.
//
// The connection is lazy (the first Send connects) and kept: the
// front-end returns it to its replica's idle list after a successful
// Receive, so later requests reuse it. Connect is non-blocking with a
// poll deadline so a black-holed replica costs connect_timeout_ms, not a
// kernel-default 2 minutes; established sockets run blocking under
// SO_RCVTIMEO/SO_SNDTIMEO so a replica dying mid-reply surfaces as
// DeadlineExceeded instead of a hang. After a transport failure the
// front-end destroys the backend, and the next request opens a fresh
// connection — which is what makes replica restart recovery automatic.
//
// A replica closes a connection left idle past its --idle-timeout-ms,
// writing a parting ERR line first. A replica sends nothing between
// requests, so Send treats a kept connection with anything to read (that
// line, or EOF) as closed and reconnects before sending.
//
// Not thread-safe; one request uses a connection at a time.
#pragma once

#include <string>
#include <string_view>

#include "cluster/backend.h"
#include "cluster/topology.h"
#include "service/protocol.h"

namespace useful::cluster {

struct TcpBackendOptions {
  /// Deadline for the non-blocking connect handshake.
  int connect_timeout_ms = 1'000;
  /// Per-syscall send/recv deadline once connected.
  int io_timeout_ms = 5'000;
};

class TcpShardBackend : public ShardBackend {
 public:
  explicit TcpShardBackend(Endpoint endpoint, TcpBackendOptions options = {});
  ~TcpShardBackend() override;

  TcpShardBackend(const TcpShardBackend&) = delete;
  TcpShardBackend& operator=(const TcpShardBackend&) = delete;

  Status Send(const std::string& line) override;
  Status Receive(service::Reply* reply) override;

 private:
  Status EnsureConnected();
  Status SendAll(std::string_view data);

  const Endpoint endpoint_;
  const TcpBackendOptions options_;
  int fd_ = -1;
  service::ReplyReader reader_;  // the bytes received on fd_
};

}  // namespace useful::cluster
