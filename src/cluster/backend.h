// The front-end's seam to one shard replica.
//
// A ShardBackend is one connection to a replica: Send() writes a
// protocol line, Receive() reads its framed response. The TCP
// implementation (TcpShardBackend in shard_client.h) owns a socket;
// tests and the fuzzer inject in-process fakes that execute against a
// local service::Service and can be killed/revived mid-run.
//
// The two halves let one offload-pool worker scatter a request to every
// shard CONCURRENTLY without spawning threads: it Sends on one
// connection per shard, then Receives each reply in turn. While the
// worker waits on shard 0's reply, shards 1..S-1 are already computing
// — the fan-out costs max(shard latency), not the sum.
#pragma once

#include <string>

#include "service/protocol.h"
#include "util/status.h"

namespace useful::cluster {
using useful::Result;
using useful::Status;

/// One replica connection, used by one request at a time: a Send, then
/// the Receive of its reply. Implementations need not be thread-safe; the
/// front-end hands each in-flight leg a connection of its own. After a
/// failed Send or Receive the connection is discarded, never reused.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Writes `line` downstream. A non-OK status means the replica is
  /// unreachable (connect/send failure).
  virtual Status Send(const std::string& line) = 0;

  /// Reads the framed response to the last Send. A non-OK status means
  /// the transport failed mid-read (timeout, disconnect, corrupt
  /// framing). A protocol-level "ERR ..." from the replica is a
  /// SUCCESSFUL receive whose reply->status is the replica's Status.
  virtual Status Receive(service::Reply* reply) = 0;
};

}  // namespace useful::cluster
