// The transport/engine seam of the serving stack.
//
// service::Server and its reactors move bytes; everything that *answers*
// a protocol line lives behind RequestHandler. Two implementations exist:
// service::Service (a broker over local representatives — the shard tier)
// and cluster::Frontend (a scatter-gather merger over remote shards).
// Both plug into the same epoll reactor + offload-pool machinery, so one
// server core serves both tiers of the cluster.
#pragma once

#include <string_view>

#include "obs/trace.h"
#include "service/protocol.h"

namespace useful::service {

class Stats;

/// One protocol-line answering engine. Implementations must be
/// thread-safe: the offload pool calls Execute from many workers at once.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;

  /// Executes one protocol line, recording spans into `trace` (never
  /// null). The caller owns the trace lifecycle — it appends transport
  /// stages (the socket write) and hands the finished trace to
  /// stats()->FinishTrace.
  virtual Reply Execute(std::string_view line, obs::Trace* trace) = 0;

  /// The stats registry the transport records connection lifecycle events
  /// into and STATS/METRICS render from. Stats is internally thread-safe.
  virtual Stats* mutable_stats() = 0;
};

}  // namespace useful::service
