// An in-process cluster::ShardBackend over a local service::Service,
// with a kill switch.
//
// The cluster fuzz harness and the frontend unit tests need shard
// replicas that (a) answer exactly like a real useful_served process —
// same Execute, same framing semantics — and (b) can be killed and
// revived mid-run without sockets or child processes. FakeShardBackend
// maps one ShardBackend connection onto Service::Execute:
//
//   Send     killed -> IOError (connect/send failure); alive -> executes
//            the line immediately and holds the framed reply.
//   Receive  killed -> IOError (the "connection" died between write and
//            read — the mid-request death the failover path must
//            survive); alive -> hands the held reply over. A non-OK
//            Execute status is a SUCCESSFUL receive carrying that
//            Status, exactly like a framed "ERR ..." line off a socket.
//
// The kill switch is an external atomic shared by every connection the
// factory opens to one replica, so one flag can drop a replica while a
// fan-out is between Send and Receive on another thread.
#pragma once

#include <atomic>
#include <string>

#include "cluster/backend.h"
#include "service/service.h"

namespace useful::testing {

class FakeShardBackend : public cluster::ShardBackend {
 public:
  /// `service` and `killed` must outlive the backend. Replicas of one
  /// shard may share a Service (same data, like real replicas) while
  /// each keeps its own kill switch.
  FakeShardBackend(service::Service* service, const std::atomic<bool>* killed)
      : service_(service), killed_(killed) {}

  Status Send(const std::string& line) override;
  Status Receive(service::Reply* reply) override;

 private:
  service::Service* service_;
  const std::atomic<bool>* killed_;
  service::Reply reply_;  // the executed reply awaiting Receive
};

}  // namespace useful::testing
