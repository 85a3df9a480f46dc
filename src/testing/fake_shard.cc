#include "testing/fake_shard.h"

#include <utility>

namespace useful::testing {

Status FakeShardBackend::Send(const std::string& line) {
  if (killed_->load(std::memory_order_acquire)) {
    return Status::IOError("replica killed");
  }
  service::Reply executed = service_->Execute(line);
  reply_ = cluster::ShardReply{};
  if (executed.status.ok()) {
    reply_.ok = true;
    reply_.payload = std::move(executed.payload);
    reply_.degraded = executed.degraded;
  } else {
    // What FormatErrorHeader would put after "ERR " on a real socket.
    reply_.ok = false;
    reply_.error = executed.status.ToString();
  }
  return Status::OK();
}

Status FakeShardBackend::Receive(cluster::ShardReply* reply) {
  if (killed_->load(std::memory_order_acquire)) {
    return Status::IOError("replica killed mid-request");
  }
  *reply = std::move(reply_);
  return Status::OK();
}

}  // namespace useful::testing
