#include "testing/fake_shard.h"

#include <utility>

namespace useful::testing {

Status FakeShardBackend::Send(const std::string& line) {
  if (killed_->load(std::memory_order_acquire)) {
    return Status::IOError("replica killed");
  }
  reply_ = service_->Execute(line);
  return Status::OK();
}

Status FakeShardBackend::Receive(service::Reply* reply) {
  if (killed_->load(std::memory_order_acquire)) {
    return Status::IOError("replica killed mid-request");
  }
  *reply = std::move(reply_);
  return Status::OK();
}

}  // namespace useful::testing
