#include "churn.h"

#include <string>

#include "common.h"
#include "wire.h"

namespace useful::e2e {

ChurnLoop::ChurnLoop(const Testbed& tb, std::uint16_t port)
    : tb_(tb), port_(port), thread_([this] { Run(); }) {}

ChurnLoop::~ChurnLoop() { Stop(); }

void ChurnLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ChurnLoop::Run() {
  Client admin(port_);
  const std::size_t base = tb_.engines.size();
  bool extra = false;
  auto op = [&](const std::string& line, const std::string& want) {
    const std::int64_t t0 = NowNs();
    const std::string reply = admin.Call(line);
    rtt_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    ++ops_;
    if (reply != want) ++failed_;
  };
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_until(lock, start + k * std::chrono::milliseconds(250),
                         [this] { return stop_; })) {
        return;
      }
    }
    // Same bytes as the engine already serves, so reads never change
    // answer; the cache still loses that engine's entries.
    op("UPDATE " + tb_.SinglePackPath(tb_.engines[k % base]),
       "OK 2\nupdated 1\nengines " + std::to_string(base + extra) + "\n");
    if (k % 8 == 7) {
      if (extra) {
        op(std::string("DROP ") + Testbed::kExtraEngine,
           "OK 2\ndropped 1\nengines " + std::to_string(base) + "\n");
      } else {
        op("ADD " + tb_.ExtraPackPath(),
           "OK 2\nadded 1\nengines " + std::to_string(base + 1) + "\n");
      }
      extra = !extra;
    }
  }
}

}  // namespace useful::e2e
