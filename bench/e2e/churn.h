// The admin connection of a churn run: UPDATE of one engine every 250 ms
// and, every 2 s, an ADD or a DROP of the extra engine, each reply checked
// exactly. It runs on its own thread beside the read traffic.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "testbed.h"

namespace useful::e2e {

class ChurnLoop {
 public:
  /// Connects to `port` and starts issuing verbs. Paths in the verbs are
  /// the packed (URPZ) testbed files.
  ChurnLoop(const Testbed& tb, std::uint16_t port);
  ~ChurnLoop();
  ChurnLoop(const ChurnLoop&) = delete;
  ChurnLoop& operator=(const ChurnLoop&) = delete;

  /// Stops after the verb in flight and joins the thread. Idempotent.
  void Stop();

  // Valid after Stop().
  std::size_t ops() const { return ops_; }
  std::size_t failed() const { return failed_; }
  const std::vector<double>& rtt_ms() const { return rtt_ms_; }

 private:
  void Run();

  const Testbed& tb_;
  const std::uint16_t port_;
  std::size_t ops_ = 0;
  std::size_t failed_ = 0;
  std::vector<double> rtt_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

}  // namespace useful::e2e
