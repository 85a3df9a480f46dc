// The server processes of one workload topology: spawned from the built
// binaries, found through their --port-file handshake, and stopped with
// SIGTERM (SIGKILL after a grace period) and reaped.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "testbed.h"
#include "workload.h"

namespace useful::e2e {

/// Pins the calling thread, and the threads it starts later, to the last
/// CPU this process may use; every server the Fleet starts afterwards gets
/// the other CPUs. So the load generator never shares a CPU with a server
/// thread. Does nothing with fewer than two CPUs.
void PinClient();

struct Binaries {
  std::string served;
  std::string frontend;
};

class Fleet {
 public:
  /// Starts every process of `spec`'s topology and returns once each has
  /// published its port. `trace_rate` is passed as --trace-sample-rate.
  /// Logs and port files go under `run_dir`.
  Fleet(const WorkloadSpec& spec, const Testbed& tb, const Binaries& bin,
        const std::string& run_dir, std::uint32_t trace_rate);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// The port clients talk to (the front-end's for the cluster).
  std::uint16_t entry_port() const { return entry_port_; }
  /// Cluster only: replica ports by shard; replica 0 is the preferred one.
  const std::vector<std::vector<std::uint16_t>>& shard_ports() const {
    return shard_ports_;
  }

  /// User + system CPU seconds consumed so far by every process.
  double CpuSeconds() const;
  /// Sum over processes of the resident set now (VmRSS), MiB.
  double RssMiB() const;
  /// Sum over processes of the peak resident set (VmHWM), MiB.
  double PeakRssMiB() const;

 private:
  /// Starts one server with its stdout/stderr in <run_dir>/<name>.log.
  pid_t Launch(const std::string& name, const std::string& binary,
               std::vector<std::string> args);
  /// Waits until `pid` has published <run_dir>/<name>.port.
  std::uint16_t AwaitPort(const std::string& name, pid_t pid);
  std::uint16_t Spawn(const std::string& name, const std::string& binary,
                      std::vector<std::string> args);
  /// Sum over processes of a "<field> <n> kB" line of /proc/<pid>/status.
  double StatusMiB(const std::string& field) const;

  std::string run_dir_;
  std::vector<pid_t> pids_;
  std::uint16_t entry_port_ = 0;
  std::vector<std::vector<std::uint16_t>> shard_ports_;
};

}  // namespace useful::e2e
