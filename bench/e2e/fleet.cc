#include "fleet.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>

#include "common.h"

extern char** environ;

namespace useful::e2e {

namespace {

std::mutex g_children_mu;
std::vector<pid_t> g_children;  // every live server, for Fail()

void Reap(std::vector<pid_t> pids) {
  for (pid_t pid : pids) ::kill(pid, SIGTERM);
  const std::int64_t deadline = NowNs() + 10'000'000'000;
  for (pid_t pid : pids) {
    while (::waitpid(pid, nullptr, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

std::string Tail(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string all = ss.str();
  return all.size() > 2000 ? all.substr(all.size() - 2000) : all;
}

/// The CPUs this process may use, split: the last one for the load
/// generator, the rest for the servers. `split` is false with fewer than
/// two CPUs.
struct CpuSplit {
  bool split = false;
  cpu_set_t servers;
  cpu_set_t client;
};

const CpuSplit& Cpus() {
  static const CpuSplit split = [] {
    CpuSplit s;
    cpu_set_t all;
    CPU_ZERO(&all);
    CPU_ZERO(&s.servers);
    CPU_ZERO(&s.client);
    if (::sched_getaffinity(0, sizeof(all), &all) != 0 ||
        CPU_COUNT(&all) < 2) {
      return s;
    }
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all)) last = cpu;
    }
    s.servers = all;
    CPU_CLR(last, &s.servers);
    CPU_SET(last, &s.client);
    s.split = true;
    return s;
  }();
  return split;
}

/// The servers' environment: this process's, with glibc's mmap threshold
/// fixed at its initial 128 KiB. By default glibc raises the threshold
/// each time a large block is freed, and then keeps such blocks in the
/// heap; how much of a replaced snapshot stays resident then depends on
/// allocation timing and moved resident memory under churn by 10% from
/// run to run. With the threshold fixed, resident memory follows the
/// memory in use.
const std::vector<char*>& ServerEnvironment() {
  static const std::vector<char*> env = [] {
    static const std::string kThreshold = "MALLOC_MMAP_THRESHOLD_=131072";
    std::vector<char*> out;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::string_view(*e).rfind("MALLOC_MMAP_THRESHOLD_=", 0) != 0) {
        out.push_back(*e);
      }
    }
    out.push_back(const_cast<char*>(kThreshold.c_str()));
    out.push_back(nullptr);
    return out;
  }();
  return env;
}

}  // namespace

void PinClient() {
  const CpuSplit& cpus = Cpus();
  if (cpus.split) ::sched_setaffinity(0, sizeof(cpus.client), &cpus.client);
}

void Fail(const std::string& message) {
  std::vector<pid_t> children;
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    children.swap(g_children);
  }
  Reap(children);
  std::fprintf(stderr, "useful_bench: %s\n", message.c_str());
  std::fflush(stdout);
  std::_Exit(1);
}

Fleet::Fleet(const WorkloadSpec& spec, const Testbed& tb, const Binaries& bin,
             const std::string& run_dir, std::uint32_t trace_rate)
    : run_dir_(run_dir) {
  std::filesystem::create_directories(run_dir_);
  const std::vector<std::string> trace = {"--trace-sample-rate",
                                          std::to_string(trace_rate)};
  auto with = [&](std::vector<std::string> flags,
                  const std::vector<std::string>& paths) {
    flags.insert(flags.end(), trace.begin(), trace.end());
    flags.insert(flags.end(), paths.begin(), paths.end());
    return flags;
  };
  if (spec.topology != Topology::kCluster) {
    entry_port_ = Spawn("served", bin.served,
                        with(ServedFlags(), ServedPaths(spec.topology, tb)));
    return;
  }
  // Shards start concurrently; the front-end needs all their ports.
  std::vector<std::pair<std::string, pid_t>> launched;
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t r = 0; r < kReplicas; ++r) {
      std::string name = "shard" + std::to_string(s) + "r" + std::to_string(r);
      std::vector<std::string> args = with(ShardFlags(s), ShardPaths(s, tb));
      launched.emplace_back(name, Launch(name, bin.served, std::move(args)));
    }
  }
  std::string cluster;
  shard_ports_.assign(kShards, {});
  for (std::size_t i = 0; i < launched.size(); ++i) {
    std::size_t s = i / kReplicas;
    std::uint16_t port = AwaitPort(launched[i].first, launched[i].second);
    shard_ports_[s].push_back(port);
    if (i % kReplicas == 0 && s > 0) cluster += '|';
    if (i % kReplicas != 0) cluster += ',';
    cluster += "127.0.0.1:" + std::to_string(port);
  }
  entry_port_ = Spawn("frontend", bin.frontend,
                      with(FrontendFlags(), {"--cluster", cluster}));
}

Fleet::~Fleet() {
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    for (pid_t pid : pids_) {
      g_children.erase(std::remove(g_children.begin(), g_children.end(), pid),
                       g_children.end());
    }
  }
  Reap(pids_);
}

pid_t Fleet::Launch(const std::string& name, const std::string& binary,
                    std::vector<std::string> args) {
  const std::string port_file = run_dir_ + "/" + name + ".port";
  const std::string log = run_dir_ + "/" + name + ".log";
  std::filesystem::remove(port_file);
  args.insert(args.begin(), {binary, "--port", "0", "--port-file", port_file});
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = 0;
  const CpuSplit& cpus = Cpus();
  cpu_set_t saved;
  if (cpus.split) {
    ::sched_getaffinity(0, sizeof(saved), &saved);
    ::sched_setaffinity(0, sizeof(cpus.servers), &cpus.servers);
  }
  int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(),
                       ServerEnvironment().data());
  if (cpus.split) ::sched_setaffinity(0, sizeof(saved), &saved);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) Fail("cannot spawn " + binary);
  pids_.push_back(pid);
  std::lock_guard<std::mutex> lock(g_children_mu);
  g_children.push_back(pid);
  return pid;
}

std::uint16_t Fleet::AwaitPort(const std::string& name, pid_t pid) {
  const std::string port_file = run_dir_ + "/" + name + ".port";
  const std::int64_t deadline = NowNs() + 60'000'000'000;
  for (;;) {
    // The server writes the file aside and renames it: existence means
    // the port inside is complete.
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port > 0 && port < 65536) {
      return static_cast<std::uint16_t>(port);
    }
    if (::waitpid(pid, nullptr, WNOHANG) == pid) {
      pids_.erase(std::remove(pids_.begin(), pids_.end(), pid), pids_.end());
      Fail(name + " exited during start-up:\n" + Tail(run_dir_ + "/" + name +
                                                      ".log"));
    }
    if (NowNs() > deadline) Fail(name + " never published its port");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::uint16_t Fleet::Spawn(const std::string& name, const std::string& binary,
                           std::vector<std::string> args) {
  return AwaitPort(name, Launch(name, binary, std::move(args)));
}

double Fleet::CpuSeconds() const {
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double total = 0.0;
  for (pid_t pid : pids_) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t name_end = stat.rfind(')');
    if (name_end == std::string::npos) Fail("a server process is gone");
    // Fields after the parenthesized command name: state is field 3,
    // utime and stime are fields 14 and 15.
    std::istringstream rest(stat.substr(name_end + 1));
    std::string field;
    double utime = 0, stime = 0;
    for (int f = 3; f <= 15 && rest >> field; ++f) {
      if (f == 14) utime = std::strtod(field.c_str(), nullptr);
      if (f == 15) stime = std::strtod(field.c_str(), nullptr);
    }
    total += (utime + stime) / ticks;
  }
  return total;
}

double Fleet::StatusMiB(const std::string& field) const {
  double kib = 0.0;
  for (pid_t pid : pids_) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(field, 0) == 0) {
        kib += std::strtod(line.c_str() + field.size(), nullptr);
        break;
      }
    }
  }
  return kib / 1024.0;
}

double Fleet::RssMiB() const { return StatusMiB("VmRSS:"); }

double Fleet::PeakRssMiB() const { return StatusMiB("VmHWM:"); }

}  // namespace useful::e2e
