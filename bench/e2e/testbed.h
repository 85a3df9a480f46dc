// The benchmark's fixed input files, built once per checkout from the
// synthetic testbed (53 newsgroups and the 6,234-query log) and cached
// under a directory of the build tree. Every workload reads its
// representatives from here; only the request stream depends on --seed.
#pragma once

#include <string>
#include <vector>

namespace useful::e2e {

struct Testbed {
  std::string dir;
  /// The 53 engine names, in testbed order.
  std::vector<std::string> engines;
  /// The query log's texts, in log order.
  std::vector<std::string> queries;

  /// URP1 representative of one engine.
  std::string RepPath(const std::string& engine) const;
  /// Single-engine URPZ store of one engine (the churn UPDATE payload).
  std::string SinglePackPath(const std::string& engine) const;
  /// Every engine in one URPZ store.
  std::string PackedPath() const { return dir + "/packed.urpz"; }
  /// The churn ADD/DROP engine ("D2", not one of the 53).
  static constexpr const char* kExtraEngine = "D2";
  std::string ExtraRepPath() const { return dir + "/extra.rep"; }
  std::string ExtraPackPath() const { return dir + "/extra.urpz"; }
  /// URP1 paths of all 53 engines.
  std::vector<std::string> AllRepPaths() const;
};

/// Builds the files under `dir` unless a complete earlier build is there.
/// Exits the process on failure.
void PrepareTestbed(const std::string& dir);

/// Reads a prepared testbed. Exits the process when it is missing.
Testbed LoadTestbed(const std::string& dir);

}  // namespace useful::e2e
