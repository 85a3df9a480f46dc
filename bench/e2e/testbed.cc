#include "testbed.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "common.h"
#include "corpus/newsgroup_sim.h"
#include "corpus/query_log.h"
#include "ir/search_engine.h"
#include "represent/builder.h"
#include "represent/serialize.h"
#include "represent/store.h"
#include "text/analyzer.h"

namespace useful::e2e {

namespace fs = std::filesystem;

namespace {

represent::Representative BuildRep(const text::Analyzer& analyzer,
                                   const corpus::Collection& collection) {
  ir::SearchEngine engine(collection.name(), &analyzer);
  Check(engine.AddCollection(collection), "index " + collection.name());
  Check(engine.Finalize(), "index " + collection.name());
  return Check(represent::BuildRepresentative(engine),
               "representative " + collection.name());
}

void WriteLines(const std::string& path,
                const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
  if (!out.good()) Fail("cannot write " + path);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) Fail("missing testbed file " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

}  // namespace

std::string Testbed::RepPath(const std::string& engine) const {
  return dir + "/reps/" + engine + ".rep";
}

std::string Testbed::SinglePackPath(const std::string& engine) const {
  return dir + "/single/" + engine + ".urpz";
}

std::vector<std::string> Testbed::AllRepPaths() const {
  std::vector<std::string> paths;
  for (const std::string& engine : engines) paths.push_back(RepPath(engine));
  return paths;
}

void PrepareTestbed(const std::string& dir) {
  if (fs::exists(dir)) return;
  // Built aside and renamed into place, so an interrupted build never
  // passes for a complete one.
  const std::string tmp = dir + ".tmp";
  fs::remove_all(tmp);
  fs::create_directories(tmp + "/reps");
  fs::create_directories(tmp + "/single");
  Testbed out{tmp, {}, {}};

  text::Analyzer analyzer;
  corpus::NewsgroupSimulator sim;
  std::vector<represent::Representative> reps;
  for (const corpus::Collection& group : sim.groups()) {
    reps.push_back(BuildRep(analyzer, group));
    const represent::Representative& rep = reps.back();
    out.engines.push_back(rep.engine_name());
    Check(represent::SaveRepresentative(rep, out.RepPath(rep.engine_name())),
          "save " + rep.engine_name());
    Check(represent::PackStoreToFile({&rep},
                                     out.SinglePackPath(rep.engine_name())),
          "pack " + rep.engine_name());
  }
  std::vector<const represent::Representative*> all;
  for (const represent::Representative& rep : reps) all.push_back(&rep);
  Check(represent::PackStoreToFile(all, out.PackedPath()), "pack all");

  represent::Representative extra = BuildRep(analyzer, sim.BuildD2());
  if (extra.engine_name() != Testbed::kExtraEngine) {
    Fail("unexpected extra engine name " + extra.engine_name());
  }
  Check(represent::SaveRepresentative(extra, out.ExtraRepPath()),
        "save extra");
  Check(represent::PackStoreToFile({&extra}, out.ExtraPackPath()),
        "pack extra");

  for (const corpus::Query& q : corpus::QueryLogGenerator().Generate(sim)) {
    out.queries.push_back(q.text);
  }
  WriteLines(tmp + "/engines.txt", out.engines);
  WriteLines(tmp + "/queries.txt", out.queries);
  fs::rename(tmp, dir);
}

Testbed LoadTestbed(const std::string& dir) {
  Testbed tb{dir, ReadLines(dir + "/engines.txt"),
             ReadLines(dir + "/queries.txt")};
  if (tb.engines.empty() || tb.queries.empty()) Fail("empty testbed " + dir);
  return tb;
}

}  // namespace useful::e2e
