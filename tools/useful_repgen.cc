// useful_repgen: builds the binary representative file for a collection —
// the artifact a local search engine would ship to the metasearch broker.
//
//   useful_repgen <collection.trec> <out.rep> [--triplet] [--quantize]
//   useful_repgen <collection.trec>... <out.urpz> --pack [--triplet]
//
// With --pack, every input collection becomes one engine inside a single
// mmap-able URPZ store (always byte-quantized; see src/represent/store.h).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "corpus/io.h"
#include "ir/search_engine.h"
#include "represent/builder.h"
#include "represent/quantized.h"
#include "represent/serialize.h"
#include "represent/store.h"
#include "util/string_util.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: useful_repgen <collection.trec> <out.rep> "
               "[--triplet] [--quantize]\n"
               "       useful_repgen <collection.trec>... <out.urpz> "
               "--pack [--triplet]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace useful;
  represent::RepresentativeKind kind =
      represent::RepresentativeKind::kQuadruplet;
  bool quantize = false;
  bool pack = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--triplet") == 0) {
      kind = represent::RepresentativeKind::kTriplet;
    } else if (std::strcmp(argv[i], "--quantize") == 0) {
      quantize = true;
    } else if (std::strcmp(argv[i], "--pack") == 0) {
      pack = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 2) return Usage();
  if (!pack && positional.size() != 2) return Usage();
  const std::string out_path = positional.back();
  positional.pop_back();

  text::Analyzer analyzer;
  // Built representatives; for --pack they all feed one EncodeStore call.
  std::vector<represent::Representative> reps;
  reps.reserve(positional.size());
  for (const std::string& input : positional) {
    auto collection = corpus::LoadCollection(input);
    if (!collection.ok()) {
      std::fprintf(stderr, "load: %s\n",
                   collection.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded %s: %zu docs, %s of text\n",
                collection.value().name().c_str(), collection.value().size(),
                HumanBytes(collection.value().TextBytes()).c_str());

    ir::SearchEngine engine(collection.value().name(), &analyzer);
    if (Status s = engine.AddCollection(collection.value()); !s.ok()) {
      std::fprintf(stderr, "index: %s\n", s.ToString().c_str());
      return 1;
    }
    if (Status s = engine.Finalize(); !s.ok()) {
      std::fprintf(stderr, "finalize: %s\n", s.ToString().c_str());
      return 1;
    }
    auto rep = represent::BuildRepresentative(engine, kind);
    if (!rep.ok()) {
      std::fprintf(stderr, "build: %s\n", rep.status().ToString().c_str());
      return 1;
    }
    reps.push_back(std::move(rep).value());
  }

  if (pack) {
    std::vector<const represent::Representative*> ptrs;
    ptrs.reserve(reps.size());
    for (const represent::Representative& r : reps) ptrs.push_back(&r);
    if (Status s = represent::PackStoreToFile(ptrs, out_path); !s.ok()) {
      std::fprintf(stderr, "pack: %s\n", s.ToString().c_str());
      return 1;
    }
    std::size_t total_terms = 0;
    for (const represent::Representative& r : reps) {
      total_terms += r.num_terms();
    }
    std::printf("packed %s: %zu engines, %zu terms\n", out_path.c_str(),
                reps.size(), total_terms);
    return 0;
  }

  represent::Representative final_rep = std::move(reps.front());
  if (quantize) {
    auto q = represent::QuantizeRepresentative(final_rep);
    if (!q.ok()) {
      std::fprintf(stderr, "quantize: %s\n", q.status().ToString().c_str());
      return 1;
    }
    final_rep = std::move(q).value().representative;
  }

  if (Status s = represent::SaveRepresentative(final_rep, out_path);
      !s.ok()) {
    std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote %s: %zu terms, n=%zu, %s (paper accounting: %s%s)\n",
      out_path.c_str(), final_rep.num_terms(), final_rep.num_docs(),
      kind == represent::RepresentativeKind::kQuadruplet ? "quadruplets"
                                                         : "triplets",
      HumanBytes(final_rep.PaperBytes(quantize ? 1 : 4)).c_str(),
      quantize ? ", one-byte numbers" : "");
  return 0;
}
