#include "estimate/registry.h"

#include <cstdint>
#include <optional>
#include <string_view>

#include "estimate/adaptive_estimator.h"
#include "estimate/basic_estimator.h"
#include "estimate/gloss_estimators.h"
#include "estimate/subrange_estimator.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace useful::estimate {

Result<std::unique_ptr<UsefulnessEstimator>> MakeEstimator(
    const std::string& name) {
  if (name == "subrange") {
    return std::unique_ptr<UsefulnessEstimator>(new SubrangeEstimator());
  }
  if (name == "subrange-nomax") {
    auto config = SubrangeConfig::Custom(
        SubrangeConfig::PaperSix().subranges(), /*with_max_subrange=*/false);
    if (!config.ok()) return config.status();
    SubrangeEstimatorOptions opts;
    opts.config = std::move(config).value();
    return std::unique_ptr<UsefulnessEstimator>(
        new SubrangeEstimator(std::move(opts)));
  }
  if (StartsWith(name, "subrange-k")) {
    // One spelling per estimator: N as decimal digits with no sign, space
    // or leading zero (which also rules out 0), since a served estimator
    // is built and cached under the name the client sent.
    const std::string_view digits = std::string_view(name).substr(10);
    const std::optional<std::uint64_t> k = util::ParseUnsigned(digits, 64);
    if (!k.has_value() || digits[0] == '0') {
      return Status::InvalidArgument("bad subrange-k<N> spec: " + name);
    }
    auto config = SubrangeConfig::Uniform(static_cast<std::size_t>(*k),
                                          /*with_max_subrange=*/true);
    if (!config.ok()) return config.status();
    SubrangeEstimatorOptions opts;
    opts.config = std::move(config).value();
    return std::unique_ptr<UsefulnessEstimator>(
        new SubrangeEstimator(std::move(opts)));
  }
  if (name == "basic") {
    return std::unique_ptr<UsefulnessEstimator>(new BasicEstimator());
  }
  if (name == "adaptive") {
    return std::unique_ptr<UsefulnessEstimator>(new AdaptiveEstimator());
  }
  if (name == "high-correlation") {
    return std::unique_ptr<UsefulnessEstimator>(
        new HighCorrelationEstimator());
  }
  if (name == "disjoint") {
    return std::unique_ptr<UsefulnessEstimator>(new DisjointEstimator());
  }
  // List the registered names so the CLI error is self-serving; built
  // from KnownEstimators() so the list can never drift from the registry.
  return Status::NotFound("unknown estimator: " + name + " (try: " +
                          Join(KnownEstimators(), ", ") +
                          ", subrange-k<N>)");
}

std::vector<std::string> KnownEstimators() {
  return {"subrange",  "subrange-nomax",   "basic",
          "adaptive",  "high-correlation", "disjoint"};
}

}  // namespace useful::estimate
