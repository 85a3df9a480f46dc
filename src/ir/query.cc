#include "ir/query.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "util/flags.h"

namespace useful::ir {

Query ParseQuery(const text::Analyzer& analyzer, std::string_view text,
                 std::string id) {
  Query q;
  q.id = std::move(id);

  std::map<std::string, double> tf;  // ordered: deterministic term order
  for (std::string& token : analyzer.Analyze(text)) {
    tf[std::move(token)] += 1.0;
  }
  if (tf.empty()) return q;

  double norm_sq = 0.0;
  for (const auto& [term, f] : tf) norm_sq += f * f;
  double inv_norm = 1.0 / std::sqrt(norm_sq);

  q.terms.reserve(tf.size());
  for (auto& [term, f] : tf) {
    q.terms.push_back(QueryTerm{term, f * inv_norm});
  }
  return q;
}

namespace {

/// Strict non-negative integer: digits only, no sign, no trailing bytes.
bool ParseStrictCount(std::string_view token, std::size_t* out) {
  if (token.empty()) return false;
  std::size_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    if (value > (kMaxMinShouldMatch + 1)) continue;  // saturate, still valid
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = value;
  return true;
}

struct TermAccumulator {
  double f = 0.0;
  bool negated = false;
};

}  // namespace

Result<Query> ParseAnnotatedQuery(const text::Analyzer& analyzer,
                                  std::string_view text, std::string id) {
  Query q;
  q.id = std::move(id);

  // Whitespace-split first: '-', '^', and MSM are annotations of whole
  // tokens, and the analyzer may not preserve token boundaries.
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    std::size_t start = pos;
    while (pos < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos > start) tokens.push_back(text.substr(start, pos - start));
  }

  std::map<std::string, TermAccumulator> tf;
  bool saw_msm = false;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::string_view token = tokens[i];
    if (token == "MSM") {
      if (saw_msm) {
        return Status::InvalidArgument("duplicate MSM clause");
      }
      if (i + 1 >= tokens.size()) {
        return Status::InvalidArgument("MSM requires a count");
      }
      std::size_t k = 0;
      if (!ParseStrictCount(tokens[++i], &k) || k > kMaxMinShouldMatch) {
        return Status::InvalidArgument("bad MSM count '" +
                                       std::string(tokens[i]) + "'");
      }
      q.min_should_match = k;
      saw_msm = true;
      continue;
    }

    bool negated = false;
    if (token.front() == '-') {
      token.remove_prefix(1);
      if (token.empty()) {
        return Status::InvalidArgument("dangling '-' with no term");
      }
      negated = true;
    }

    double multiplier = 1.0;
    if (std::size_t caret = token.rfind('^'); caret != std::string_view::npos) {
      std::string_view weight_text = token.substr(caret + 1);
      const std::optional<double> weight = util::ParseDouble(weight_text);
      if (!weight.has_value() || !(*weight > 0.0)) {
        return Status::InvalidArgument("bad term weight '" +
                                       std::string(weight_text) + "'");
      }
      multiplier = *weight;
      token = token.substr(0, caret);
    }

    // The analyzer may expand one token into several (or none, for
    // stopwords); every produced term inherits the annotation.
    for (std::string& analyzed : analyzer.Analyze(token)) {
      auto [it, inserted] =
          tf.try_emplace(std::move(analyzed), TermAccumulator{});
      if (!inserted && it->second.negated != negated) {
        return Status::InvalidArgument("term '" + it->first +
                                       "' is both negated and positive");
      }
      it->second.f += multiplier;
      it->second.negated = negated;
    }
  }
  if (tf.empty()) return q;

  double norm_sq = 0.0;
  for (const auto& [term, acc] : tf) norm_sq += acc.f * acc.f;
  double inv_norm = 1.0 / std::sqrt(norm_sq);

  q.terms.reserve(tf.size());
  for (auto& [term, acc] : tf) {
    q.terms.push_back(QueryTerm{term, acc.f * inv_norm, acc.f, acc.negated});
  }
  return q;
}

std::string FormatAnnotatedQuery(const Query& q) {
  std::string out;
  for (const QueryTerm& qt : q.terms) {
    if (!out.empty()) out += ' ';
    if (qt.negated) out += '-';
    out += qt.term;
    if (qt.user_weight != 1.0) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "^%.17g", qt.user_weight);
      out += buf;
    }
  }
  if (q.min_should_match > 0) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), " MSM %zu", q.min_should_match);
    out += buf;
  }
  return out;
}

}  // namespace useful::ir
