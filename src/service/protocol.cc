#include "service/protocol.h"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <utility>

#include "util/flags.h"
#include "util/string_util.h"

namespace useful::service {

namespace {

constexpr std::string_view kKnownCommands =
    "ROUTE, ESTIMATE, STATS, METRICS, SLOWLOG, RELOAD, ADD, DROP, UPDATE, "
    "QUIT";

Result<double> ParseThreshold(std::string_view token) {
  const std::optional<double> value = util::ParseDouble(token);
  if (!value.has_value() || *value < 0.0) {
    return Status::InvalidArgument("bad threshold: " + std::string(token));
  }
  return *value;
}

/// Strict non-negative decimal parse (util::ParseUnsigned). Unlike bare
/// strtoul this rejects sign characters (strtoul silently wraps "-1" to
/// 2^64-1), leading whitespace, and overflow, and enforces an explicit cap
/// — the three ways a count token can smuggle in a giant value.
bool ParseCount(std::string_view token, std::size_t max, std::size_t* out) {
  const std::optional<std::uint64_t> value = util::ParseUnsigned(token, max);
  if (value.has_value()) *out = static_cast<std::size_t>(*value);
  return value.has_value();
}

Result<std::size_t> ParseTopK(std::string_view token) {
  std::size_t value = 0;
  if (!ParseCount(token, kMaxTopK, &value)) {
    return Status::InvalidArgument("bad topk: " + std::string(token));
  }
  return value;
}

/// Re-joins query tokens with single spaces; the analyzer re-splits anyway.
std::string JoinQuery(const std::vector<std::string_view>& tokens,
                      std::size_t first) {
  std::string out;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    if (!out.empty()) out.push_back(' ');
    out.append(tokens[i]);
  }
  return out;
}

}  // namespace

std::string FormatScore(double value) {
  std::string out;
  AppendScore(&out, value);
  return out;
}

void AppendScore(std::string* out, double value) {
  // The longest %.17g output is 24 bytes: a sign, 17 digits, a point and
  // an exponent like "e-308".
  char buf[32];
  const std::to_chars_result printed = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out->append(buf, printed.ptr);
}

Result<double> ParseScore(std::string_view token) {
  if (token.empty()) return Status::InvalidArgument("empty score");
  std::string copy(token);
  char* end = nullptr;
  double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) {
    return Status::InvalidArgument("bad score: " + copy);
  }
  return value;
}

const char* CommandName(CommandKind kind) {
  switch (kind) {
    case CommandKind::kRoute:
      return "route";
    case CommandKind::kEstimate:
      return "estimate";
    case CommandKind::kStats:
      return "stats";
    case CommandKind::kMetrics:
      return "metrics";
    case CommandKind::kSlowlog:
      return "slowlog";
    case CommandKind::kReload:
      return "reload";
    case CommandKind::kAdd:
      return "add";
    case CommandKind::kDrop:
      return "drop";
    case CommandKind::kUpdate:
      return "update";
    case CommandKind::kQuit:
      return "quit";
    case CommandKind::kCount_:
      break;
  }
  return "unknown";
}

Result<Request> ParseRequest(std::string_view line) {
  std::vector<std::string_view> tokens = SplitNonEmpty(line, " \t\r");
  if (tokens.empty()) return Status::InvalidArgument("empty request");
  std::string_view cmd = tokens[0];

  Request req;
  if (cmd == "STATS" || cmd == "METRICS" || cmd == "RELOAD" ||
      cmd == "QUIT") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument(std::string(cmd) +
                                     " takes no arguments");
    }
    req.kind = cmd == "STATS"     ? CommandKind::kStats
               : cmd == "METRICS" ? CommandKind::kMetrics
               : cmd == "RELOAD"  ? CommandKind::kReload
                                  : CommandKind::kQuit;
    return req;
  }

  if (cmd == "SLOWLOG") {
    if (tokens.size() > 2) {
      return Status::InvalidArgument("SLOWLOG takes at most one argument");
    }
    req.kind = CommandKind::kSlowlog;
    if (tokens.size() == 2 &&
        !ParseCount(tokens[1], kMaxSlowlogEntries, &req.slowlog_n)) {
      return Status::InvalidArgument("bad slowlog count: " +
                                     std::string(tokens[1]));
    }
    return req;
  }

  if (cmd == "ADD" || cmd == "DROP" || cmd == "UPDATE") {
    // Exactly one whitespace-free argument: a path (ADD/UPDATE) or an
    // engine name (DROP). Spaces can't be escaped in this protocol, so
    // a two-plus-token line is rejected rather than silently re-joined.
    if (tokens.size() != 2) {
      return Status::InvalidArgument(
          std::string(cmd) + " needs exactly one argument: " +
          (cmd == "DROP" ? "<engine>" : "<path>"));
    }
    req.kind = cmd == "ADD"    ? CommandKind::kAdd
               : cmd == "DROP" ? CommandKind::kDrop
                               : CommandKind::kUpdate;
    req.argument = std::string(tokens[1]);
    return req;
  }

  if (cmd == "ROUTE" || cmd == "ESTIMATE") {
    bool route = cmd == "ROUTE";
    // ROUTE estimator threshold topk query... / ESTIMATE estimator
    // threshold query...
    std::size_t fixed = route ? 4 : 3;
    if (tokens.size() < fixed + 1) {
      return Status::InvalidArgument(
          std::string(cmd) + " needs: <estimator> <threshold> " +
          (route ? "<topk> " : "") + "<query terms...>");
    }
    req.kind = route ? CommandKind::kRoute : CommandKind::kEstimate;
    req.estimator = std::string(tokens[1]);
    auto threshold = ParseThreshold(tokens[2]);
    if (!threshold.ok()) return threshold.status();
    req.threshold = threshold.value();
    if (route) {
      auto topk = ParseTopK(tokens[3]);
      if (!topk.ok()) return topk.status();
      req.topk = topk.value();
    }
    req.query_text = JoinQuery(tokens, fixed);
    return req;
  }

  return Status::InvalidArgument("unknown command: " + std::string(cmd) +
                                 " (commands: " + std::string(kKnownCommands) +
                                 ")");
}

std::string FormatOkHeader(std::size_t payload_lines, bool degraded) {
  std::string header = StringPrintf("OK %zu", payload_lines);
  if (degraded) header += " DEGRADED";
  return header;
}

std::string FormatErrorHeader(const Status& status) {
  return "ERR " + status.ToString();
}

Result<ResponseHeader> ParseResponseHeader(std::string_view line) {
  ResponseHeader header;
  if (StartsWith(line, "OK ")) {
    std::string_view rest = line.substr(3);
    constexpr std::string_view kDegraded = " DEGRADED";
    if (rest.size() >= kDegraded.size() &&
        rest.substr(rest.size() - kDegraded.size()) == kDegraded) {
      header.degraded = true;
      rest = rest.substr(0, rest.size() - kDegraded.size());
    }
    std::size_t n = 0;
    if (!ParseCount(rest, kMaxPayloadLines, &n)) {
      return Status::Corruption("bad OK header: " + std::string(line));
    }
    header.ok = true;
    header.payload_lines = n;
    return header;
  }
  if (StartsWith(line, "ERR ")) {
    header.ok = false;
    header.error = std::string(line.substr(4));
    return header;
  }
  return Status::Corruption("bad response header: " + std::string(line));
}

std::string RenderReply(const Reply& reply) {
  if (!reply.status.ok()) return FormatErrorHeader(reply.status) + '\n';
  std::string out = FormatOkHeader(reply.payload.size(), reply.degraded);
  out.push_back('\n');
  for (const std::string& line : reply.payload) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

void ReplyReader::Feed(std::string_view bytes) {
  buf_.erase(0, off_);
  off_ = 0;
  buf_.append(bytes);
}

Result<bool> ReplyReader::Next(Reply* reply) {
  for (;;) {
    const std::size_t eol = buf_.find('\n', off_);
    const std::size_t length =
        (eol == std::string::npos ? buf_.size() : eol) - off_;
    if (length > kMaxReplyLineBytes) {
      return Status::Corruption(StringPrintf(
          "reply line longer than %zu bytes", kMaxReplyLineBytes));
    }
    if (eol == std::string::npos) return false;
    std::string_view line(buf_.data() + off_, length);
    off_ = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

    if (remaining_ > 0) {
      pending_.payload.emplace_back(line);
      if (--remaining_ > 0) continue;
    } else {
      Result<ResponseHeader> header = ParseResponseHeader(line);
      if (!header.ok()) return header.status();
      pending_ = Reply{};
      if (!header.value().ok) {
        const std::string& text = header.value().error;
        pending_.status = Status::FromString(text).value_or(
            Status::Unavailable("shard error: " + text));
      }
      pending_.degraded = header.value().degraded;
      remaining_ = header.value().payload_lines;
      if (remaining_ > 0) continue;
    }
    *reply = std::move(pending_);
    return true;
  }
}

}  // namespace useful::service
