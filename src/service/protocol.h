// The broker service's line-delimited text protocol.
//
// Requests are single lines of whitespace-separated tokens:
//
//   ROUTE <estimator> <threshold> <topk> <query terms...>
//   ESTIMATE <estimator> <threshold> <query terms...>
//   STATS
//   METRICS
//   SLOWLOG [n]
//   RELOAD
//   ADD <path>
//   DROP <engine>
//   UPDATE <path>
//   QUIT
//
// ADD/DROP/UPDATE are the live-churn verbs (DESIGN.md §14): ADD registers
// the engines of a representative file (.rep or packed .urpz) into a
// copy-on-write snapshot clone, DROP removes one engine by name, UPDATE
// replaces the representatives of engines already registered. The
// argument is a single whitespace-free token — paths with spaces can't
// be spelled in a space-separated line protocol, and representative
// files are tool-generated, so that restriction costs nothing.
//
// ROUTE applies the selection policy (the paper's rounded-NoDoc >= 1 rule,
// capped at <topk> engines when topk > 0); ESTIMATE returns the full
// ranked estimate list for every registered engine. STATS is the legacy
// human-oriented "key value" dump; METRICS is the same registry in
// Prometheus text-exposition 0.0.4 (scrapeable); SLOWLOG dumps the
// retained slow-query traces, slowest first, capped at n when n > 0.
//
// Query terms use the annotated grammar of ir::ParseAnnotatedQuery
// (DESIGN.md §13):
//
//   <query terms...> := term-token+ | term-token* "MSM" <k> term-token*
//   term-token       := ["-"] <text> ["^" <weight>]
//
// `term^2.5` weights a term, `-term` negates it (containing documents are
// penalized), and the reserved pair `MSM <k>` (at most once, 0 <= k <=
// ir::kMaxMinShouldMatch) requires documents to match at least k positive
// terms. This layer stays grammar-agnostic: the tokens after the fixed
// fields are re-joined verbatim into Request::query_text, and the service
// parses them with ParseAnnotatedQuery (malformed annotations become an
// "ERR InvalidArgument:" reply). The cluster front-end likewise forwards
// query_text verbatim, so fronted replies stay byte-identical.
// Responses are framed
// so a client never has to guess where one ends:
//
//   OK <n>\n            followed by exactly n payload lines, or
//   ERR <Code>: <msg>\n with no payload.
//
// Parsing and rendering live here, socket-free, so the framing is unit
// testable and shared by the server, the clients, and the tests: the
// server renders with RenderReply, and every client — the front-end's
// shard connections, useful_client and useful_faultclient —
// reads with ReplyReader.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace useful::service {
using useful::Result;
using useful::Status;

/// The protocol's commands. kCount_ is a sentinel for array sizing.
enum class CommandKind {
  kRoute = 0,
  kEstimate,
  kStats,
  kMetrics,
  kSlowlog,
  kReload,
  kAdd,
  kDrop,
  kUpdate,
  kQuit,
  kCount_,
};

/// Number of real commands.
inline constexpr std::size_t kNumCommands =
    static_cast<std::size_t>(CommandKind::kCount_);

/// Lower-case wire-adjacent name ("route", "estimate", ...) for stats keys.
const char* CommandName(CommandKind kind);

/// Upper bound accepted for ROUTE's <topk>. Far above any plausible engine
/// registry; mainly rejects garbage like "-1" wrapped through strtoul.
inline constexpr std::size_t kMaxTopK = 1u << 20;

/// Upper bound accepted for SLOWLOG's optional <n>. The log itself holds
/// far fewer entries; the cap only rejects garbage counts.
inline constexpr std::size_t kMaxSlowlogEntries = 1u << 16;

/// Upper bound accepted for the payload-line count in an "OK <n>" header.
/// Caps how long a client will loop reading payload from a corrupt or
/// hostile server before declaring the stream broken.
inline constexpr std::size_t kMaxPayloadLines = 1u << 24;

/// One parsed request line.
struct Request {
  CommandKind kind = CommandKind::kQuit;
  std::string estimator;    // ROUTE / ESTIMATE
  double threshold = 0.0;   // ROUTE / ESTIMATE
  std::size_t topk = 0;     // ROUTE; 0 = paper rule only
  std::size_t slowlog_n = 0;  // SLOWLOG; 0 = every retained entry
  std::string query_text;   // ROUTE / ESTIMATE: raw terms, re-joined
  std::string argument;     // ADD / UPDATE: path; DROP: engine name
};

/// Parses one request line (no trailing newline). Errors name the offending
/// token and, for an unknown command, list the known ones.
Result<Request> ParseRequest(std::string_view line);

/// Serializes a score (NoDoc / AvgSim) for the wire. %.17g prints enough
/// significant digits that every finite double — including denormals and
/// signed zeros — parses back bit-exactly; a client or cache that
/// re-serializes a score can never drift from the server.
std::string FormatScore(double value);

/// Appends FormatScore(value) to `*out` without building a string: the
/// bytes of printf("%.17g"), through std::to_chars with the same format
/// and precision, which the standard defines as printf's.
void AppendScore(std::string* out, double value);

/// Parses one score token. Fails unless the entire token is consumed; the
/// value is whatever strtod yields (including infinities, which FormatScore
/// also round-trips — estimators never produce NaN, but the parser is a
/// plain inverse, not a validator).
Result<double> ParseScore(std::string_view token);

/// "OK <n>" — announces n payload lines. With `degraded`, "OK <n> DEGRADED":
/// the cluster front-end's marker that the answer is live but incomplete
/// (a whole shard was unreachable and its engines are missing).
std::string FormatOkHeader(std::size_t payload_lines, bool degraded = false);

/// "ERR <Code>: <message>" for a non-OK status.
std::string FormatErrorHeader(const Status& status);

/// A client-side view of a response header line.
struct ResponseHeader {
  bool ok = false;
  std::size_t payload_lines = 0;  // valid when ok
  bool degraded = false;          // valid when ok: "OK <n> DEGRADED"
  std::string error;              // valid when !ok ("<Code>: <msg>")
};

/// Parses "OK <n>[ DEGRADED]" / "ERR ..." header lines; fails on anything
/// else (the DEGRADED token is matched strictly — exactly one space, exact
/// capitalization, nothing after it).
Result<ResponseHeader> ParseResponseHeader(std::string_view line);

/// Outcome of one request line, rendered by the transport as an
/// "OK <n>[ DEGRADED]" or "ERR <Code>: <msg>" header plus payload.
struct Reply {
  Status status;                     // !ok(): send ERR, no payload
  std::vector<std::string> payload;  // lines after the OK header
  /// Cluster tier: the answer is live but incomplete — one or more whole
  /// shards were unreachable and their engines are missing from the
  /// ranking. Rendered as a DEGRADED token on the OK header so clients
  /// can distinguish "empty because nothing matched" from "empty because
  /// the cluster is limping". Meaningless (always false) on ERR replies.
  bool degraded = false;
  bool close_connection = false;  // QUIT: close after responding
  bool shutdown_server = false;   // QUIT: stop accepting, drain, exit
};

/// Builds the full wire response for one reply: header line plus payload.
std::string RenderReply(const Reply& reply);

/// Longest reply line, header or payload, a client accepts; a longer one
/// marks the stream corrupt.
inline constexpr std::size_t kMaxReplyLineBytes = 1u << 20;

/// The client side of the framing, and its inverse of RenderReply: fed
/// the bytes a connection receives, split anywhere, it yields the
/// replies they frame, in order. An "ERR <Code>: <msg>" header becomes
/// the Status that rendered it (Status::FromString); a code this build
/// does not name becomes Unavailable("shard error: <Code>: <msg>"). One
/// reader per connection; not thread-safe.
class ReplyReader {
 public:
  /// Appends received bytes.
  void Feed(std::string_view bytes);

  /// Moves the next complete reply into *reply and returns true, or
  /// returns false when the bytes fed so far end mid-reply. A malformed
  /// header or a line over kMaxReplyLineBytes is Corruption, after which
  /// the stream is lost: read another connection with a fresh reader.
  Result<bool> Next(Reply* reply);

  /// True when every byte fed so far went into a reply Next returned.
  bool empty() const { return off_ == buf_.size() && remaining_ == 0; }

 private:
  std::string buf_;            // fed bytes; the first off_ are consumed
  std::size_t off_ = 0;
  Reply pending_;              // the reply whose payload is being read
  std::size_t remaining_ = 0;  // payload lines pending_ still lacks
};

}  // namespace useful::service
