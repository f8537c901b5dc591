// The load generator: its own small HTTP/1.1 client over raw sockets (it
// shares no code with src/http, so a change there moves only the server
// side). One thread per keep-alive connection; connection i talks to node
// i mod N. Requests are numbered; a free connection claims the next one.
// The open loop sends each at its due time and times it from then; the
// closed loop sends back to back.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Kind : std::uint8_t { kDynamic, kStatic, kAdmin };

struct Request {
  Kind kind = Kind::kDynamic;
  bool post = false;
  std::string target;
};

/// Client-side outcome, from the X-Swala-Cache header (dynamic requests).
enum class Outcome : std::uint8_t {
  kHitLocal,
  kHitRemote,
  kHitCoalesced,
  kMiss,
  kFailedFast,
  kStatic,
  kAdmin,
  kError,  ///< no response, refused, torn, or an unknown cache state
};
inline constexpr int kOutcomeCount = 8;
const char* outcome_name(Outcome outcome);
inline bool is_hit(Outcome o) {
  return o == Outcome::kHitLocal || o == Outcome::kHitRemote ||
         o == Outcome::kHitCoalesced;
}

/// True when `body` is the correct response body for `request`.
using Verifier = std::function<bool(const Request& request, std::string_view body)>;

struct Sample {
  std::int64_t start_ns = 0;  ///< open loop: due time; closed loop: send time
  double latency_s = 0.0;     ///< from start_ns to the full response
  Kind kind = Kind::kDynamic;
  Outcome outcome = Outcome::kError;
  bool ok = false;  ///< 2xx/304, not failed-fast, body verified
};

struct PhaseResult {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<Sample> samples;    ///< one per attempted request
  std::vector<double> lateness_s; ///< open loop: send time minus due time
  std::vector<std::string> errors;  ///< first few failure descriptions
  /// Response bodies in request order (only when PhaseOptions::keep_bodies).
  std::vector<std::string> bodies;

  std::uint64_t failed() const;
};

struct LoadTarget {
  std::vector<std::uint16_t> ports;      ///< node i's HTTP port
  const std::vector<Request>* requests;  ///< cycled if a phase outruns it
  const Verifier* verify;
  std::size_t connections = 4;
};

/// Closed loop over requests [first, first + count): each connection sends
/// back to back. Stops early at `max_seconds` (0 = no limit).
PhaseResult run_closed(const LoadTarget& target, std::size_t first,
                       std::size_t count, double max_seconds);

/// Closed loop for `seconds`, starting at request `first`.
PhaseResult run_closed_for(const LoadTarget& target, std::size_t first,
                           double seconds);

/// Open loop: request `first + j` is due at start + j / rate, for every j
/// due within `seconds`. A request due while every connection is busy goes
/// out late; PhaseResult::lateness_s records by how much.
PhaseResult run_open(const LoadTarget& target, std::size_t first, double rate,
                     double seconds);

/// One request at a time, round-robin over the nodes, keeping every body
/// (self-tests).
PhaseResult run_sequential(const LoadTarget& target, std::size_t first,
                           std::size_t count);

/// Exact percentile (nearest rank, p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double p);

}  // namespace perfbench
