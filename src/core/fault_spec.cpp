#include "core/fault_spec.hpp"

#include <charconv>
#include <limits>
#include <string_view>

namespace comdml::core {

namespace {

/// Digit-only, fully-consumed, non-negative integer parse. Rejects empty
/// fields, signs, hex, whitespace, and trailing garbage — everything
/// std::stoll silently tolerated.
bool parse_count(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  for (const char c : s)
    if (c < '0' || c > '9') return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

bool parse_fault_spec(const std::string& spec,
                      FleetOptions::FaultOptions::AgentFailure& out,
                      std::string* error) {
  out = {};
  const std::string_view sv(spec);
  const size_t at = sv.find('@');
  if (at == std::string_view::npos)
    return fail(error, "missing '@' (want A@R[:bN|:kN|:cS])");
  if (!parse_count(sv.substr(0, at), &out.agent))
    return fail(error, "agent must be a non-negative integer, got '" +
                           std::string(sv.substr(0, at)) + "'");
  std::string_view rest = sv.substr(at + 1);
  const size_t colon = rest.find(':');
  if (!parse_count(rest.substr(0, colon), &out.round))
    return fail(error, "round must be a non-negative integer, got '" +
                           std::string(rest.substr(0, colon)) + "'");
  if (colon == std::string_view::npos) return true;  // clean leave, "A@R"
  rest = rest.substr(colon + 1);
  if (rest.empty())
    return fail(error, "empty mode segment after ':' (want bN, kN or cS)");
  if (rest.find(':') != std::string_view::npos)
    return fail(error,
                "more than one mode segment — an agent failure picks "
                "exactly one death point");
  const char mode = rest.front();
  int64_t n = 0;
  if (!parse_count(rest.substr(1), &n))
    return fail(error, std::string("mode count must be a non-negative "
                                   "integer, got '") +
                           std::string(rest.substr(1)) + "'");
  switch (mode) {
    case 'b':
      out.after_batches = n;
      return true;
    case 'k':
      out.after_buckets = n;
      return true;
    case 'c':
      out.at_collective_step = n;
      return true;
    default:
      return fail(error, std::string("unknown mode '") + mode +
                             "' (want b = batches, k = buckets, "
                             "c = collective step)");
  }
}

std::vector<double> parse_positive_list(std::string_view flag,
                                        std::string_view csv) {
  std::vector<double> out;
  for (;;) {
    const size_t comma = csv.find(',');
    out.push_back(parse_flag_value<double>(
        flag, csv.substr(0, comma), std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max()));
    if (comma == std::string_view::npos) return out;
    csv.remove_prefix(comma + 1);
  }
}

}  // namespace comdml::core
