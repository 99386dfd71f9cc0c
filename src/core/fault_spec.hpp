// Strict parsers for command-line values: fleet_cli's --fail-agent specs
// and every numeric flag of fleet_cli and fleetd.
//
// Fault-spec grammar: "A@R[:bN|:kN|:cS]" — agent A leaves before round R,
// or dies after N batches (:bN), after publishing N buckets (:kN), or at
// collective step S (:cS). A, R, and the count are non-negative decimal
// integers; the whole spec must be consumed.
//
// These replace std::stoll/std::stod-based parsing, which silently
// accepted malformed values: trailing garbage ("1x@2" parsed as agent 1,
// "--bucket-bytes 12x" as 12), negative numbers ("-1@2", "--rounds -1"),
// and extra mode segments ("1@2:b1:k2" parsed as batch mode and dropped the
// rest), and threw an uncaught std::invalid_argument on no digits at all.
// Every such value now fails with a message naming the defect, so a typo
// surfaces as a usage error instead of a silently different run.
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/config.hpp"

namespace comdml::core {

/// Parses `spec` into `out` (which is reset first). Returns false and
/// writes a human-readable reason into `*error` (when non-null) for any
/// malformed spec: missing '@', non-digit or empty fields, negative
/// numbers, unknown mode letters, trailing garbage, or more than one mode
/// segment.
bool parse_fault_spec(const std::string& spec,
                      FleetOptions::FaultOptions::AgentFailure& out,
                      std::string* error = nullptr);

/// Parses the whole of `text` as a T (an integer, or a finite floating
/// value) in [lo, hi]. Throws std::invalid_argument naming `flag` for an
/// empty value, a sign an unsigned T cannot take, trailing characters, an
/// overflow, or a value out of range.
template <class T>
T parse_flag_value(std::string_view flag, std::string_view text, T lo, T hi) {
  T v{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  bool ok = !text.empty() && ec == std::errc{} &&
            ptr == text.data() + text.size();
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (ok && v >= lo && v <= hi) return v;
  std::ostringstream why;
  why.precision(std::numeric_limits<T>::max_digits10);
  why << flag << ": '" << text << "' ";
  if (ok)
    why << "is out of range [" << lo << ", " << hi << "]";
  else
    why << "is not " << (std::is_integral_v<T> ? "an integer" : "a number");
  throw std::invalid_argument(why.str());
}

/// Parses `flag`'s comma-separated list of positive numbers ("1,0.35,1"),
/// each entry through parse_flag_value.
[[nodiscard]] std::vector<double> parse_positive_list(std::string_view flag,
                                                      std::string_view csv);

}  // namespace comdml::core
