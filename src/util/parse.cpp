#include "util/parse.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace vdist::util {

std::int64_t parse_int_value(const std::string& what, const std::string& text,
                             std::int64_t lo, std::int64_t hi) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end && value >= lo && value <= hi)
    return value;
  std::string range;
  if (hi != std::numeric_limits<std::int64_t>::max())
    range = " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  else if (lo != std::numeric_limits<std::int64_t>::min())
    range = " >= " + std::to_string(lo);
  throw std::invalid_argument(what + " expects an integer" + range +
                              ", got '" + text + "'");
}

std::uint64_t parse_count_value(const std::string& what,
                                const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end) return value;
  throw std::invalid_argument(what + " expects a non-negative integer, got '" +
                              text + "'");
}

double parse_double_value(const std::string& what, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  // NaN passes every range check (each comparison is false), so it is
  // not a number any option accepts.
  if (ec == std::errc() && ptr == end && !std::isnan(value)) return value;
  throw std::invalid_argument(what + " expects a number, got '" + text + "'");
}

}  // namespace vdist::util
