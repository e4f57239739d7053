// Whole-token number parsing, the one rule behind SolveOptions' typed
// accessors, the CLI's flags, the sweep plan's directives and the
// workload params: the entire token must parse (std::from_chars), so
// "8x", "+5", " 0.5" and "0x1p3" are errors, never numbers, and an
// integer outside [lo, hi] is an error, never wrapped or narrowed. `what`
// names the value in the std::invalid_argument message, e.g. "option
// --every expects an integer, got '12abc'".
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace vdist::util {

[[nodiscard]] std::int64_t parse_int_value(
    const std::string& what, const std::string& text,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max());
// A non-negative integer over the full 64-bit range (seeds, counts).
[[nodiscard]] std::uint64_t parse_count_value(const std::string& what,
                                              const std::string& text);
// Any number but NaN (infinities parse; callers that need a finite value
// check it themselves).
[[nodiscard]] double parse_double_value(const std::string& what,
                                        const std::string& text);

}  // namespace vdist::util
