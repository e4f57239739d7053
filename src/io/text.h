// One home for text input and number output: the block line reader, the
// token splitter, and the whole-token number rules behind instance_io,
// event_io and load_assignment.
//
// Every number in a file follows util/parse.h's rule: the entire token
// must parse with std::from_chars, so "1x", "+5", "0x1p0" and "1 junk"
// (as one field) are errors, never numbers. Subnormals round-trip;
// values outside the double range are errors. Unlike the flag rule,
// "inf", "-inf" and "nan" parse here: the builder and the overlay reject
// what they do not accept with their own, typed messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vdist::io {

// Reads an istream one line at a time through one 64 KiB block, which
// grows only to hold a line longer than itself: a load never holds the
// whole file. A line ends at '\n' (not part of the view); a last line
// without one still counts, as with std::getline.
class LineReader {
 public:
  explicit LineReader(std::istream& is);

  // The next line, valid until the following call; false at the end.
  [[nodiscard]] bool next(std::string_view& line);
  // 1-based number of the line last returned (0 before the first).
  [[nodiscard]] std::size_t line_number() const noexcept {
    return line_number_;
  }

 private:
  std::istream& is_;
  std::vector<char> block_;
  std::size_t begin_ = 0;  // first unread byte in block_
  std::size_t end_ = 0;    // one past the last byte read into block_
  bool at_eof_ = false;
  std::size_t line_number_ = 0;
};

// The characters `>>` treats as space: ' ', '\t', '\n', '\v', '\f', '\r'.
// A CRLF line therefore splits like its LF form.
[[nodiscard]] constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// Cuts `line` into its space-separated tokens (views into `line`),
// replacing the previous contents of `tokens`.
void split_tokens(std::string_view line,
                  std::vector<std::string_view>& tokens);

// A whole-token number (see the rule above); nullopt if it is not one.
[[nodiscard]] std::optional<double> parse_number(std::string_view token);

// A whole-token id, index or count: decimal digits in [0, INT32_MAX].
[[nodiscard]] std::optional<std::int32_t> parse_id(std::string_view token);

// `token` in single quotes, for an error message. Control bytes print as
// \xHH, so a NUL or a newline in a malformed file cannot cut the
// message short of its line number.
[[nodiscard]] std::string quoted(std::string_view token);

// Writes `value` as printf's "%.17g" (max_digits10, so it reads back
// bit for bit); +infinity, the kUnbounded sentinel, writes "inf".
void write_number(std::ostream& os, double value);

}  // namespace vdist::io
