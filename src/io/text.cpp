#include "io/text.h"

#include <charconv>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

namespace vdist::io {

namespace {
constexpr std::size_t kBlockBytes = std::size_t{64} << 10;
}  // namespace

LineReader::LineReader(std::istream& is) : is_(is), block_(kBlockBytes) {}

bool LineReader::next(std::string_view& line) {
  for (;;) {
    const char* first = block_.data() + begin_;
    const std::size_t unread = end_ - begin_;
    if (const void* nl = std::memchr(first, '\n', unread)) {
      const auto length =
          static_cast<std::size_t>(static_cast<const char*>(nl) - first);
      line = {first, length};
      begin_ += length + 1;
      ++line_number_;
      return true;
    }
    if (at_eof_) {
      if (unread == 0) return false;
      line = {first, unread};
      begin_ = end_;
      ++line_number_;
      return true;
    }
    // Keep the partial line, moved to the front; grow only when it
    // already fills the block.
    std::memmove(block_.data(), first, unread);
    begin_ = 0;
    end_ = unread;
    if (end_ == block_.size()) block_.resize(2 * block_.size());
    is_.read(block_.data() + end_,
             static_cast<std::streamsize>(block_.size() - end_));
    end_ += static_cast<std::size_t>(is_.gcount());
    // A short read (eof or error) sets failbit: nothing more will come.
    at_eof_ = !is_;
  }
}

void split_tokens(std::string_view line,
                  std::vector<std::string_view>& tokens) {
  tokens.clear();
  const char* p = line.data();
  const char* const end = p + line.size();
  for (;;) {
    while (p != end && is_space(*p)) ++p;
    if (p == end) return;
    const char* const start = p;
    while (p != end && !is_space(*p)) ++p;
    tokens.emplace_back(start, static_cast<std::size_t>(p - start));
  }
}

std::optional<double> parse_number(std::string_view token) {
  double value = 0.0;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<std::int32_t> parse_id(std::string_view token) {
  std::int32_t value = 0;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || value < 0) return std::nullopt;
  return value;
}

std::string quoted(std::string_view token) {
  std::string out = "'";
  for (const char c : token) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte != 0x7f) {
      out += c;
      continue;
    }
    constexpr char kHex[] = "0123456789abcdef";
    out += "\\x";
    out += kHex[byte >> 4];
    out += kHex[byte & 0xf];
  }
  out += '\'';
  return out;
}

void write_number(std::ostream& os, double value) {
  char text[32];  // "%.17g" needs at most 24 ("-2.2250738585072014e-308")
  const char* const end =
      std::to_chars(text, text + sizeof text, value,
                    std::chars_format::general,
                    std::numeric_limits<double>::max_digits10)
          .ptr;
  os.write(text, end - text);
}

}  // namespace vdist::io
