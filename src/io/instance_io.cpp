#include "io/instance_io.h"

#include <fstream>
#include <memory>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "io/text.h"
#include "util/float_cmp.h"

namespace vdist::io {

using model::Instance;
using model::InstanceBuilder;
using model::StreamId;
using model::UserId;

namespace {

constexpr std::string_view kMagic = "vdist-instance";
constexpr int kVersion = 1;

// Names are single tokens: every space character, and '#', becomes '_'.
std::string escape_name(const std::string& name) {
  if (name.empty()) return "-";
  std::string out = name;
  for (char& c : out)
    if (is_space(c) || c == '#') c = '_';
  return out;
}

// Reads the records of a format whose comments are lines starting with
// '#' (instances, assignments): the next record's tokens, skipping
// comments and lines with no token.
bool next_record(LineReader& reader, std::vector<std::string_view>& tokens) {
  for (std::string_view line; reader.next(line);) {
    if (!line.empty() && line[0] == '#') continue;
    split_tokens(line, tokens);
    if (!tokens.empty()) return true;
  }
  return false;
}

}  // namespace

void save_instance(std::ostream& os, const Instance& inst) {
  const int m = inst.num_server_measures();
  const int mc = inst.num_user_measures();
  os << kMagic << ' ' << kVersion << "\n";
  os << "dims " << m << ' ' << mc << "\n";
  for (int i = 0; i < m; ++i) {
    os << "budget " << i << ' ';
    write_number(os, inst.budget(i));
    os << "\n";
  }
  for (std::size_t s = 0; s < inst.num_streams(); ++s) {
    const auto sid = static_cast<StreamId>(s);
    os << "stream " << s << ' ' << escape_name(inst.stream_name(sid));
    for (int i = 0; i < m; ++i) {
      os << ' ';
      write_number(os, inst.cost(sid, i));
    }
    os << "\n";
  }
  for (std::size_t u = 0; u < inst.num_users(); ++u) {
    const auto uid = static_cast<UserId>(u);
    os << "user " << u << ' ' << escape_name(inst.user_name(uid));
    for (int j = 0; j < mc; ++j) {
      os << ' ';
      write_number(os, inst.capacity(uid, j));
    }
    os << "\n";
  }
  for (std::size_t s = 0; s < inst.num_streams(); ++s) {
    const auto sid = static_cast<StreamId>(s);
    for (model::EdgeId e = inst.first_edge(sid); e < inst.last_edge(sid);
         ++e) {
      os << "interest " << inst.edge_user(e) << ' ' << s << ' ';
      write_number(os, inst.edge_utility(e));
      for (int j = 0; j < mc; ++j) {
        os << ' ';
        write_number(os, inst.edge_load(e, j));
      }
      os << "\n";
    }
  }
}

Instance load_instance(std::istream& is) {
  LineReader reader(is);
  std::vector<std::string_view> tokens;

  auto fail = [&](const std::string& msg) -> std::runtime_error {
    return std::runtime_error("instance_io: " + msg + " at line " +
                              std::to_string(reader.line_number()));
  };
  auto number = [&](std::string_view token) {
    if (const auto value = parse_number(token)) return *value;
    throw fail("bad number " + quoted(token));
  };
  // Ids, indices and dimensions.
  auto integer = [&](std::string_view token) {
    if (const auto value = parse_id(token)) return *value;
    throw fail("expected a non-negative integer, got " + quoted(token));
  };

  // Header: exactly "vdist-instance <version>".
  if (!next_record(reader, tokens) || tokens[0] != kMagic)
    throw fail("missing 'vdist-instance' header");
  if (tokens.size() != 2) throw fail("header needs exactly one version");
  if (const int version = integer(tokens[1]); version != kVersion)
    throw fail("unsupported version " + std::to_string(version));

  int m = -1;
  int mc = -1;
  std::unique_ptr<InstanceBuilder> builder;
  std::size_t next_stream = 0;
  std::size_t next_user = 0;
  // The numeric tail of a record (costs, capacities or loads), parsed
  // into one reused buffer.
  std::vector<double> values;
  auto values_from = [&](std::size_t first) -> std::span<const double> {
    values.clear();
    for (std::size_t k = first; k < tokens.size(); ++k)
      values.push_back(number(tokens[k]));
    return values;
  };
  auto name_at = [&](std::size_t k) {
    return tokens[k] == "-" ? std::string{} : std::string(tokens[k]);
  };

  // One record: tokens[0] is its kind, the fields follow. The builder's
  // own rejections (std::invalid_argument) are rethrown below with the
  // line number.
  auto parse_record = [&] {
    const std::string_view kind = tokens[0];
    const std::size_t fields = tokens.size() - 1;
    if (kind == "dims") {
      if (builder) throw fail("duplicate dims");
      if (fields != 2) throw fail("dims needs m and mc");
      m = integer(tokens[1]);
      mc = integer(tokens[2]);
      if (m > kMaxMeasures || mc > kMaxMeasures)
        throw fail("dims allows at most " + std::to_string(kMaxMeasures) +
                   " measures, got m = " + std::to_string(m) +
                   ", mc = " + std::to_string(mc));
      builder = std::make_unique<InstanceBuilder>(m, mc);
      return;
    }
    if (!builder) throw fail("dims must come first");

    if (kind == "budget") {
      if (fields != 2) throw fail("budget needs index and value");
      builder->set_budget(integer(tokens[1]), number(tokens[2]));
    } else if (kind == "stream") {
      if (fields != 2 + static_cast<std::size_t>(m))
        throw fail("stream needs id, name and m costs");
      if (static_cast<std::size_t>(integer(tokens[1])) != next_stream)
        throw fail("stream ids must be dense and ordered");
      ++next_stream;
      builder->add_stream(values_from(3), name_at(2));
    } else if (kind == "user") {
      if (fields != 2 + static_cast<std::size_t>(mc))
        throw fail("user needs id, name and mc capacities");
      if (static_cast<std::size_t>(integer(tokens[1])) != next_user)
        throw fail("user ids must be dense and ordered");
      ++next_user;
      builder->add_user(values_from(3), name_at(2));
    } else if (kind == "interest") {
      if (fields != 3 + static_cast<std::size_t>(mc))
        throw fail("interest needs user, stream, utility and mc loads");
      const UserId u = integer(tokens[1]);
      const StreamId s = integer(tokens[2]);
      const double w = number(tokens[3]);
      builder->add_interest(u, s, w, values_from(4));
    } else {
      throw fail("unknown record " + quoted(kind));
    }
  };

  while (next_record(reader, tokens)) {
    try {
      parse_record();
    } catch (const std::invalid_argument& e) {
      throw fail(e.what());
    }
  }
  if (!builder) throw fail("empty input");
  // Whole-instance checks (c_i(S) <= B_i, duplicate pairs) report the
  // last line read.
  try {
    return std::move(*builder).build();
  } catch (const std::invalid_argument& e) {
    throw fail(e.what());
  }
}

void save_instance_file(const std::string& path, const Instance& inst) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("instance_io: cannot open " + path);
  save_instance(os, inst);
  if (!os) throw std::runtime_error("instance_io: write failed: " + path);
}

Instance load_instance_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("instance_io: cannot open " + path);
  return load_instance(is);
}

void save_assignment(std::ostream& os, const model::Assignment& a) {
  const Instance& inst = a.instance();
  for (std::size_t u = 0; u < inst.num_users(); ++u)
    for (StreamId s : a.streams_of(static_cast<UserId>(u)))
      os << "assign " << u << ' ' << s << "\n";
  os << "utility ";
  write_number(os, a.utility());
  os << "\n";
}

model::Assignment load_assignment(std::istream& is, const Instance& inst) {
  model::Assignment a(inst);
  LineReader reader(is);
  std::vector<std::string_view> tokens;
  auto fail = [&](const std::string& msg) -> std::runtime_error {
    return std::runtime_error("load_assignment: " + msg + " at line " +
                              std::to_string(reader.line_number()));
  };
  // An id below `count`, or the line's error.
  auto id_below = [&](std::string_view token, std::size_t count) {
    const auto value = parse_id(token);
    if (!value || static_cast<std::size_t>(*value) >= count)
      throw fail("bad pair id " + quoted(token));
    return *value;
  };
  std::size_t utility_line = 0;  // 0: no utility line
  double claimed_utility = 0.0;
  while (next_record(reader, tokens)) {
    const std::string_view kind = tokens[0];
    if (kind == "assign") {
      if (tokens.size() != 3) throw fail("assign needs a user and a stream");
      const UserId u = id_below(tokens[1], inst.num_users());
      const StreamId s = id_below(tokens[2], inst.num_streams());
      a.assign(u, s);
    } else if (kind == "utility") {
      if (tokens.size() != 2) throw fail("utility needs exactly one value");
      const auto value = parse_number(tokens[1]);
      if (!value) throw fail("bad number " + quoted(tokens[1]));
      claimed_utility = *value;
      utility_line = reader.line_number();
    } else {
      throw fail("unknown record " + quoted(kind));
    }
  }
  if (utility_line != 0 &&
      !util::approx_eq(claimed_utility, a.utility(), 1e-9, 1e-9))
    throw std::runtime_error(
        "load_assignment: utility does not match the rebuilt assignment "
        "(wrong instance?) at line " + std::to_string(utility_line));
  return a;
}

}  // namespace vdist::io
