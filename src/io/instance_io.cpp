#include "io/instance_io.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/float_cmp.h"

namespace vdist::io {

using model::Instance;
using model::InstanceBuilder;
using model::StreamId;
using model::UserId;

namespace {

constexpr const char* kMagic = "vdist-instance";
constexpr int kVersion = 1;

void write_value(std::ostream& os, double v) {
  if (util::is_unbounded(v)) {
    os << "inf";
    return;
  }
  // max_digits10 guarantees exact round-trip through decimal.
  std::ostringstream ss;
  ss.precision(std::numeric_limits<double>::max_digits10);
  ss << v;
  os << ss.str();
}

double parse_value(const std::string& token, std::size_t line) {
  if (token == "inf") return model::kUnbounded;
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("instance_io: bad number '" + token +
                             "' at line " + std::to_string(line));
  }
}

// Ids, indices and dimensions: the whole token must be a decimal integer
// in [0, INT32_MAX] (the rule of event_io's ids).
std::int32_t parse_int(const std::string& token, std::size_t line) {
  try {
    std::size_t pos = 0;
    const long value = std::stol(token, &pos);
    if (pos != token.size() || value < 0 ||
        value > std::numeric_limits<std::int32_t>::max())
      throw std::invalid_argument(token);
    return static_cast<std::int32_t>(value);
  } catch (const std::exception&) {
    throw std::runtime_error("instance_io: expected a non-negative integer, "
                             "got '" + token + "' at line " +
                             std::to_string(line));
  }
}

std::string escape_name(const std::string& name) {
  if (name.empty()) return "-";
  std::string out;
  for (char c : name) out += (c == ' ' || c == '\t' || c == '#') ? '_' : c;
  return out;
}

}  // namespace

void save_instance(std::ostream& os, const Instance& inst) {
  const int m = inst.num_server_measures();
  const int mc = inst.num_user_measures();
  os << kMagic << ' ' << kVersion << "\n";
  os << "dims " << m << ' ' << mc << "\n";
  for (int i = 0; i < m; ++i) {
    os << "budget " << i << ' ';
    write_value(os, inst.budget(i));
    os << "\n";
  }
  for (std::size_t s = 0; s < inst.num_streams(); ++s) {
    const auto sid = static_cast<StreamId>(s);
    os << "stream " << s << ' ' << escape_name(inst.stream_name(sid));
    for (int i = 0; i < m; ++i) {
      os << ' ';
      write_value(os, inst.cost(sid, i));
    }
    os << "\n";
  }
  for (std::size_t u = 0; u < inst.num_users(); ++u) {
    const auto uid = static_cast<UserId>(u);
    os << "user " << u << ' ' << escape_name(inst.user_name(uid));
    for (int j = 0; j < mc; ++j) {
      os << ' ';
      write_value(os, inst.capacity(uid, j));
    }
    os << "\n";
  }
  for (std::size_t s = 0; s < inst.num_streams(); ++s) {
    const auto sid = static_cast<StreamId>(s);
    for (model::EdgeId e = inst.first_edge(sid); e < inst.last_edge(sid);
         ++e) {
      os << "interest " << inst.edge_user(e) << ' ' << s << ' ';
      write_value(os, inst.edge_utility(e));
      for (int j = 0; j < mc; ++j) {
        os << ' ';
        write_value(os, inst.edge_load(e, j));
      }
      os << "\n";
    }
  }
}

Instance load_instance(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;

  auto fail = [&](const std::string& msg) -> std::runtime_error {
    return std::runtime_error("instance_io: " + msg + " at line " +
                              std::to_string(line_no));
  };

  // Header.
  std::string magic;
  int version = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    ss >> magic >> version;
    break;
  }
  if (magic != kMagic) throw fail("missing 'vdist-instance' header");
  if (version != kVersion)
    throw fail("unsupported version " + std::to_string(version));

  int m = -1;
  int mc = -1;
  std::unique_ptr<InstanceBuilder> builder;
  std::size_t next_stream = 0;
  std::size_t next_user = 0;
  // The numeric tail of a record (costs, capacities or loads), parsed
  // into one reused buffer.
  std::vector<double> values;
  auto values_from = [&](const std::vector<std::string>& tokens,
                         std::size_t first) -> std::span<const double> {
    values.clear();
    for (std::size_t k = first; k < tokens.size(); ++k)
      values.push_back(parse_value(tokens[k], line_no));
    return values;
  };

  // One record; the builder's own rejections (std::invalid_argument) are
  // rethrown below with the line number.
  auto parse_record = [&](const std::string& kind,
                          const std::vector<std::string>& tokens) {
    if (kind == "dims") {
      if (builder) throw fail("duplicate dims");
      if (tokens.size() != 2) throw fail("dims needs m and mc");
      m = parse_int(tokens[0], line_no);
      mc = parse_int(tokens[1], line_no);
      if (m > kMaxMeasures || mc > kMaxMeasures)
        throw fail("dims allows at most " + std::to_string(kMaxMeasures) +
                   " measures, got m = " + std::to_string(m) +
                   ", mc = " + std::to_string(mc));
      builder = std::make_unique<InstanceBuilder>(m, mc);
      return;
    }
    if (!builder) throw fail("dims must come first");

    if (kind == "budget") {
      if (tokens.size() != 2) throw fail("budget needs index and value");
      builder->set_budget(parse_int(tokens[0], line_no),
                          parse_value(tokens[1], line_no));
    } else if (kind == "stream") {
      if (tokens.size() != 2 + static_cast<std::size_t>(m))
        throw fail("stream needs id, name and m costs");
      if (static_cast<std::size_t>(parse_int(tokens[0], line_no)) !=
          next_stream)
        throw fail("stream ids must be dense and ordered");
      ++next_stream;
      builder->add_stream(values_from(tokens, 2),
                          tokens[1] == "-" ? std::string{} : tokens[1]);
    } else if (kind == "user") {
      if (tokens.size() != 2 + static_cast<std::size_t>(mc))
        throw fail("user needs id, name and mc capacities");
      if (static_cast<std::size_t>(parse_int(tokens[0], line_no)) !=
          next_user)
        throw fail("user ids must be dense and ordered");
      ++next_user;
      builder->add_user(values_from(tokens, 2),
                        tokens[1] == "-" ? std::string{} : tokens[1]);
    } else if (kind == "interest") {
      if (tokens.size() != 3 + static_cast<std::size_t>(mc))
        throw fail("interest needs user, stream, utility and mc loads");
      const UserId u = parse_int(tokens[0], line_no);
      const StreamId s = parse_int(tokens[1], line_no);
      const double w = parse_value(tokens[2], line_no);
      builder->add_interest(u, s, w, values_from(tokens, 3));
    } else {
      throw fail("unknown record '" + kind + "'");
    }
  };

  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string kind;
    ss >> kind;
    std::vector<std::string> tokens;
    for (std::string t; ss >> t;) tokens.push_back(t);
    try {
      parse_record(kind, tokens);
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
  std::ostringstream ss;
  ss.precision(std::numeric_limits<double>::max_digits10);
  ss << a.utility();
  os << ss.str() << "\n";
}

model::Assignment load_assignment(std::istream& is, const Instance& inst) {
  model::Assignment a(inst);
  std::string line;
  std::size_t line_no = 0;
  bool saw_utility = false;
  double claimed_utility = 0.0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string kind;
    ss >> kind;
    if (kind == "assign") {
      long long u = -1;
      long long s = -1;
      ss >> u >> s;
      if (ss.fail() || u < 0 ||
          static_cast<std::size_t>(u) >= inst.num_users() || s < 0 ||
          static_cast<std::size_t>(s) >= inst.num_streams())
        throw std::runtime_error("load_assignment: bad pair at line " +
                                 std::to_string(line_no));
      a.assign(static_cast<UserId>(u), static_cast<StreamId>(s));
    } else if (kind == "utility") {
      std::string token;
      ss >> token;
      claimed_utility = parse_value(token, line_no);
      saw_utility = true;
    } else {
      throw std::runtime_error("load_assignment: unknown record '" + kind +
                               "' at line " + std::to_string(line_no));
    }
  }
  if (saw_utility &&
      !util::approx_eq(claimed_utility, a.utility(), 1e-9, 1e-9))
    throw std::runtime_error(
        "load_assignment: utility line does not match the rebuilt "
        "assignment (wrong instance?)");
  return a;
}

}  // namespace vdist::io
