#include "io/event_io.h"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "io/text.h"

namespace vdist::io {

using model::EventType;
using model::InstanceEvent;
using model::InterestSpec;

namespace {

[[noreturn]] void parse_error(std::size_t line, const std::string& message) {
  throw std::runtime_error("events line " + std::to_string(line) + ": " +
                           message);
}

double number_at(std::string_view token, std::size_t line) {
  if (const auto value = parse_number(token)) return *value;
  parse_error(line, "expected a number, got " + quoted(token));
}

std::int32_t id_at(std::string_view token, std::size_t line) {
  if (const auto value = parse_id(token)) return *value;
  parse_error(line, "expected a non-negative id, got " + quoted(token));
}

// "<id>:<w>" interest tail entries of append events.
InterestSpec parse_interest(std::string_view token, bool user_side,
                            std::size_t line) {
  const std::size_t colon = token.find(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == token.size())
    parse_error(line, "expected <id>:<utility>, got " + quoted(token));
  InterestSpec spec;
  const std::int32_t id = id_at(token.substr(0, colon), line);
  if (user_side)
    spec.stream = id;  // a joining user's interests name streams
  else
    spec.user = id;  // an added stream's interests name users
  spec.utility = number_at(token.substr(colon + 1), line);
  return spec;
}

void write_interests(std::ostream& os, const InstanceEvent& ev,
                     bool user_side) {
  for (const InterestSpec& spec : ev.interests) {
    os << ' ' << (user_side ? spec.stream : spec.user) << ':';
    write_number(os, spec.utility);
  }
}

}  // namespace

void save_events(std::ostream& os,
                 const std::vector<InstanceEvent>& events) {
  os << "vdist-events 1\n";
  for (const InstanceEvent& ev : events) {
    switch (ev.type) {
      case EventType::kUserLeave:
        os << "leave " << ev.user;
        break;
      case EventType::kUserJoin:
        os << "join " << ev.user;
        if (ev.value != 0.0 || !ev.interests.empty()) {
          os << ' ';
          write_number(os, ev.value);
        }
        write_interests(os, ev, /*user_side=*/true);
        break;
      case EventType::kStreamRemove:
        os << "stream-remove " << ev.stream;
        break;
      case EventType::kStreamAdd:
        os << "stream-add " << ev.stream;
        if (ev.value != 0.0 || !ev.interests.empty()) {
          os << ' ';
          write_number(os, ev.value);
        }
        write_interests(os, ev, /*user_side=*/false);
        break;
      case EventType::kCapacityChange:
        os << "capacity " << ev.user << ' ';
        write_number(os, ev.value);
        break;
      case EventType::kUtilityChange:
        os << "utility " << ev.user << ' ' << ev.stream << ' ';
        write_number(os, ev.value);
        break;
    }
    os << '\n';
  }
}

std::vector<InstanceEvent> load_events(std::istream& is) {
  std::vector<InstanceEvent> events;
  LineReader reader(is);
  std::vector<std::string_view> tokens;
  bool saw_header = false;
  for (std::string_view line; reader.next(line);) {
    // '#' starts a comment anywhere on the line.
    split_tokens(line.substr(0, line.find('#')), tokens);
    if (tokens.empty()) continue;
    const std::size_t line_number = reader.line_number();
    if (!saw_header) {
      if (tokens.size() != 2 || tokens[0] != "vdist-events" ||
          tokens[1] != "1")
        parse_error(line_number, "expected header 'vdist-events 1'");
      saw_header = true;
      continue;
    }

    InstanceEvent ev;
    const std::string_view kind = tokens[0];
    if (kind == "leave") {
      if (tokens.size() != 2) parse_error(line_number, "leave <user>");
      ev.type = EventType::kUserLeave;
      ev.user = id_at(tokens[1], line_number);
    } else if (kind == "join" || kind == "stream-add") {
      const bool user_side = kind == "join";
      if (tokens.size() < 2)
        parse_error(line_number, std::string(kind) + " needs an id");
      ev.type = user_side ? EventType::kUserJoin : EventType::kStreamAdd;
      if (user_side)
        ev.user = id_at(tokens[1], line_number);
      else
        ev.stream = id_at(tokens[1], line_number);
      if (tokens.size() >= 3) ev.value = number_at(tokens[2], line_number);
      for (std::size_t i = 3; i < tokens.size(); ++i)
        ev.interests.push_back(
            parse_interest(tokens[i], user_side, line_number));
    } else if (kind == "stream-remove") {
      if (tokens.size() != 2)
        parse_error(line_number, "stream-remove <stream>");
      ev.type = EventType::kStreamRemove;
      ev.stream = id_at(tokens[1], line_number);
    } else if (kind == "capacity") {
      if (tokens.size() != 3)
        parse_error(line_number, "capacity <user> <value>");
      ev.type = EventType::kCapacityChange;
      ev.user = id_at(tokens[1], line_number);
      ev.value = number_at(tokens[2], line_number);
    } else if (kind == "utility") {
      if (tokens.size() != 4)
        parse_error(line_number, "utility <user> <stream> <value>");
      ev.type = EventType::kUtilityChange;
      ev.user = id_at(tokens[1], line_number);
      ev.stream = id_at(tokens[2], line_number);
      ev.value = number_at(tokens[3], line_number);
    } else {
      parse_error(line_number,
                  "unknown event " + quoted(kind) +
                      " (known: leave, join, stream-remove, stream-add, "
                      "capacity, utility)");
    }
    events.push_back(std::move(ev));
  }
  if (!saw_header)
    parse_error(reader.line_number(), "missing 'vdist-events 1' header");
  return events;
}

void save_events_file(const std::string& path,
                      const std::vector<InstanceEvent>& events) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  save_events(os, events);
  if (!os) throw std::runtime_error("failed writing " + path);
}

std::vector<InstanceEvent> load_events_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  return load_events(is);
}

}  // namespace vdist::io
