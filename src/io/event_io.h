// Plain-text serialization of serving-session event traces, in the same
// diff-friendly, line-oriented spirit as instance_io.h:
//
//   vdist-events 1
//   leave <user>
//   join <user> [<cap> [<stream>:<w> ...]]
//   stream-remove <stream>
//   stream-add <stream> [<cost> [<user>:<w> ...]]
//   capacity <user> <value|inf>
//   utility <user> <stream> <value>
//
// `join` / `stream-add` with an id equal to the instance's current entity
// count append a brand-new entity; the bracketed tail then carries its
// cap/cost and interest pairs. A '#' anywhere starts a comment; lines
// with no token are ignored, and '\r' is a space (CRLF loads as LF).
// Numbers and ids follow io/text.h's whole-token rules; numbers
// round-trip bit for bit.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "model/events.h"

namespace vdist::io {

void save_events(std::ostream& os,
                 const std::vector<model::InstanceEvent>& events);

// Throws std::runtime_error with a line number on malformed input.
[[nodiscard]] std::vector<model::InstanceEvent> load_events(std::istream& is);

// Convenience file wrappers (throw std::runtime_error on IO failure).
void save_events_file(const std::string& path,
                      const std::vector<model::InstanceEvent>& events);
[[nodiscard]] std::vector<model::InstanceEvent> load_events_file(
    const std::string& path);

}  // namespace vdist::io
