// Plain-text serialization of MMD instances and assignments.
//
// A stable, diff-friendly, line-oriented format so instances can be
// versioned, shared, and fed to the CLI tool:
//
//   vdist-instance 1
//   dims <m> <mc>
//   budget <i> <value|inf>
//   stream <id> <name|-> <c_0> ... <c_{m-1}>
//   user <id> <name|-> <K_0|inf> ... <K_{mc-1}|inf>
//   interest <user> <stream> <utility> <k_0> ... <k_{mc-1}>
//
// Comments are lines starting with '#'; lines with no token are ignored,
// and '\r' is a space, so CRLF files load as their LF form. Ids must be
// dense and in order (the loader validates). Ids, indices and dimensions
// are whole decimal tokens in [0, INT32_MAX]; m and mc are at most
// kMaxMeasures. Numbers follow io/text.h's whole-token rule and are
// written with 17 significant digits, so they round-trip bit for bit.
#pragma once

#include <iosfwd>
#include <string>

#include "model/assignment.h"
#include "model/instance.h"

namespace vdist::io {

// The largest m and mc a `dims` line may declare. The builder sizes
// per-measure arrays from them before any stream is read, so a larger
// count is rejected (with its line number) instead of allocated.
inline constexpr int kMaxMeasures = 4096;

// Serializes an instance. Never fails (beyond stream badbit).
void save_instance(std::ostream& os, const model::Instance& inst);

// Parses the format above. Throws std::runtime_error with a line number
// on malformed input, InstanceBuilder's rejections included (a
// whole-instance check such as a duplicate pair names the last line).
[[nodiscard]] model::Instance load_instance(std::istream& is);

// Convenience file wrappers (throw std::runtime_error on IO failure).
void save_instance_file(const std::string& path, const model::Instance& inst);
[[nodiscard]] model::Instance load_instance_file(const std::string& path);

// Assignment export: one "assign <user> <stream>" line per pair, with a
// trailing "utility <value>" summary line. Comments and blank lines follow
// the instance format's rules.
void save_assignment(std::ostream& os, const model::Assignment& a);

// Parses the save_assignment format against an instance (whole-token ids
// in range, exact arity; the utility line, if present, is checked against
// the rebuilt assignment). Throws std::runtime_error naming the line on
// malformed input or mismatch.
[[nodiscard]] model::Assignment load_assignment(std::istream& is,
                                                const model::Instance& inst);

}  // namespace vdist::io
