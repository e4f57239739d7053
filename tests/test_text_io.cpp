// io/text.h and the three loaders built on it (instances, event traces,
// assignments):
//   * the block line reader matches std::getline's lines and numbering
//     across block boundaries and for lines longer than a block;
//   * one whole-token rule for every number and id in a file ("+5",
//     "0x1p0", "1x" and trailing junk are errors naming their line);
//   * subnormal values and every double the writer emits round-trip bit
//     for bit, and the writer's bytes are printf's "%.17g";
//   * CRLF files (blank "\r\n" lines included) load as their LF form;
//   * load_assignment takes whole-token ids with exact arity;
//   * a seeded mutated corpus (truncation at every byte, byte flips, huge
//     ids and counts, non-finite tokens): every load returns or throws a
//     std::runtime_error naming a line, never another exception type;
//   * a serve-8k-sized cap world round-trips through a stringstream.
#include "io/text.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "io/event_io.h"
#include "io/instance_io.h"
#include "model/events.h"
#include "model/factory.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace vdist::io {
namespace {

using model::EventType;
using model::Instance;
using model::InstanceEvent;

constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string saved(const Instance& inst) {
  std::ostringstream os;
  save_instance(os, inst);
  return os.str();
}

std::string saved(const std::vector<InstanceEvent>& events) {
  std::ostringstream os;
  save_events(os, events);
  return os.str();
}

Instance load_instance_text(const std::string& text) {
  std::istringstream is(text);
  return load_instance(is);
}

std::vector<InstanceEvent> load_events_text(const std::string& text) {
  std::istringstream is(text);
  return load_events(is);
}

// Every field, compared bit for bit.
void expect_identical(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.num_server_measures(), b.num_server_measures());
  ASSERT_EQ(a.num_user_measures(), b.num_user_measures());
  ASSERT_EQ(a.num_streams(), b.num_streams());
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (int i = 0; i < a.num_server_measures(); ++i)
    EXPECT_EQ(bits(a.budget(i)), bits(b.budget(i)));
  for (std::size_t s = 0; s < a.num_streams(); ++s) {
    const auto sid = static_cast<model::StreamId>(s);
    EXPECT_EQ(a.stream_name(sid), b.stream_name(sid));
    for (int i = 0; i < a.num_server_measures(); ++i)
      EXPECT_EQ(bits(a.cost(sid, i)), bits(b.cost(sid, i))) << "stream " << s;
    ASSERT_EQ(a.first_edge(sid), b.first_edge(sid));
    ASSERT_EQ(a.last_edge(sid), b.last_edge(sid));
  }
  for (std::size_t u = 0; u < a.num_users(); ++u) {
    const auto uid = static_cast<model::UserId>(u);
    EXPECT_EQ(a.user_name(uid), b.user_name(uid));
    for (int j = 0; j < a.num_user_measures(); ++j)
      EXPECT_EQ(bits(a.capacity(uid, j)), bits(b.capacity(uid, j)));
  }
  for (model::EdgeId e = 0; static_cast<std::size_t>(e) < a.num_edges();
       ++e) {
    EXPECT_EQ(a.edge_user(e), b.edge_user(e));
    EXPECT_EQ(bits(a.edge_utility(e)), bits(b.edge_utility(e)));
    for (int j = 0; j < a.num_user_measures(); ++j)
      EXPECT_EQ(bits(a.edge_load(e, j)), bits(b.edge_load(e, j)));
  }
}

void expect_identical(const std::vector<InstanceEvent>& a,
                      const std::vector<InstanceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a[i].type), static_cast<int>(b[i].type))
        << "event " << i;
    EXPECT_EQ(a[i].user, b[i].user) << "event " << i;
    EXPECT_EQ(a[i].stream, b[i].stream) << "event " << i;
    EXPECT_EQ(bits(a[i].value), bits(b[i].value)) << "event " << i;
    ASSERT_EQ(a[i].interests.size(), b[i].interests.size());
    for (std::size_t k = 0; k < a[i].interests.size(); ++k) {
      EXPECT_EQ(a[i].interests[k].user, b[i].interests[k].user);
      EXPECT_EQ(a[i].interests[k].stream, b[i].interests[k].stream);
      EXPECT_EQ(bits(a[i].interests[k].utility),
                bits(b[i].interests[k].utility));
    }
  }
}

// Loads `text`; the message of the std::runtime_error it must throw has
// to contain `what`.
void expect_error(const std::function<void(const std::string&)>& load,
                  const std::string& text, const std::string& what) {
  try {
    load(text);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "message: " << e.what() << "\nexpected to contain: " << what;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a runtime_error: " << e.what() << "\n" << text;
  }
}

// A small instance whose file holds every record kind, names included.
Instance small_instance() {
  model::InstanceBuilder b(2, 1);
  b.set_budget(0, 10.0);
  b.set_budget(1, model::kUnbounded);
  const auto s0 = b.add_stream({1.5, 0.25}, "news-hd");
  const auto s1 = b.add_stream({2.0, 3.0});
  const auto s2 = b.add_stream({0.1 + 0.2, 1e-7});
  const auto u0 = b.add_user({4.0}, "gw-1");
  const auto u1 = b.add_user({model::kUnbounded});
  b.add_interest(u0, s0, 1.5, {1.5});
  b.add_interest(u0, s2, 2.25, {0.5});
  b.add_interest(u1, s1, 3.0, {3.0});
  b.add_interest(u1, s2, 1.0 / 3.0, {2.0});
  return std::move(b).build();
}

// Every event kind, append tails included.
std::vector<InstanceEvent> every_event_kind() {
  std::vector<InstanceEvent> events(7);
  events[0].type = EventType::kUserLeave;
  events[0].user = 1;
  events[1].type = EventType::kUserJoin;
  events[1].user = 1;
  events[1].value = 7.5;
  events[2].type = EventType::kUserJoin;
  events[2].user = 2;
  events[2].value = 3.0;
  events[2].interests = {{0, model::kInvalidUser, 1.25},
                         {2, model::kInvalidUser, 0.5}};
  events[3].type = EventType::kStreamRemove;
  events[3].stream = 2;
  events[4].type = EventType::kStreamAdd;
  events[4].stream = 3;
  events[4].value = 0.75;
  events[4].interests = {{model::kInvalidStream, 0, 2.0}};
  events[5].type = EventType::kCapacityChange;
  events[5].user = 0;
  events[5].value = model::kUnbounded;
  events[6].type = EventType::kUtilityChange;
  events[6].user = 1;
  events[6].stream = 1;
  events[6].value = 0.062559604644775391;
  return events;
}

std::vector<std::string> getline_lines(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

void expect_reader_matches_getline(const std::string& text) {
  const std::vector<std::string> expected = getline_lines(text);
  std::istringstream is(text);
  LineReader reader(is);
  std::size_t n = 0;
  for (std::string_view line; reader.next(line); ++n) {
    ASSERT_LT(n, expected.size());
    ASSERT_EQ(line, expected[n]) << "line " << n + 1;
    ASSERT_EQ(reader.line_number(), n + 1);
  }
  EXPECT_EQ(n, expected.size());
  EXPECT_EQ(reader.line_number(), expected.size());
}

TEST(TextIo, LineReaderMatchesGetlineAcrossBlocks) {
  constexpr std::size_t kBlock = std::size_t{64} << 10;
  expect_reader_matches_getline("");
  expect_reader_matches_getline("\n");
  expect_reader_matches_getline("\n\n\n");
  expect_reader_matches_getline("no newline");
  expect_reader_matches_getline("a\r\nb\r\n\r\n");
  // Lines ending on, just before and just after the block boundary, a
  // line of exactly one block, lines several blocks long (the block
  // grows), and a last line with no newline.
  std::string text;
  for (const std::size_t length :
       {kBlock - 2, std::size_t{0}, kBlock - 1, kBlock, kBlock + 1,
        3 * kBlock + 7, std::size_t{5}, 2 * kBlock}) {
    text.append(length, 'x');
    text += '\n';
  }
  text += "tail";
  expect_reader_matches_getline(text);
  // Many short random lines.
  util::Rng rng(20);
  std::string many;
  for (int k = 0; k < 20000; ++k) {
    many.append(static_cast<std::size_t>(rng.uniform_int(0, 40)), 'y');
    many += '\n';
  }
  expect_reader_matches_getline(many);
}

TEST(TextIo, SplitsOnTheCharactersStreamExtractionSkips) {
  std::vector<std::string_view> tokens{"stale"};
  split_tokens(" \tbudget\v0\f5\r", tokens);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"budget", "0", "5"}));
  split_tokens("\r", tokens);
  EXPECT_TRUE(tokens.empty());
  split_tokens("a:1,b", tokens);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"a:1,b"}));
  for (int c = 0; c < 256; ++c) {
    std::istringstream is(std::string("a") + static_cast<char>(c) + "b");
    std::string first;
    is >> first;
    EXPECT_EQ(is_space(static_cast<char>(c)), first == "a") << "char " << c;
  }
}

TEST(TextIo, NumbersAndIdsAreWholeTokens) {
  for (const char* bad : {"", "+5", "0x1p0", "1x", "1e400", "-1e400", "1 ",
                          " 1", "1.5.2", "--1", "e5", "1e"})
    EXPECT_FALSE(parse_number(bad).has_value()) << "'" << bad << "'";
  EXPECT_EQ(parse_number("inf").value_or(0.0), model::kUnbounded);
  EXPECT_EQ(parse_number("-inf").value_or(0.0), -model::kUnbounded);
  EXPECT_TRUE(std::isnan(parse_number("nan").value_or(0.0)));
  EXPECT_EQ(bits(parse_number("4.9406564584124654e-324").value_or(0.0)),
            bits(kDenormMin));
  EXPECT_EQ(bits(parse_number("-0").value_or(1.0)), bits(-0.0));
  EXPECT_EQ(parse_number("1e-7").value_or(0.0), 1e-7);

  for (const char* bad : {"", "+0", "-1", "1x", "1.0", "0x10", "2147483648",
                          "99999999999999999999", " 1"})
    EXPECT_FALSE(parse_id(bad).has_value()) << "'" << bad << "'";
  EXPECT_EQ(parse_id("0").value_or(-1), 0);
  EXPECT_EQ(parse_id("2147483647").value_or(-1),
            std::numeric_limits<std::int32_t>::max());
}

TEST(TextIo, WriterIsPrintfPercent17g) {
  auto expect_printf_bytes = [](double v) {
    char expected[64];
    std::snprintf(expected, sizeof expected, "%.17g", v);
    std::ostringstream os;
    write_number(os, v);
    ASSERT_EQ(os.str(), expected) << "bits " << bits(v);
    if (!std::isnan(v)) {
      const auto back = parse_number(os.str());
      ASSERT_TRUE(back.has_value()) << os.str();
      EXPECT_EQ(bits(*back), bits(v)) << os.str();
    }
  };
  for (const double v :
       {0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 1e21, 1e-7, 123456789012345678.0,
        kDenormMin, 1e-310, std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(), model::kUnbounded,
        -model::kUnbounded, std::numeric_limits<double>::quiet_NaN()})
    expect_printf_bytes(v);
  util::Rng rng(17);
  for (int k = 0; k < 20000; ++k) {
    expect_printf_bytes(std::bit_cast<double>(rng.next_u64()));
    expect_printf_bytes(rng.uniform(0.0, 100.0));
  }
  std::ostringstream os;
  write_number(os, model::kUnbounded);
  EXPECT_EQ(os.str(), "inf");
}

TEST(InstanceIo, SubnormalValuesRoundTripBitForBit) {
  model::InstanceBuilder b(1, 1);
  b.set_budget(0, 1.0);
  const auto s0 = b.add_stream({kDenormMin});
  const auto s1 = b.add_stream({1e-310});
  const auto u0 = b.add_user({1e-310});
  const auto u1 = b.add_user({kDenormMin});
  b.add_interest(u0, s0, 1e-310, {kDenormMin});
  b.add_interest(u1, s1, kDenormMin, {kDenormMin});
  const Instance inst = std::move(b).build();
  ASSERT_EQ(inst.num_edges(), 2u);
  const std::string text = saved(inst);
  EXPECT_NE(text.find("4.9406564584124654e-324"), std::string::npos) << text;
  expect_identical(inst, load_instance_text(text));
}

TEST(EventIo, SubnormalValuesRoundTripBitForBit) {
  std::vector<InstanceEvent> events(4);
  events[0].type = EventType::kCapacityChange;
  events[0].user = 0;
  events[0].value = 1e-310;
  events[1].type = EventType::kUtilityChange;
  events[1].user = 0;
  events[1].stream = 1;
  events[1].value = kDenormMin;
  events[2].type = EventType::kUserJoin;
  events[2].user = 5;
  events[2].value = 1e-320;
  events[2].interests = {{3, model::kInvalidUser, kDenormMin}};
  events[3].type = EventType::kStreamAdd;
  events[3].stream = 9;
  events[3].value = kDenormMin;
  const std::string text = saved(events);
  EXPECT_NE(text.find("capacity 0 9.9999999999999694e-311"),
            std::string::npos)
      << text;
  expect_identical(events, load_events_text(text));
}

// The parent format accepted all of these through stream extraction or
// std::stod's prefix rules; each is now an error naming its line.
TEST(InstanceIo, OneTokenRuleForEveryField) {
  const auto load = [](const std::string& text) {
    (void)load_instance_text(text);
  };
  const std::string dims = "vdist-instance 1\ndims 1 1\n";
  expect_error(load, "vdist-instance 1x\ndims 1 1\n", "'1x' at line 1");
  expect_error(load, "# c\nvdist-instance 1 junk\ndims 1 1\n",
               "instance_io: header needs exactly one version at line 2");
  expect_error(load, dims + "budget 0 +5\n", "bad number '+5' at line 3");
  expect_error(load, dims + "budget 0 5\nstream 0 - 0x1p0\n",
               "bad number '0x1p0' at line 4");
  expect_error(load, dims + "budget 0 5\nstream +0 - 1\n", "'+0' at line 4");
  expect_error(load, dims + "budget 0 5\nstream 0 - 1e400\n",
               "bad number '1e400' at line 4");
  // A control byte in the echoed token cannot cut the message short.
  expect_error(load, dims + std::string("budget 0 5\0x\n", 13),
               "bad number '5\\x00x' at line 3");

  const auto load_ev = [](const std::string& text) {
    (void)load_events_text(text);
  };
  expect_error(load_ev, "vdist-events 1\ncapacity 0 +5\n",
               "events line 2: expected a number, got '+5'");
  expect_error(load_ev, "vdist-events 1\nutility 0 1 0x1p0\n",
               "events line 2: expected a number, got '0x1p0'");
  expect_error(load_ev, "vdist-events 1\n\nleave +3\n",
               "events line 3: expected a non-negative id, got '+3'");
  expect_error(load_ev, "vdist-events 1\njoin 4 1 0:+1\n",
               "events line 2: expected a number, got '+1'");
  expect_error(load_ev, "# only a comment\n",
               "events line 1: missing 'vdist-events 1' header");
}

std::string crlf(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

TEST(InstanceIo, CrlfLoadsAsItsLfForm) {
  const Instance inst = small_instance();
  const std::string lf = saved(inst);
  expect_identical(inst, load_instance_text(crlf(lf)));
  // A blank "\r\n" line used to read as a record with no kind ("dims
  // must come first at line 2"); comments and trailing space too.
  const std::size_t header_end = lf.find('\n') + 1;
  const std::string padded = lf.substr(0, header_end) + "\n# note\n \t\n" +
                             lf.substr(header_end);
  expect_identical(inst, load_instance_text(crlf(padded)));

  const std::vector<InstanceEvent> events = every_event_kind();
  const std::string events_lf = saved(events) + "\n# trailing comment\n";
  expect_identical(events, load_events_text(crlf(events_lf)));

  model::Assignment a(inst);
  a.assign(0, 0);
  a.assign(1, 1);
  std::ostringstream os;
  save_assignment(os, a);
  std::istringstream is(crlf("# exported\n\n" + os.str()));
  const model::Assignment loaded = load_assignment(is, inst);
  EXPECT_EQ(loaded.num_assigned_pairs(), 2u);
  EXPECT_EQ(bits(loaded.utility()), bits(a.utility()));
}

TEST(AssignmentIo, WholeTokenIdsExactArityAndLineNumbers) {
  const Instance inst = small_instance();
  const auto load = [&](const std::string& text) {
    std::istringstream is(text);
    (void)load_assignment(is, inst);
  };
  const std::string head = "# exported\nassign 0 0\n";
  expect_error(load, head + "assign 0 0 junk\n",
               "load_assignment: assign needs a user and a stream at line 3");
  expect_error(load, head + "assign 0 0x\n", "'0x' at line 3");
  expect_error(load, head + "assign +0 0\n", "'+0' at line 3");
  expect_error(load, head + "utility 2 extra\n",
               "load_assignment: utility needs exactly one value at line 3");
  expect_error(load, head + "assign 0 3\n", "'3' at line 3");
  expect_error(load, head + "assign 2 0\n", "'2' at line 3");
  expect_error(load, head + "utility 1.5x\n", "bad number '1.5x' at line 3");
  expect_error(load, head + "assign\n", "at line 3");
  expect_error(load, head + "utility 99\n",
               "utility does not match the rebuilt assignment (wrong "
               "instance?) at line 3");
  // The utility line is checked against every pair, those after it too.
  std::istringstream ok(head + "utility 4.5\nassign 1 1\n");
  EXPECT_EQ(load_assignment(ok, inst).utility(), 4.5);
}

// The outcome every mutated input must have: a load returns, or throws a
// std::runtime_error whose message names a line. Returns "" on success,
// else what went wrong.
std::string load_outcome(const std::function<void(const std::string&)>& load,
                         const std::string& text) {
  try {
    load(text);
    return "";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    const std::size_t at = msg.find("line ");
    if (at != std::string::npos && at + 5 < msg.size() &&
        msg[at + 5] >= '0' && msg[at + 5] <= '9')
      return "";
    return "runtime_error without a line: " + msg;
  } catch (const std::exception& e) {
    return std::string("not a runtime_error: ") + e.what();
  }
}

struct Corpus {
  std::string name;
  std::string text;
  std::function<void(const std::string&)> load;
};

std::vector<Corpus> corpora() {
  static const Instance inst = small_instance();
  model::Assignment a(inst);
  a.assign(0, 0);
  a.assign(0, 2);
  a.assign(1, 1);
  std::ostringstream assignment;
  save_assignment(assignment, a);
  return {
      {"instance", saved(inst),
       [](const std::string& text) { (void)load_instance_text(text); }},
      {"events", saved(every_event_kind()),
       [](const std::string& text) { (void)load_events_text(text); }},
      {"assignment", assignment.str(),
       [](const std::string& text) {
         std::istringstream is(text);
         (void)load_assignment(is, inst);
       }},
  };
}

TEST(TextIoCorpus, TruncationAtEveryByteOffset) {
  for (const Corpus& c : corpora()) {
    ASSERT_EQ(load_outcome(c.load, c.text), "") << c.name;
    for (std::size_t k = 0; k <= c.text.size(); ++k)
      ASSERT_EQ(load_outcome(c.load, c.text.substr(0, k)), "")
          << c.name << " truncated to " << k << " bytes";
  }
}

TEST(TextIoCorpus, RandomByteFlips) {
  // Bytes that change a token's meaning, plus arbitrary ones.
  const std::string alphabet = "0123456789 \t\r\n#:-+.eExinfa\v\f";
  const auto random_index = [](util::Rng& rng, std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  util::Rng rng(2008);
  for (const Corpus& c : corpora()) {
    for (int trial = 0; trial < 1500; ++trial) {
      std::string text = c.text;
      for (auto flips = rng.uniform_int(1, 3); flips > 0; --flips) {
        char& byte = text[random_index(rng, text.size())];
        if (rng.bernoulli(0.8))
          byte = alphabet[random_index(rng, alphabet.size())];
        else
          byte = static_cast<char>(rng.uniform_int(0, 255));
      }
      ASSERT_EQ(load_outcome(c.load, text), "")
          << c.name << " trial " << trial << ":\n" << text;
    }
  }
}

TEST(TextIoCorpus, HugeIdsAndCounts) {
  const auto load = [](const std::string& text) {
    (void)load_instance_text(text);
  };
  const std::string dims = "vdist-instance 1\ndims 1 1\nbudget 0 5\n";
  const std::string world = dims + "stream 0 - 1\nuser 0 - 2\n";
  for (const std::string& bad :
       {std::string("vdist-instance 2147483647\n"),
        std::string("vdist-instance 1\ndims 2147483647 2147483647\n"),
        std::string("vdist-instance 1\ndims 99999999999999999999 1\n"),
        std::string("vdist-instance 1\ndims 4097 1\n"),
        dims + "budget 2147483647 5\n", dims + "stream 2147483647 - 1\n",
        world + "user 1 - 1e308\ninterest 2147483647 0 1 1\n",
        world + "interest 0 2147483648 1 1\n",
        world + "interest 0 0 1e309 1\n"}) {
    EXPECT_EQ(load_outcome(load, bad), "") << bad;
    EXPECT_THROW(load(bad), std::runtime_error) << bad;
  }

  const auto load_ev = [](const std::string& text) {
    (void)load_events_text(text);
  };
  // Event ids are bounded by INT32_MAX at load; whether one names a live
  // entity is the overlay's check.
  const auto loaded =
      load_events_text("vdist-events 1\nleave 2147483647\n"
                       "join 2147483647 1e308 2147483647:1e-308\n");
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1].interests[0].stream,
            std::numeric_limits<std::int32_t>::max());
  for (const char* bad :
       {"vdist-events 1\nleave 2147483648\n",
        "vdist-events 1\nstream-add 99999999999999999999 1 0:1\n",
        "vdist-events 1\njoin 3 1 18446744073709551616:1\n",
        "vdist-events 1\ncapacity 0 1e309\n"}) {
    EXPECT_EQ(load_outcome(load_ev, bad), "") << bad;
    EXPECT_THROW(load_ev(bad), std::runtime_error) << bad;
  }

  const Instance inst = small_instance();
  const auto load_as = [&](const std::string& text) {
    std::istringstream is(text);
    (void)load_assignment(is, inst);
  };
  for (const char* bad : {"assign 2147483647 0\n", "assign 0 2147483648\n",
                          "assign 18446744073709551616 0\n"}) {
    EXPECT_EQ(load_outcome(load_as, bad), "") << bad;
    EXPECT_THROW(load_as(bad), std::runtime_error) << bad;
  }
}

// Each numeric field of each corpus, replaced in turn by each non-finite
// token: the loader or the builder behind it decides, always by line.
TEST(TextIoCorpus, NonFiniteTokensInEveryField) {
  for (const Corpus& c : corpora()) {
    const std::vector<std::string> lines = getline_lines(c.text);
    for (std::size_t l = 0; l < lines.size(); ++l) {
      std::vector<std::string_view> tokens;
      split_tokens(lines[l], tokens);
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        for (const char* token : {"nan", "inf", "-inf"}) {
          std::string text;
          for (std::size_t k = 0; k < lines.size(); ++k) {
            if (k != l) {
              text += lines[k];
            } else {
              for (std::size_t j = 0; j < tokens.size(); ++j) {
                if (j > 0) text += ' ';
                text += j == t ? std::string_view(token) : tokens[j];
              }
            }
            text += '\n';
          }
          ASSERT_EQ(load_outcome(c.load, text), "")
              << c.name << " line " << l + 1 << " field " << t << " = "
              << token;
        }
      }
    }
  }
  // The typed rejections name the record and the line.
  const auto load = [](const std::string& text) {
    (void)load_instance_text(text);
  };
  expect_error(load, "vdist-instance 1\ndims 1 1\nbudget 0 nan\n",
               "set_budget: budget must be positive or inf at line 3");
  expect_error(load, "vdist-instance 1\ndims 1 1\nbudget 0 -inf\n",
               "set_budget: budget must be positive or inf at line 3");
  expect_error(load, "vdist-instance 1\ndims 1 1\nstream 0 - inf\n",
               "add_stream: costs must be finite and >= 0 at line 3");
}

// A serve-8k-sized world (8000 streams x 2000 users, about 2 MB of text)
// crosses many 64 KiB blocks; it and a churn trace over it round-trip
// bit for bit, and re-saving reproduces the same bytes.
TEST(TextIoCorpus, ServeSizedWorldRoundTrips) {
  engine::ScenarioSpec spec;
  spec.name = "cap";
  spec.seed = 1;
  spec.params.set("streams", 8000).set("users", 2000);
  const Instance inst = engine::build_scenario(spec);
  const std::string text = saved(inst);
  ASSERT_GT(text.size(), std::size_t{1} << 20);
  const Instance loaded = load_instance_text(text);
  expect_identical(inst, loaded);
  EXPECT_EQ(saved(loaded), text);

  const std::vector<InstanceEvent> events =
      workload::WorkloadRegistry::global().generate(
          "churn", inst, {{"events", "1024"}, {"seed", "1"}});
  const std::string trace = saved(events);
  const std::vector<InstanceEvent> events_loaded = load_events_text(trace);
  expect_identical(events, events_loaded);
  EXPECT_EQ(saved(events_loaded), trace);
}

}  // namespace
}  // namespace vdist::io
