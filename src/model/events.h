// Typed mutation events over a serving instance: the dynamic setting the
// paper's algorithms are one-shot snapshots of. A video server's world
// changes one small step at a time — a user joins or leaves, a stream is
// added to or dropped from the catalog, a capacity or a utility moves —
// and every layer that reacts to that world (model::InstanceOverlay,
// engine::Session, the trace generators in workload/trace_state.h, the
// text format in io/event_io.h) speaks this one event vocabulary.
//
// Events reference model ids only, so they sit at the model layer; the
// semantics of *applying* one live in model::InstanceOverlay (tombstone /
// restore / append) and the repair policies in engine::Session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/types.h"

namespace vdist::model {

enum class EventType {
  kUserJoin,        // (re)join a departed user, or append a brand-new one
  kUserLeave,       // tombstone a user: cap -> 0, every pair disabled
  kStreamAdd,       // restore a removed stream, or append a brand-new one
  kStreamRemove,    // tombstone a stream: every pair disabled
  kCapacityChange,  // set user u's utility cap W_u
  kUtilityChange,   // set w_u(S) of one existing interest pair
};

// One interest edge of an appended user or stream: the peer id and the
// pair's utility (cap form: load == utility).
struct InterestSpec {
  StreamId stream = kInvalidStream;  // peer stream (user-side appends)
  UserId user = kInvalidUser;        // peer user (stream-side appends)
  double utility = 0.0;
};

struct InstanceEvent {
  EventType type = EventType::kUserLeave;
  UserId user = kInvalidUser;        // join / leave / capacity / utility
  StreamId stream = kInvalidStream;  // add / remove / utility
  // kCapacityChange: the new cap. kUtilityChange: the new w. kUserJoin on
  // a known user: the new cap, or <= 0 to keep the declared one (NaN is
  // rejected). kUserJoin past the current user count / kStreamAdd past
  // the stream count: the appended entity's cap / cost.
  double value = 0.0;
  // Interest edges of an appended entity (ignored for non-append events).
  std::vector<InterestSpec> interests;
};

// What an event names, against the current entity counts: the serving
// layer's one rule for telling an append from a restore, and a known id
// from one the overlay must reject.
struct EventScope {
  bool user_event = false;      // join / leave / capacity / utility
  bool appends_user = false;    // kUserJoin with user == num_users
  bool appends_stream = false;  // kStreamAdd with stream == num_streams
  bool ids_known = true;        // every id it names exists or is appended
};

[[nodiscard]] inline EventScope classify_event(
    const InstanceEvent& event, std::size_t num_users,
    std::size_t num_streams) noexcept {
  const auto is = [](std::int32_t id, std::size_t count) {
    return id >= 0 && static_cast<std::size_t>(id) == count;
  };
  const auto known = [](std::int32_t id, std::size_t count) {
    return id >= 0 && static_cast<std::size_t>(id) < count;
  };
  const EventType type = event.type;
  EventScope out;
  out.user_event = type == EventType::kUserJoin ||
                   type == EventType::kUserLeave ||
                   type == EventType::kCapacityChange ||
                   type == EventType::kUtilityChange;
  out.appends_user =
      type == EventType::kUserJoin && is(event.user, num_users);
  out.appends_stream =
      type == EventType::kStreamAdd && is(event.stream, num_streams);
  // A kUtilityChange names both a user and a stream.
  const bool user_ok =
      !out.user_event || out.appends_user || known(event.user, num_users);
  const bool stream_ok =
      (out.user_event && type != EventType::kUtilityChange) ||
      out.appends_stream || known(event.stream, num_streams);
  out.ids_known = user_ok && stream_ok;
  return out;
}

}  // namespace vdist::model
