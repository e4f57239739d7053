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
  // a known user: the new cap, or <= 0 to keep the declared one. kUserJoin
  // past the current user count / kStreamAdd past the stream count: the
  // appended entity's cap / cost.
  double value = 0.0;
  // Interest edges of an appended entity (ignored for non-append events).
  std::vector<InterestSpec> interests;
};

}  // namespace vdist::model
