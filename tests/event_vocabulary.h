// Shared test helper: a seeded generator over the whole event vocabulary
// of model::InstanceOverlay, accepted and rejected, drawn against the
// overlay's current state. The snapshot differential (test_instance_build)
// and the serving fuzzer (test_serve_fuzz) draw from it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "model/events.h"
#include "model/instance.h"
#include "model/overlay.h"
#include "util/float_cmp.h"
#include "util/rng.h"

namespace vdist::testing {

inline model::StreamId stream_of_edge(const model::Instance& inst,
                                      model::EdgeId e) {
  const auto offsets = inst.stream_offsets();
  return static_cast<model::StreamId>(
      std::upper_bound(offsets.begin(), offsets.end(), e) - offsets.begin() -
      1);
}

inline model::InstanceEvent make_event(model::EventType type, model::UserId u,
                                       model::StreamId s, double value) {
  model::InstanceEvent ev;
  ev.type = type;
  ev.user = u;
  ev.stream = s;
  ev.value = value;
  return ev;
}

// Distinct random ids in [0, count), at most `most` of them.
inline std::vector<std::int32_t> distinct_ids(util::Rng& rng,
                                              std::size_t count, int most) {
  std::set<std::int32_t> ids;
  const auto n = rng.uniform_int(1, most);
  for (std::int64_t k = 0; k < n; ++k)
    ids.insert(static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1)));
  return {ids.begin(), ids.end()};
}

// An append event of a new user (peers are streams) or a new stream
// (peers are users) naming up to three distinct peers in random order.
inline model::InstanceEvent random_append(const model::InstanceOverlay& overlay,
                                          util::Rng& rng, bool stream) {
  using model::kInvalidStream;
  using model::kInvalidUser;
  model::InstanceEvent ev;
  if (stream) {
    const double budget = overlay.budget();
    ev = make_event(model::EventType::kStreamAdd, kInvalidUser,
                    static_cast<model::StreamId>(overlay.num_streams()),
                    rng.uniform(0.0, util::is_unbounded(budget) ? 10.0
                                                                : budget));
  } else {
    ev = make_event(model::EventType::kUserJoin,
                    static_cast<model::UserId>(overlay.num_users()),
                    kInvalidStream,
                    rng.bernoulli(0.2) ? model::kUnbounded
                                       : rng.uniform(1.0, 20.0));
  }
  for (const std::int32_t peer : distinct_ids(
           rng, stream ? overlay.num_users() : overlay.num_streams(), 3)) {
    if (stream) {
      ev.interests.push_back({kInvalidStream, peer, rng.uniform(0.5, 12.0)});
    } else {
      ev.interests.push_back({peer, kInvalidUser, rng.uniform(0.5, 12.0)});
    }
  }
  rng.shuffle(ev.interests);
  return ev;
}

// One random accepted event against the overlay's current state. Unlike
// generator traces these push pairs across their caps: caps of 0, inf,
// exactly a pair's utility and one ulp below it; utilities of 0, -0,
// exactly the user's cap and above it; plus (re)joins with a new cap,
// leaves, stream removes and restores, and user and stream appends.
inline model::InstanceEvent random_event(const model::InstanceOverlay& overlay,
                                         util::Rng& rng) {
  using model::EventType;
  using model::kInvalidStream;
  using model::kInvalidUser;
  const model::Instance& base = overlay.instance();
  const auto e = static_cast<model::EdgeId>(rng.uniform_int(
      0, static_cast<std::int64_t>(base.num_edges()) - 1));
  const model::UserId u = base.edge_user(e);
  const model::StreamId s = stream_of_edge(base, e);
  const double w = overlay.edge_utility(e) > 0.0 ? overlay.edge_utility(e)
                                                 : base.edge_utility(e);
  const double cap = overlay.declared_capacity(u);
  const double finite_cap = util::is_unbounded(cap) ? w : cap;
  switch (rng.uniform_int(0, 19)) {
    case 0:
      return make_event(EventType::kUserJoin, u, kInvalidStream, 0.0);
    case 1:
      return make_event(EventType::kUserJoin, u, kInvalidStream,
                        rng.uniform(0.5, 3.0) * w);
    case 2:
    case 3:
      return make_event(EventType::kUserLeave, u, kInvalidStream, 0.0);
    case 4:
      return make_event(EventType::kCapacityChange, u, kInvalidStream, 0.0);
    case 5:
      return make_event(EventType::kCapacityChange, u, kInvalidStream,
                        model::kUnbounded);
    case 6:
      return make_event(EventType::kCapacityChange, u, kInvalidStream, w);
    case 7:
      return make_event(EventType::kCapacityChange, u, kInvalidStream,
                        std::nextafter(w, 0.0));
    case 8:
      return make_event(EventType::kUtilityChange, u, s, 0.0);
    case 9:
      return make_event(EventType::kUtilityChange, u, s, -0.0);
    case 10:
      return make_event(EventType::kUtilityChange, u, s, finite_cap);
    case 11:
      return make_event(EventType::kUtilityChange, u, s,
                        finite_cap * rng.uniform(1.01, 2.0) + 0.25);
    case 12:
      return make_event(EventType::kUtilityChange, u, s,
                        rng.uniform(0.25, 1.5) * w);
    case 13:
    case 14:
      return make_event(EventType::kStreamRemove, kInvalidUser, s, 0.0);
    case 15:
    case 16:
      return make_event(EventType::kStreamAdd, kInvalidUser, s, 0.0);
    case 17:
      return random_append(overlay, rng, /*stream=*/false);
    case 18:
      return random_append(overlay, rng, /*stream=*/true);
    default:  // a rejoin with the pair's own utility as the new cap
      return make_event(EventType::kUserJoin, u, kInvalidStream, w);
  }
}

// One event the overlay must refuse: an unknown id, a NaN or negative
// utility, a negative or NaN cap (a NaN join cap too), and appends that
// name an unknown peer, name a peer twice, carry a peer utility of 0,
// NaN or inf, or cost NaN, a negative amount or more than the budget.
inline model::InstanceEvent invalid_event(const model::InstanceOverlay& overlay,
                                          util::Rng& rng) {
  using model::EventType;
  using model::kInvalidStream;
  using model::kInvalidUser;
  const model::Instance& base = overlay.instance();
  const auto e = static_cast<model::EdgeId>(rng.uniform_int(
      0, static_cast<std::int64_t>(base.num_edges()) - 1));
  const model::UserId u = base.edge_user(e);
  const model::StreamId s = stream_of_edge(base, e);
  const auto users = static_cast<model::UserId>(overlay.num_users());
  const auto streams = static_cast<model::StreamId>(overlay.num_streams());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const bool stream_side = rng.bernoulli(0.5);
  model::InstanceEvent append = random_append(overlay, rng, stream_side);
  model::InterestSpec& peer = append.interests.front();
  switch (rng.uniform_int(0, 15)) {
    case 0:
      return make_event(EventType::kUserLeave, users + 1, kInvalidStream, 0.0);
    case 1:
      return make_event(EventType::kUserJoin, -1, kInvalidStream, 0.0);
    case 2:
      return make_event(EventType::kStreamRemove, kInvalidUser, streams + 1,
                        0.0);
    case 3:
      return make_event(EventType::kUtilityChange, u, streams, 1.0);
    case 4:
      return make_event(EventType::kUtilityChange, u, s, nan);
    case 5:
      return make_event(EventType::kUtilityChange, u, s, -1.0);
    case 6:
      return make_event(EventType::kCapacityChange, u, kInvalidStream, -1.0);
    case 7:
      return make_event(EventType::kCapacityChange, u, kInvalidStream, nan);
    case 8:
      return make_event(EventType::kCapacityChange, users, kInvalidStream,
                        1.0);
    case 9:
      return make_event(EventType::kUserJoin, u, kInvalidStream, nan);
    case 10:  // an unknown peer
      if (stream_side) {
        peer.user = users;
      } else {
        peer.stream = streams;
      }
      return append;
    case 11: {  // a peer named twice, with another utility
      model::InterestSpec twin = peer;
      twin.utility = peer.utility + 1.0;
      append.interests.push_back(twin);
      rng.shuffle(append.interests);
      return append;
    }
    case 12: {
      const double bad[] = {0.0, -0.0, nan, model::kUnbounded};
      peer.utility = bad[rng.uniform_int(0, 3)];
      return append;
    }
    case 13:
      if (!util::is_unbounded(overlay.budget())) {
        model::InstanceEvent over = random_append(overlay, rng, true);
        over.value = 2.0 * overlay.budget() + 1.0;
        return over;
      }
      [[fallthrough]];
    default: {  // a NaN or negative stream cost
      model::InstanceEvent bad_cost = random_append(overlay, rng, true);
      bad_cost.value = rng.bernoulli(0.5) ? nan : -1.0;
      return bad_cost;
    }
  }
}

}  // namespace vdist::testing
