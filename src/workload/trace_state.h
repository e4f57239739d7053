// Shared bookkeeping for the workload trace generators: alive flags,
// current declared caps, per-user utility ceilings, and event emitters
// that keep every declared pair live — caps floored at the user's
// largest declared pair utility, utilities clamped to the declared
// value — so w_u(S) <= W_u holds at every prefix and no generated event
// clips a pair at its cap. (Parity does not rest on this: the overlay
// applies the cap rule to any event, model/overlay.h.) Internal to
// src/workload/ — the public surface is workload.h.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "model/events.h"
#include "model/instance.h"
#include "util/float_cmp.h"
#include "util/rng.h"

namespace vdist::workload::detail {

struct TraceState {
  explicit TraceState(const model::Instance& instance) : inst(instance) {
    if (inst.num_users() == 0 || inst.num_streams() == 0)
      throw std::invalid_argument(
          "workload: instance needs at least one user and one stream");
    if (inst.num_edges() == 0)
      throw std::invalid_argument(
          "workload: instance has no interest pairs to churn");
    U = inst.num_users();
    S = inst.num_streams();
    user_alive.assign(U, 1);
    stream_alive.assign(S, 1);
    users_alive = U;
    streams_alive = S;
    cur_cap.resize(U);
    max_w.assign(U, 0.0);
    for (std::size_t u = 0; u < U; ++u)
      cur_cap[u] = inst.capacity(static_cast<model::UserId>(u), 0);
    edge_stream.resize(inst.num_edges());
    for (std::size_t s = 0; s < S; ++s)
      for (model::EdgeId e = inst.first_edge(static_cast<model::StreamId>(s));
           e < inst.last_edge(static_cast<model::StreamId>(s)); ++e)
        edge_stream[static_cast<std::size_t>(e)] =
            static_cast<model::StreamId>(s);
    for (std::size_t e = 0; e < inst.num_edges(); ++e) {
      const auto u = static_cast<std::size_t>(
          inst.edge_user(static_cast<model::EdgeId>(e)));
      max_w[u] =
          std::max(max_w[u], inst.edge_utility(static_cast<model::EdgeId>(e)));
    }
  }

  const model::Instance& inst;
  std::size_t U = 0, S = 0;
  std::vector<char> user_alive, stream_alive;
  std::size_t users_alive = 0, streams_alive = 0;
  std::vector<double> cur_cap;  // current declared cap per user
  std::vector<double> max_w;    // largest declared pair utility per user
  std::vector<model::StreamId> edge_stream;

  // --- emitters: append one event when legal, return whether they did ---

  // Departure, keeping at least one user alive.
  bool emit_leave(model::UserId u, std::vector<model::InstanceEvent>& out) {
    const auto uu = static_cast<std::size_t>(u);
    if (users_alive < 2 || user_alive[uu] == 0) return false;
    model::InstanceEvent ev;
    ev.type = model::EventType::kUserLeave;
    ev.user = u;
    out.push_back(std::move(ev));
    user_alive[uu] = 0;
    --users_alive;
    return true;
  }

  // Rejoin with the declared cap kept (value <= 0 convention).
  bool emit_join(model::UserId u, std::vector<model::InstanceEvent>& out) {
    const auto uu = static_cast<std::size_t>(u);
    if (user_alive[uu] != 0) return false;
    model::InstanceEvent ev;
    ev.type = model::EventType::kUserJoin;
    ev.user = u;
    ev.value = 0.0;
    out.push_back(std::move(ev));
    user_alive[uu] = 1;
    ++users_alive;
    return true;
  }

  // Stream pull, keeping at least one stream alive.
  bool emit_stream_remove(model::StreamId s,
                          std::vector<model::InstanceEvent>& out) {
    const auto ss = static_cast<std::size_t>(s);
    if (streams_alive < 2 || stream_alive[ss] == 0) return false;
    model::InstanceEvent ev;
    ev.type = model::EventType::kStreamRemove;
    ev.stream = s;
    out.push_back(std::move(ev));
    stream_alive[ss] = 0;
    --streams_alive;
    return true;
  }

  // Restore of a pulled stream.
  bool emit_stream_add(model::StreamId s,
                       std::vector<model::InstanceEvent>& out) {
    const auto ss = static_cast<std::size_t>(s);
    if (stream_alive[ss] != 0) return false;
    model::InstanceEvent ev;
    ev.type = model::EventType::kStreamAdd;
    ev.stream = s;
    out.push_back(std::move(ev));
    stream_alive[ss] = 1;
    ++streams_alive;
    return true;
  }

  // Capacity change floored at max_w[u] (no pair crosses its cap);
  // unbounded caps are never churned.
  bool emit_capacity(model::UserId u, double value,
                     std::vector<model::InstanceEvent>& out) {
    const auto uu = static_cast<std::size_t>(u);
    if (util::is_unbounded(cur_cap[uu])) return false;
    model::InstanceEvent ev;
    ev.type = model::EventType::kCapacityChange;
    ev.user = u;
    ev.value = std::max(value, max_w[uu]);
    cur_cap[uu] = ev.value;
    out.push_back(std::move(ev));
    return true;
  }

  // Utility change on a declared pair, scaled by min(scale, 1) of the
  // declared value so w <= W_u keeps holding.
  void emit_utility(model::EdgeId e, double scale,
                    std::vector<model::InstanceEvent>& out) {
    model::InstanceEvent ev;
    ev.type = model::EventType::kUtilityChange;
    ev.user = inst.edge_user(e);
    ev.stream = edge_stream[static_cast<std::size_t>(e)];
    ev.value = inst.edge_utility(e) * std::min(scale, 1.0);
    out.push_back(std::move(ev));
  }

  // --- uniform draws over the current state ---

  // Each draw takes one uniform_int over the qualifying count; callers
  // check the count is non-zero first.
  [[nodiscard]] model::UserId random_alive_user(util::Rng& rng) const {
    return static_cast<model::UserId>(
        nth_flag(rng, user_alive, true, users_alive));
  }

  [[nodiscard]] model::UserId random_dead_user(util::Rng& rng) const {
    return static_cast<model::UserId>(
        nth_flag(rng, user_alive, false, U - users_alive));
  }

  [[nodiscard]] model::StreamId random_alive_stream(util::Rng& rng) const {
    return static_cast<model::StreamId>(
        nth_flag(rng, stream_alive, true, streams_alive));
  }

  [[nodiscard]] model::StreamId random_dead_stream(util::Rng& rng) const {
    return static_cast<model::StreamId>(
        nth_flag(rng, stream_alive, false, S - streams_alive));
  }

  [[nodiscard]] model::EdgeId random_edge(util::Rng& rng) const {
    return static_cast<model::EdgeId>(rng.uniform_int(
        0, static_cast<std::int64_t>(inst.num_edges()) - 1));
  }

  // A uniform edge of stream s whose user satisfies `alive`; invalid edge
  // id (num_edges) when none qualifies.
  [[nodiscard]] model::EdgeId random_edge_of(util::Rng& rng,
                                             model::StreamId s,
                                             bool alive) const {
    const model::EdgeId lo = inst.first_edge(s);
    const model::EdgeId hi = inst.last_edge(s);
    std::size_t count = 0;
    for (model::EdgeId e = lo; e < hi; ++e)
      if ((user_alive[static_cast<std::size_t>(inst.edge_user(e))] != 0) ==
          alive)
        ++count;
    if (count == 0) return static_cast<model::EdgeId>(inst.num_edges());
    auto r = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
    for (model::EdgeId e = lo; e < hi; ++e)
      if ((user_alive[static_cast<std::size_t>(inst.edge_user(e))] != 0) ==
              alive &&
          r-- == 0)
        return e;
    return static_cast<model::EdgeId>(inst.num_edges());  // unreachable
  }

  [[nodiscard]] bool valid_edge(model::EdgeId e) const {
    return static_cast<std::size_t>(e) < inst.num_edges();
  }

  // Guaranteed emitter: capacity wiggle on a random alive user, else a
  // utility change on a random pair. Keeps every trace at its exact
  // declared length.
  void emit_fallback(util::Rng& rng, std::vector<model::InstanceEvent>& out) {
    const model::UserId u = random_alive_user(rng);
    if (emit_capacity(u, cur_cap[static_cast<std::size_t>(u)] *
                             rng.uniform(0.8, 1.2),
                      out))
      return;
    emit_utility(random_edge(rng), rng.uniform(0.4, 1.0), out);
  }

 private:
  // Index of a uniform entry among the `count` flags whose aliveness is
  // `alive`. O(n); trace generation is not a hot path and the scan keeps
  // the draw independent of container churn.
  static std::size_t nth_flag(util::Rng& rng, const std::vector<char>& flags,
                              bool alive, std::size_t count) {
    auto r = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
    for (std::size_t i = 0; i < flags.size(); ++i)
      if ((flags[i] != 0) == alive && r-- == 0) return i;
    return flags.size() - 1;  // unreachable when count was right
  }
};

}  // namespace vdist::workload::detail
