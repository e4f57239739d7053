#include "model/overlay.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/float_cmp.h"

namespace vdist::model {

using util::is_unbounded;

namespace {

void check_user(const char* who, UserId u, std::size_t count) {
  if (u < 0 || static_cast<std::size_t>(u) >= count)
    throw std::invalid_argument(std::string(who) + ": unknown user " +
                                std::to_string(u));
}

void check_stream(const char* who, StreamId s, std::size_t count) {
  if (s < 0 || static_cast<std::size_t>(s) >= count)
    throw std::invalid_argument(std::string(who) + ": unknown stream " +
                                std::to_string(s));
}

// An append's interests sorted by peer id, after checking each names a
// known peer (`peer` picks the id field, `count` bounds it) once, with a
// finite utility > 0.
std::vector<InterestSpec> sorted_peers(const char* who,
                                       std::span<const InterestSpec> interests,
                                       std::int32_t InterestSpec::*peer,
                                       std::size_t count) {
  std::vector<InterestSpec> out(interests.begin(), interests.end());
  for (const InterestSpec& spec : out) {
    if (spec.*peer < 0 || static_cast<std::size_t>(spec.*peer) >= count)
      throw std::invalid_argument(std::string(who) + ": unknown peer " +
                                  std::to_string(spec.*peer));
    if (!(spec.utility > 0.0) || !std::isfinite(spec.utility))
      throw std::invalid_argument(std::string(who) +
                                  ": utilities must be finite and > 0");
  }
  std::sort(out.begin(), out.end(),
            [&](const InterestSpec& a, const InterestSpec& b) {
              return a.*peer < b.*peer;
            });
  for (std::size_t k = 1; k < out.size(); ++k)
    if (out[k].*peer == out[k - 1].*peer)
      throw std::invalid_argument(std::string(who) + ": peer " +
                                  std::to_string(out[k].*peer) +
                                  " named twice");
  return out;
}

}  // namespace

Instance snapshot_instance(const Instance& base,
                           std::span<const double> edge_utility,
                           std::span<const double> capacity,
                           const InstanceEvent* append,
                           std::vector<EdgeId>* edge_map) {
  if (edge_utility.size() != base.num_edges() ||
      capacity.size() != base.num_users())
    throw std::invalid_argument(
        "snapshot_instance: spans must cover every edge and user of base");
  if (!base.is_smd() || !base.is_unit_skew())
    throw std::invalid_argument(
        "snapshot_instance: base must be a unit-skew cap-form instance "
        "(m == mc == 1, load == utility)");
  for (const double cap : capacity)
    if (!(util::is_finite_nonneg(cap) || is_unbounded(cap)))
      throw std::invalid_argument(
          "snapshot_instance: capacities must be >= 0 or unbounded");

  // The appended entity: a user whose peers are streams, or a stream
  // whose peers are users, each peer named once and in id order.
  const bool new_user =
      append != nullptr && append->type == EventType::kUserJoin;
  const bool new_stream = append != nullptr && !new_user;
  std::span<const InterestSpec> peers;
  if (append != nullptr) peers = append->interests;
  const std::size_t base_S = base.num_streams();
  const std::size_t base_U = base.num_users();
  const auto peer_of = [&](const InterestSpec& p) {
    return static_cast<std::size_t>(new_user ? p.stream : p.user);
  };
  const std::size_t S = base_S + (new_stream ? 1 : 0);
  const std::size_t U = base_U + (new_user ? 1 : 0);
  Instance inst;
  inst.uid_ = Instance::next_uid();
  inst.unit_skew_ = true;  // m == mc == 1 and every load is its utility
  inst.budgets_ = base.budgets_;
  inst.costs_ = base.costs_;
  inst.capacities_.assign(capacity.begin(), capacity.end());
  inst.stream_names_ = base.stream_names_;
  inst.user_names_ = base.user_names_;
  if (new_stream) inst.costs_.push_back(append->value);
  if (new_user) inst.capacities_.push_back(append->value);
  inst.stream_names_.resize(S);
  inst.user_names_.resize(U);

  // One pass over the stream CSR in edge order: keep the w > 0 pairs the
  // builder's cap rule admits. An appended user's pair goes last in its
  // row and an appended stream is the last row, so the kept edges stay in
  // (stream, user) order and the totals are summed in the builder's
  // order: every array is bit-identical to a build of the same pairs.
  const std::size_t nnz = base.num_edges();
  std::vector<EdgeId> remap(nnz, -1);  // old edge -> new, -1 when dropped
  std::vector<EdgeId> peer_edge(peers.size(), -1);  // likewise per peer
  inst.stream_offsets_.resize(S + 1);
  inst.edge_user_.resize(nnz + peers.size());
  inst.edge_utility_.resize(nnz + peers.size());
  inst.stream_total_utility_.resize(S);
  std::size_t kept = 0;
  double total = 0.0;
  const auto keep = [&](UserId u, double w) -> EdgeId {
    if (!util::is_finite_nonneg(w))
      throw std::invalid_argument(
          "snapshot_instance: utilities must be finite, >= 0");
    if (!(w > 0.0)) return -1;
    if (!util::approx_le(w, inst.capacities_[static_cast<std::size_t>(u)])) {
      ++inst.zeroed_edges_;
      return -1;
    }
    inst.edge_user_[kept] = u;
    inst.edge_utility_[kept] = w;
    total += w;
    inst.utility_grand_total_ += w;
    return static_cast<EdgeId>(kept++);
  };
  std::size_t next = 0;  // the next peer to place
  for (std::size_t s = 0; s < S; ++s) {
    total = 0.0;
    if (s < base_S) {
      for (auto e = static_cast<std::size_t>(base.stream_offsets_[s]);
           e < static_cast<std::size_t>(base.stream_offsets_[s + 1]); ++e)
        remap[e] = keep(base.edge_user_[e], edge_utility[e]);
      if (new_user && next < peers.size() && peer_of(peers[next]) == s) {
        peer_edge[next] = keep(static_cast<UserId>(base_U),
                               peers[next].utility);
        ++next;
      }
    } else {
      for (; next < peers.size(); ++next)
        peer_edge[next] = keep(peers[next].user, peers[next].utility);
    }
    inst.stream_total_utility_[s] = total;
    inst.stream_offsets_[s + 1] = static_cast<EdgeId>(kept);
  }
  inst.edge_user_.resize(kept);
  inst.edge_utility_.resize(kept);
  inst.edge_loads_ = inst.edge_utility_;

  // The user mirror: base's, with the dropped edges filtered out and the
  // appended pairs placed the same way. Each user's edges keep their
  // stream order.
  inst.user_offsets_.resize(U + 1);
  inst.user_edge_idx_.resize(kept);
  inst.user_edge_stream_.resize(kept);
  std::size_t pos = 0;
  const auto put = [&](EdgeId e, std::size_t s) {
    if (e < 0) return;
    inst.user_edge_idx_[pos] = e;
    inst.user_edge_stream_[pos] = static_cast<StreamId>(s);
    ++pos;
  };
  next = 0;
  for (std::size_t u = 0; u < U; ++u) {
    if (u < base_U) {
      for (auto t = static_cast<std::size_t>(base.user_offsets_[u]);
           t < static_cast<std::size_t>(base.user_offsets_[u + 1]); ++t)
        put(remap[static_cast<std::size_t>(base.user_edge_idx_[t])],
            static_cast<std::size_t>(base.user_edge_stream_[t]));
      if (new_stream && next < peers.size() && peer_of(peers[next]) == u)
        put(peer_edge[next++], base_S);
    } else {
      for (; next < peers.size(); ++next)
        put(peer_edge[next], peer_of(peers[next]));
    }
    inst.user_offsets_[u + 1] = static_cast<EdgeId>(pos);
  }
  assert(pos == kept);  // the peers were ascending: each pair is mirrored
  if (edge_map != nullptr) *edge_map = std::move(remap);
  return inst;
}

InstanceOverlay::InstanceOverlay(const Instance& parent) : parent_(&parent) {
  if (!parent.is_smd() || !parent.is_unit_skew())
    throw std::invalid_argument(
        "InstanceOverlay: requires a unit-skew cap-form instance "
        "(m == mc == 1, load == utility)");
  edge_utility_.assign(parent.edge_utilities().begin(),
                       parent.edge_utilities().end());
  total_utility_.assign(parent.stream_total_utilities().begin(),
                        parent.stream_total_utilities().end());
  capacity_.resize(parent.num_users());
  for (std::size_t u = 0; u < capacity_.size(); ++u)
    capacity_[u] = parent.capacity(static_cast<UserId>(u), 0);
  declared_cap_ = capacity_;
  max_declared_.assign(parent.num_users(), 0.0);
  for (std::size_t e = 0; e < parent.num_edges(); ++e) {
    double& top = max_declared_[static_cast<std::size_t>(
        parent.edge_user(static_cast<EdgeId>(e)))];
    top = std::max(top, parent.edge_utilities()[e]);
  }
  user_alive_.assign(parent.num_users(), 1);
  stream_alive_.assign(parent.num_streams(), 1);
}

double InstanceOverlay::pair_utility(UserId u, StreamId s) const noexcept {
  const auto e = base().find_edge(u, s);
  return e ? edge_utility_[static_cast<std::size_t>(*e)] : 0.0;
}

double InstanceOverlay::declared_utility(EdgeId e, UserId u,
                                         StreamId s) const noexcept {
  const auto it = utility_override_.find(pair_key(u, s));
  return it != utility_override_.end()
             ? it->second
             : base().edge_utility(e);
}

double InstanceOverlay::effective_utility(EdgeId e, UserId u,
                                          StreamId s) const noexcept {
  if (!user_alive(u) || !stream_alive(s)) return 0.0;
  const double w = declared_utility(e, u, s);
  return util::approx_le(w, declared_cap_[static_cast<std::size_t>(u)]) ? w
                                                                        : 0.0;
}

void InstanceOverlay::resum_total(StreamId s) {
  const Instance& inst = base();
  double total = 0.0;
  for (EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e)
    total += edge_utility_[static_cast<std::size_t>(e)];
  total_utility_[static_cast<std::size_t>(s)] = total;
}

void InstanceOverlay::refresh_user_edges(UserId u) {
  const Instance& inst = base();
  const auto edges = inst.edges_of(u);
  const auto streams = inst.streams_of(u);
  const bool alive = user_alive(u);
  const double cap = declared_cap_[static_cast<std::size_t>(u)];
  // streams_of(u) is sorted and duplicate-free, so each stream whose
  // pair moved is resummed exactly once.
  for (std::size_t t = 0; t < edges.size(); ++t) {
    double& slot = edge_utility_[static_cast<std::size_t>(edges[t])];
    // A nonzero pair of a live user carries its declared value, so only a
    // cap crossing can move it; the zero ones need the declared lookup.
    const double w = alive && slot > 0.0
                         ? (util::approx_le(slot, cap) ? slot : 0.0)
                         : effective_utility(edges[t], u, streams[t]);
    if (std::bit_cast<std::uint64_t>(w) == std::bit_cast<std::uint64_t>(slot))
      continue;
    slot = w;
    resum_total(streams[t]);
  }
}

void InstanceOverlay::refresh_stream_edges(StreamId s) {
  const Instance& inst = base();
  for (EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e)
    edge_utility_[static_cast<std::size_t>(e)] =
        effective_utility(e, inst.edge_user(e), s);
  resum_total(s);
}

bool InstanceOverlay::user_leave(UserId u) {
  check_user("user_leave", u, num_users());
  if (!user_alive(u)) return false;
  user_alive_[static_cast<std::size_t>(u)] = 0;
  capacity_[static_cast<std::size_t>(u)] = 0.0;
  refresh_user_edges(u);
  return true;
}

bool InstanceOverlay::user_join(UserId u, double cap) {
  check_user("user_join", u, num_users());
  if (std::isnan(cap))
    throw std::invalid_argument("user_join: cap must not be NaN");
  if (cap > 0.0 || is_unbounded(cap)) set_capacity(u, cap);
  if (user_alive(u)) return false;
  user_alive_[static_cast<std::size_t>(u)] = 1;
  capacity_[static_cast<std::size_t>(u)] =
      declared_cap_[static_cast<std::size_t>(u)];
  refresh_user_edges(u);
  return true;
}

bool InstanceOverlay::stream_remove(StreamId s) {
  check_stream("stream_remove", s, num_streams());
  if (!stream_alive(s)) return false;
  stream_alive_[static_cast<std::size_t>(s)] = 0;
  refresh_stream_edges(s);
  return true;
}

bool InstanceOverlay::stream_add(StreamId s) {
  check_stream("stream_add", s, num_streams());
  if (stream_alive(s)) return false;
  stream_alive_[static_cast<std::size_t>(s)] = 1;
  refresh_stream_edges(s);
  return true;
}

void InstanceOverlay::set_capacity(UserId u, double cap) {
  check_user("set_capacity", u, num_users());
  if (!(util::is_finite_nonneg(cap) || is_unbounded(cap)))
    throw std::invalid_argument("set_capacity: cap must be >= 0 or inf");
  const auto uu = static_cast<std::size_t>(u);
  const double old = declared_cap_[uu];
  declared_cap_[uu] = cap;
  if (!user_alive(u)) return;
  capacity_[uu] = cap;
  // A pair moves only across the cap, and none can while both caps are
  // at or above every declared utility of the user.
  if (old >= max_declared_[uu] && cap >= max_declared_[uu]) return;
  refresh_user_edges(u);
}

void InstanceOverlay::set_utility(UserId u, StreamId s, double utility) {
  check_user("set_utility", u, num_users());
  check_stream("set_utility", s, num_streams());
  if (!util::is_finite_nonneg(utility))
    throw std::invalid_argument("set_utility: utility must be finite, >= 0");
  const auto e = base().find_edge(u, s);
  if (!e)
    throw std::invalid_argument("set_utility: pair (user " +
                                std::to_string(u) + ", stream " +
                                std::to_string(s) +
                                ") is not in the interest graph");
  utility_override_[pair_key(u, s)] = utility;
  double& top = max_declared_[static_cast<std::size_t>(u)];
  top = std::max(top, utility);
  if (user_alive(u) && stream_alive(s)) {
    edge_utility_[static_cast<std::size_t>(*e)] = effective_utility(*e, u, s);
    resum_total(s);
  }
}

UserId InstanceOverlay::append_user(double cap,
                                    std::span<const InterestSpec> interests) {
  if (!(util::is_finite_nonneg(cap) || is_unbounded(cap)))
    throw std::invalid_argument("append_user: cap must be >= 0 or inf");
  InstanceEvent append;
  append.type = EventType::kUserJoin;
  append.value = kUnbounded;  // the base's caps are; the overlay keeps `cap`
  append.interests =
      sorted_peers("append_user", interests, &InterestSpec::stream,
                   num_streams());
  splice(append);
  const auto u = static_cast<UserId>(num_users());
  declared_cap_.push_back(cap);
  capacity_.push_back(cap);
  user_alive_.push_back(1);
  max_declared_.push_back(0.0);
  for (const InterestSpec& spec : append.interests)
    max_declared_.back() = std::max(max_declared_.back(), spec.utility);
  refresh_user_edges(u);
  return u;
}

StreamId InstanceOverlay::append_stream(
    double cost, std::span<const InterestSpec> interests) {
  if (!util::is_finite_nonneg(cost))
    throw std::invalid_argument("append_stream: cost must be finite, >= 0");
  if (!util::approx_le(cost, budget()))
    throw std::invalid_argument("append_stream: cost " + std::to_string(cost) +
                                " exceeds the budget");
  InstanceEvent append;
  append.type = EventType::kStreamAdd;
  append.value = cost;
  append.interests = sorted_peers("append_stream", interests,
                                  &InterestSpec::user, num_users());
  splice(append);
  const auto s = static_cast<StreamId>(num_streams());
  total_utility_.push_back(0.0);
  stream_alive_.push_back(1);
  for (const InterestSpec& spec : append.interests) {
    double& top = max_declared_[static_cast<std::size_t>(spec.user)];
    top = std::max(top, spec.utility);
  }
  refresh_stream_edges(s);
  return s;
}

void InstanceOverlay::splice(const InstanceEvent& append) {
  const Instance& old = base();
  const std::vector<double> unbounded(old.num_users(), kUnbounded);
  std::vector<EdgeId> edge_map;
  auto spliced = std::make_unique<Instance>(snapshot_instance(
      old, old.edge_utilities(), unbounded, &append, &edge_map));
  // Every structural pair is > 0 and no cap binds, so every old edge has
  // a new id.
  std::vector<double> moved(spliced->num_edges(), 0.0);
  for (std::size_t e = 0; e < edge_map.size(); ++e)
    moved[static_cast<std::size_t>(edge_map[e])] = edge_utility_[e];
  edge_utility_ = std::move(moved);
  owned_ = std::move(spliced);
  ++generation_;
}

void InstanceOverlay::apply(const InstanceEvent& event) {
  switch (event.type) {
    case EventType::kUserJoin:
      if (event.user >= 0 &&
          static_cast<std::size_t>(event.user) == num_users()) {
        append_user(event.value, event.interests);
      } else {
        user_join(event.user, event.value);
      }
      return;
    case EventType::kUserLeave:
      user_leave(event.user);
      return;
    case EventType::kStreamAdd:
      if (event.stream >= 0 &&
          static_cast<std::size_t>(event.stream) == num_streams()) {
        append_stream(event.value, event.interests);
      } else {
        stream_add(event.stream);
      }
      return;
    case EventType::kStreamRemove:
      stream_remove(event.stream);
      return;
    case EventType::kCapacityChange:
      set_capacity(event.user, event.value);
      return;
    case EventType::kUtilityChange:
      set_utility(event.user, event.stream, event.value);
      return;
  }
  throw std::invalid_argument("InstanceOverlay::apply: unknown event type");
}

}  // namespace vdist::model
