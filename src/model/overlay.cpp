#include "model/overlay.h"

#include <algorithm>
#include <bit>
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

}  // namespace

Instance snapshot_instance(const Instance& base,
                           std::span<const double> edge_utility,
                           std::span<const double> capacity) {
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

  const std::size_t S = base.num_streams();
  const std::size_t U = base.num_users();
  Instance inst;
  inst.uid_ = Instance::next_uid();
  inst.unit_skew_ = true;  // m == mc == 1 and every load is its utility
  inst.budgets_ = base.budgets_;
  inst.costs_ = base.costs_;
  inst.capacities_.assign(capacity.begin(), capacity.end());
  inst.stream_names_ = base.stream_names_;
  inst.user_names_ = base.user_names_;

  // One pass over the stream CSR in edge order: keep the w > 0 pairs the
  // builder's cap rule admits. The kept edges stay in (stream, user)
  // order and the totals are summed in the builder's order, so every
  // array is bit-identical to a build of the same pairs.
  const std::size_t nnz = base.num_edges();
  std::vector<EdgeId> remap(nnz, -1);  // old edge -> new, -1 when dropped
  inst.stream_offsets_.resize(S + 1);
  inst.edge_user_.resize(nnz);
  inst.edge_utility_.resize(nnz);
  inst.stream_total_utility_.resize(S);
  std::size_t kept = 0;
  for (std::size_t s = 0; s < S; ++s) {
    double total = 0.0;
    for (auto e = static_cast<std::size_t>(base.stream_offsets_[s]);
         e < static_cast<std::size_t>(base.stream_offsets_[s + 1]); ++e) {
      const double w = edge_utility[e];
      if (!util::is_finite_nonneg(w))
        throw std::invalid_argument(
            "snapshot_instance: utilities must be finite, >= 0");
      if (!(w > 0.0)) continue;
      const UserId u = base.edge_user_[e];
      if (!util::approx_le(w, capacity[static_cast<std::size_t>(u)])) {
        ++inst.zeroed_edges_;
        continue;
      }
      remap[e] = static_cast<EdgeId>(kept);
      inst.edge_user_[kept] = u;
      inst.edge_utility_[kept] = w;
      ++kept;
      total += w;
      inst.utility_grand_total_ += w;
    }
    inst.stream_total_utility_[s] = total;
    inst.stream_offsets_[s + 1] = static_cast<EdgeId>(kept);
  }
  inst.edge_user_.resize(kept);
  inst.edge_utility_.resize(kept);
  inst.edge_loads_ = inst.edge_utility_;

  // The user mirror: base's, with the dropped edges filtered out. Each
  // user's edges keep their stream order.
  inst.user_offsets_.resize(U + 1);
  inst.user_edge_idx_.resize(kept);
  inst.user_edge_stream_.resize(kept);
  std::size_t pos = 0;
  for (std::size_t u = 0; u < U; ++u) {
    for (auto t = static_cast<std::size_t>(base.user_offsets_[u]);
         t < static_cast<std::size_t>(base.user_offsets_[u + 1]); ++t) {
      const EdgeId e =
          remap[static_cast<std::size_t>(base.user_edge_idx_[t])];
      if (e < 0) continue;
      inst.user_edge_idx_[pos] = e;
      inst.user_edge_stream_[pos] = base.user_edge_stream_[t];
      ++pos;
    }
    inst.user_offsets_[u + 1] = static_cast<EdgeId>(pos);
  }
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
  PendingUser pending{cap, {}};
  for (const InterestSpec& spec : interests) {
    check_stream("append_user interest", spec.stream, num_streams());
    if (!(spec.utility > 0.0) || !std::isfinite(spec.utility))
      throw std::invalid_argument(
          "append_user: interest utilities must be finite and > 0");
    pending.interests.push_back(spec);
  }
  pending_users_.push_back(std::move(pending));
  rebuild();
  return static_cast<UserId>(num_users() - 1);
}

StreamId InstanceOverlay::append_stream(
    double cost, std::span<const InterestSpec> interests) {
  if (!util::is_finite_nonneg(cost))
    throw std::invalid_argument("append_stream: cost must be finite, >= 0");
  PendingStream pending{cost, {}};
  for (const InterestSpec& spec : interests) {
    check_user("append_stream interest", spec.user, num_users());
    if (!(spec.utility > 0.0) || !std::isfinite(spec.utility))
      throw std::invalid_argument(
          "append_stream: interest utilities must be finite and > 0");
    pending.interests.push_back(spec);
  }
  pending_streams_.push_back(std::move(pending));
  rebuild();
  return static_cast<StreamId>(num_streams() - 1);
}

// The one O(nnz) step of the overlay: bake structure (old base + staged
// appends) into a fresh Instance, then re-derive every effective array.
// Entity ids are preserved (old entities first, appends after, in order);
// edge ids are reassigned by the builder's (stream, user) sort. Base caps
// are clamped up to each user's largest structural utility so the builder
// never drops a structural edge (it zeroes load > cap pairs); effective
// caps — what view() and materialize() expose — keep the declared values.
void InstanceOverlay::rebuild() {
  const Instance& old = base();
  const std::size_t old_users = old.num_users();
  const std::size_t old_streams = old.num_streams();

  // Largest structural utility per user (old edges + staged appends).
  std::vector<double> max_w(old_users + pending_users_.size(), 0.0);
  for (std::size_t ss = 0; ss < old_streams; ++ss) {
    const auto s = static_cast<StreamId>(ss);
    for (EdgeId e = old.first_edge(s); e < old.last_edge(s); ++e)
      max_w[static_cast<std::size_t>(old.edge_user(e))] =
          std::max(max_w[static_cast<std::size_t>(old.edge_user(e))],
                   old.edge_utility(e));
  }
  for (const PendingStream& ps : pending_streams_)
    for (const InterestSpec& spec : ps.interests)
      max_w[static_cast<std::size_t>(spec.user)] =
          std::max(max_w[static_cast<std::size_t>(spec.user)], spec.utility);
  for (std::size_t k = 0; k < pending_users_.size(); ++k)
    for (const InterestSpec& spec : pending_users_[k].interests)
      max_w[old_users + k] = std::max(max_w[old_users + k], spec.utility);

  std::size_t new_edges = old.num_edges();
  for (const PendingStream& ps : pending_streams_)
    new_edges += ps.interests.size();
  for (const PendingUser& pu : pending_users_)
    new_edges += pu.interests.size();
  InstanceBuilder b(1, 1);
  b.reserve(old_streams + pending_streams_.size(),
            old_users + pending_users_.size(), new_edges);
  b.set_budget(0, old.budget(0));
  for (std::size_t ss = 0; ss < old_streams; ++ss) {
    const auto s = static_cast<StreamId>(ss);
    b.add_stream({old.cost(s, 0)}, old.stream_name(s));
  }
  for (const PendingStream& ps : pending_streams_) b.add_stream({ps.cost});
  auto builder_cap = [&](double declared, std::size_t u) {
    return is_unbounded(declared) ? kUnbounded : std::max(declared, max_w[u]);
  };
  for (std::size_t u = 0; u < old_users; ++u)
    b.add_user({builder_cap(declared_cap_[u], u)},
               old.user_name(static_cast<UserId>(u)));
  for (std::size_t k = 0; k < pending_users_.size(); ++k)
    b.add_user({builder_cap(pending_users_[k].cap, old_users + k)});

  for (std::size_t ss = 0; ss < old_streams; ++ss) {
    const auto s = static_cast<StreamId>(ss);
    for (EdgeId e = old.first_edge(s); e < old.last_edge(s); ++e)
      b.add_interest_unit_skew(old.edge_user(e), s, old.edge_utility(e));
  }
  for (std::size_t k = 0; k < pending_streams_.size(); ++k) {
    const auto s = static_cast<StreamId>(old_streams + k);
    for (const InterestSpec& spec : pending_streams_[k].interests)
      b.add_interest_unit_skew(spec.user, s, spec.utility);
  }
  for (std::size_t k = 0; k < pending_users_.size(); ++k) {
    const auto u = static_cast<UserId>(old_users + k);
    for (const InterestSpec& spec : pending_users_[k].interests)
      b.add_interest_unit_skew(u, spec.stream, spec.utility);
  }

  std::unique_ptr<Instance> rebuilt;
  try {
    rebuilt = std::make_unique<Instance>(std::move(b).build());
  } catch (...) {
    // The builder refused the staged append (a cost above the budget, a
    // peer named twice): drop it, so the overlay stays as it was.
    pending_users_.clear();
    pending_streams_.clear();
    throw;
  }

  max_declared_.resize(max_w.size(), 0.0);
  for (std::size_t u = 0; u < max_w.size(); ++u)
    max_declared_[u] = std::max(max_declared_[u], max_w[u]);
  for (const PendingUser& pu : pending_users_) {
    declared_cap_.push_back(pu.cap);
    capacity_.push_back(pu.cap);
    user_alive_.push_back(1);
  }
  for (std::size_t k = 0; k < pending_streams_.size(); ++k) {
    total_utility_.push_back(0.0);
    stream_alive_.push_back(1);
  }
  pending_users_.clear();
  pending_streams_.clear();
  owned_ = std::move(rebuilt);
  ++generation_;

  // Re-derive effective utilities against the new edge-id space.
  const Instance& inst = *owned_;
  edge_utility_.resize(inst.num_edges());
  for (std::size_t ss = 0; ss < inst.num_streams(); ++ss)
    refresh_stream_edges(static_cast<StreamId>(ss));
  for (std::size_t u = 0; u < capacity_.size(); ++u)
    capacity_[u] =
        user_alive_[u] != 0 ? declared_cap_[u] : 0.0;
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
