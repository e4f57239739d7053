// InstanceOverlay: a mutable, event-driven overlay over a parent cap-form
// Instance — the model substrate of the serving-session API.
//
// model::InstanceView (view.h) made derived *read-only* problems copy-free;
// the overlay makes the instance itself *evolve*. It owns the three value
// arrays a cap-form view overrides (per-edge utility, per-stream total,
// per-user cap) plus alive flags, and mutates them in place:
//
//   * tombstones: user_leave() / stream_remove() zero the entity's pairs
//     (and the user's cap) — O(deg) touches, no topology change, and the
//     *declared* values survive so a later user_join() / stream_add()
//     restores them exactly;
//   * value changes: set_capacity() / set_utility() move one cap or one
//     pair's utility (utility changes are remembered in an override map so
//     they survive tombstone/restore cycles and rebuilds);
//   * appends: append_user() / append_stream() admit genuinely new
//     entities. Ids are handed out densely past the current counts; the
//     base CSR is rebuilt (O(nnz)) and generation() is bumped — edge ids
//     are NOT stable across a rebuild, entity ids are.
//
// One meaning per event: a pair's effective utility is its declared
// value while both ends are alive and the value is approx_le the user's
// cap, and 0 otherwise — the builder's rule that w_u(S) = 0 when the
// stream alone exceeds the user's capacity. Capacity, utility and join
// events re-derive it, so a pair that crosses its cap leaves the world
// and comes back when the cap (or the value) lets it.
//
// view() exposes the current state as a model::InstanceView over the
// current base, so the whole §2 solver family (and engine::Session's
// repair policies) runs on overlay state with zero copies per solve.
// materialize() bakes the current state into a standalone Instance — the
// ground truth the session parity tests solve from scratch. Both read the
// same effective arrays, so they agree on every accepted event sequence.
//
// Not thread-safe; one overlay per session, like a SolveWorkspace.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "model/events.h"
#include "model/instance.h"
#include "model/view.h"

namespace vdist::model {

// Bakes effective cap-form state over the unit-skew cap-form `base` into
// a standalone Instance under the paper's conventions: edge e carries
// edge_utility[e] (0 and -0 pairs are dropped), user u's cap is
// capacity[u], and pairs with w above their user's cap are zeroed
// (counted in num_edges_zeroed_by_capacity()), as InstanceBuilder would.
// Costs, budget and names are base's; the uid is fresh. The result is a
// filter of base's CSR, one pass in edge order plus its user mirror
// through an old-to-new edge map: O(nnz + |S| + |U|), no sort and no
// builder staging, and bit-identical to building the same kept pairs.
// The one snapshot of the serving layer: InstanceOverlay::materialize()
// calls it. Throws std::invalid_argument when the spans do not match
// base's edge and user counts, when base is not unit-skew cap form, and
// for a utility that is NaN, negative or infinite or a cap that is NaN
// or negative, rather than rewrite what it cannot represent.
[[nodiscard]] Instance snapshot_instance(const Instance& base,
                                         std::span<const double> edge_utility,
                                         std::span<const double> capacity);

class InstanceOverlay {
 public:
  // Requires parent.is_smd() && parent.is_unit_skew() (throws
  // std::invalid_argument otherwise): the overlay speaks the Section-2
  // cap form, where one utility array doubles as the load relation.
  // The parent must outlive the overlay (binding a temporary is a
  // compile error).
  explicit InstanceOverlay(const Instance& parent);
  explicit InstanceOverlay(Instance&&) = delete;

  // The current base instance: the parent until the first append, then an
  // owned rebuilt instance. Stream/user ids are stable across rebuilds;
  // edge ids are not. Assignments for the overlay's current state must be
  // built against this instance.
  [[nodiscard]] const Instance& instance() const noexcept {
    return owned_ != nullptr ? *owned_ : *parent_;
  }
  // Bumped on every rebuild (append); holders of edge-indexed caches or
  // of Assignments against a previous base use this to invalidate.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  [[nodiscard]] std::size_t num_users() const noexcept {
    return capacity_.size();
  }
  [[nodiscard]] std::size_t num_streams() const noexcept {
    return total_utility_.size();
  }
  [[nodiscard]] double budget() const noexcept {
    return instance().budget(0);
  }

  [[nodiscard]] bool user_alive(UserId u) const noexcept {
    return user_alive_[static_cast<std::size_t>(u)] != 0;
  }
  [[nodiscard]] bool stream_alive(StreamId s) const noexcept {
    return stream_alive_[static_cast<std::size_t>(s)] != 0;
  }
  // Effective cap: the declared cap while alive, 0 while departed.
  [[nodiscard]] double capacity(UserId u) const noexcept {
    return capacity_[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] double declared_capacity(UserId u) const noexcept {
    return declared_cap_[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] double total_utility(StreamId s) const noexcept {
    return total_utility_[static_cast<std::size_t>(s)];
  }
  // Effective utility of the (u, s) pair; 0 when absent or tombstoned.
  [[nodiscard]] double pair_utility(UserId u, StreamId s) const noexcept;
  // Effective utility of base edge e (edge ids are per-generation).
  [[nodiscard]] double edge_utility(EdgeId e) const noexcept {
    return edge_utility_[static_cast<std::size_t>(e)];
  }

  // The current state as a copy-free cap-form view over the current base.
  // Valid until the next mutation; any mutation may move values, and an
  // append reallocates the arrays themselves.
  [[nodiscard]] InstanceView view() const noexcept {
    return InstanceView(instance(), edge_utility_, total_utility_, capacity_);
  }

  // Spans over the effective arrays (engine::WorldRef binds these). Same
  // validity rule as view(): any mutation may move values, an append
  // reallocates the arrays themselves.
  [[nodiscard]] std::span<const double> edge_utilities() const noexcept {
    return edge_utility_;
  }
  [[nodiscard]] std::span<const double> total_utilities() const noexcept {
    return total_utility_;
  }
  [[nodiscard]] std::span<const double> capacities() const noexcept {
    return capacity_;
  }
  [[nodiscard]] std::span<const char> user_alive_flags() const noexcept {
    return user_alive_;
  }
  [[nodiscard]] std::span<const char> stream_alive_flags() const noexcept {
    return stream_alive_;
  }

  // --- Mutations ---------------------------------------------------------
  // Tombstone user u: effective cap and every pair -> 0. Returns false
  // (no-op) when already departed.
  bool user_leave(UserId u);
  // Restore a departed user; cap > 0 replaces the declared cap first,
  // and a cap <= 0 keeps it. A NaN cap throws std::invalid_argument and
  // changes nothing. Returns false (after applying any cap change) when
  // already alive.
  bool user_join(UserId u, double cap = 0.0);
  // Tombstone stream s: every pair -> 0. Returns false when already gone.
  bool stream_remove(StreamId s);
  // Restore a removed stream. Returns false when already alive.
  bool stream_add(StreamId s);
  // Set user u's declared cap (effective immediately when alive). The cap
  // must be finite and >= 0, or kUnbounded.
  void set_capacity(UserId u, double cap);
  // Set w_u(S) of an existing interest pair (>= 0; 0 disables the pair,
  // and so does a value above the user's cap until the cap admits it).
  // The override outlives tombstone/restore cycles and rebuilds. Throws
  // std::invalid_argument when the pair is not in the interest graph.
  void set_utility(UserId u, StreamId s, double utility);

  // Append a brand-new user (returns its dense id == old num_users()) or
  // stream. Rebuilds the base CSR: O(nnz), bumps generation(). Interests
  // name existing peers (peer utilities must be > 0 to create a pair).
  // A rejected append (an unknown peer, a peer named twice, a stream cost
  // above the budget) throws std::invalid_argument and changes nothing.
  UserId append_user(double cap, std::span<const InterestSpec> interests);
  StreamId append_stream(double cost, std::span<const InterestSpec> interests);

  // Applies one typed event. kUserJoin with user == num_users() (and
  // kStreamAdd with stream == num_streams()) appends; other out-of-range
  // ids throw std::invalid_argument.
  void apply(const InstanceEvent& event);

  // Bakes the current effective state into a standalone Instance:
  // snapshot_instance() over the current base and effective arrays, a
  // filter of the base CSR. Bit-compatible with view() for solver parity:
  // the effective arrays already hold the builder's cap rule, so the
  // filter drops exactly the zero pairs and zeroes none.
  [[nodiscard]] Instance materialize() const {
    return snapshot_instance(instance(), edge_utility_, capacity_);
  }

 private:
  [[nodiscard]] const Instance& base() const noexcept { return instance(); }
  // Declared (structural) utility of edge e: the base value, unless an
  // explicit override exists for its pair.
  [[nodiscard]] double declared_utility(EdgeId e, UserId u,
                                        StreamId s) const noexcept;
  // Effective utility of edge e = (u, s) under the current alive flags,
  // declared values and declared cap (see the header comment).
  [[nodiscard]] double effective_utility(EdgeId e, UserId u,
                                         StreamId s) const noexcept;
  // Recomputes one stream's total by a full CSR resum — bit-equal to the
  // sum a freshly built Instance would carry (adding 0.0 terms is exact).
  void resum_total(StreamId s);
  // Re-derive the effective utilities of every edge incident to u / s
  // (after an alive-flag flip or a cap change). The user side resums only
  // the streams whose pair changed.
  void refresh_user_edges(UserId u);
  void refresh_stream_edges(StreamId s);
  // Rebuilds the owned base from the current structural state plus the
  // staged append, then re-derives every effective array.
  void rebuild();

  static std::uint64_t pair_key(UserId u, StreamId s) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
           static_cast<std::uint32_t>(s);
  }

  const Instance* parent_ = nullptr;
  std::unique_ptr<Instance> owned_;

  std::vector<double> edge_utility_;   // effective, per base edge
  std::vector<double> total_utility_;  // effective, per stream
  std::vector<double> capacity_;       // effective, per user
  std::vector<double> declared_cap_;   // survives tombstones
  // Per user: at least every declared utility of its pairs (overrides
  // included; it only grows). A cap at or above it clips nothing.
  std::vector<double> max_declared_;
  std::vector<char> user_alive_;
  std::vector<char> stream_alive_;
  // Explicit UtilityChange values by (u, s) pair — stable across rebuilds.
  std::map<std::uint64_t, double> utility_override_;
  // Staged appends consumed by rebuild().
  struct PendingUser {
    double cap;
    std::vector<InterestSpec> interests;
  };
  struct PendingStream {
    double cost;
    std::vector<InterestSpec> interests;
  };
  std::vector<PendingUser> pending_users_;
  std::vector<PendingStream> pending_streams_;
  std::uint64_t generation_ = 0;
};

}  // namespace vdist::model
