// The Multi-Budget Multi-Client Distribution (MMD) instance of the paper
// (problem definition in Section 1.1, notation in Fig. 2).
//
// An instance holds:
//   * m server cost measures: stream S costs c_i(S), budget B_i;
//   * mc user capacity measures: stream S loads user u by k_j^u(S),
//     capacity K_j^u;
//   * a sparse utility relation w_u(S) > 0 stored CSR both by stream and
//     by user (the "interest graph").
//
// The Section-2 problem (single cost, per-user utility caps W_u) is the
// special case m = mc = 1 with k^u(S) = w_u(S) and K^u = W_u; see
// Instance::is_unit_skew() and build_cap_instance() in factory.h.
//
// Immutable after build; algorithms never mutate instances.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/types.h"

namespace vdist::model {

class Instance;
class InstanceBuilder;
struct InstanceEvent;

// Documented in overlay.h; a friend of Instance because it writes its
// filtered CSR straight into one.
[[nodiscard]] Instance snapshot_instance(const Instance& base,
                                         std::span<const double> edge_utility,
                                         std::span<const double> capacity,
                                         const InstanceEvent* append,
                                         std::vector<EdgeId>* edge_map);

class Instance {
 public:
  // --- Dimensions ------------------------------------------------------
  [[nodiscard]] std::size_t num_streams() const noexcept {
    return stream_offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_users() const noexcept {
    return user_offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edge_user_.size();
  }
  // m: number of server cost measures.
  [[nodiscard]] int num_server_measures() const noexcept { return m_; }
  // mc: number of user capacity measures.
  [[nodiscard]] int num_user_measures() const noexcept { return mc_; }
  // The paper's input length n: streams + users + interest edges.
  [[nodiscard]] std::size_t input_length() const noexcept {
    return num_streams() + num_users() + num_edges();
  }
  // Process-unique identity, assigned by InstanceBuilder::build() and
  // snapshot_instance() (the only ways to make an Instance) and shared by
  // copies, which are equal because an Instance never changes after
  // build. Caches of data derived from one instance key on it
  // (core::SolveWorkspace's sorted greedy rows); no built instance has
  // uid 0.
  [[nodiscard]] std::uint64_t uid() const noexcept { return uid_; }

  // --- Server side ------------------------------------------------------
  // c_i(S) for measure i in [0, m).
  [[nodiscard]] double cost(StreamId s, int i) const noexcept {
    return costs_[static_cast<std::size_t>(i) * num_streams() +
                  static_cast<std::size_t>(s)];
  }
  // B_i; kUnbounded when the measure is uncapped.
  [[nodiscard]] double budget(int i) const noexcept {
    return budgets_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::span<const double> budgets() const noexcept {
    return budgets_;
  }

  // --- User side --------------------------------------------------------
  // K_j^u for measure j in [0, mc).
  [[nodiscard]] double capacity(UserId u, int j) const noexcept {
    return capacities_[static_cast<std::size_t>(u) * static_cast<std::size_t>(mc_) +
                       static_cast<std::size_t>(j)];
  }

  // --- Interest graph ---------------------------------------------------
  // Edges of stream s: parallel spans of users and utilities (sorted by
  // user id). Only w_u(S) > 0 pairs are stored.
  [[nodiscard]] std::span<const UserId> users_of(StreamId s) const noexcept {
    return {edge_user_.data() + stream_offsets_[static_cast<std::size_t>(s)],
            edge_user_.data() + stream_offsets_[static_cast<std::size_t>(s) + 1]};
  }
  [[nodiscard]] std::span<const double> utilities_of(StreamId s) const noexcept {
    return {edge_utility_.data() + stream_offsets_[static_cast<std::size_t>(s)],
            edge_utility_.data() + stream_offsets_[static_cast<std::size_t>(s) + 1]};
  }
  // Edge ids of stream s (indices valid for edge_* accessors below).
  [[nodiscard]] EdgeId first_edge(StreamId s) const noexcept {
    return stream_offsets_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] EdgeId last_edge(StreamId s) const noexcept {
    return stream_offsets_[static_cast<std::size_t>(s) + 1];
  }
  [[nodiscard]] UserId edge_user(EdgeId e) const noexcept {
    return edge_user_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] double edge_utility(EdgeId e) const noexcept {
    return edge_utility_[static_cast<std::size_t>(e)];
  }
  // k_j^u(S) for the user/stream pair of edge e.
  [[nodiscard]] double edge_load(EdgeId e, int j) const noexcept {
    return edge_loads_[static_cast<std::size_t>(e) * static_cast<std::size_t>(mc_) +
                       static_cast<std::size_t>(j)];
  }

  // Edges incident to user u, as (stream, edge id) pairs sorted by stream.
  [[nodiscard]] std::span<const StreamId> streams_of(UserId u) const noexcept {
    return {user_edge_stream_.data() + user_offsets_[static_cast<std::size_t>(u)],
            user_edge_stream_.data() + user_offsets_[static_cast<std::size_t>(u) + 1]};
  }
  [[nodiscard]] std::span<const EdgeId> edges_of(UserId u) const noexcept {
    return {user_edge_idx_.data() + user_offsets_[static_cast<std::size_t>(u)],
            user_edge_idx_.data() + user_offsets_[static_cast<std::size_t>(u) + 1]};
  }

  // --- Raw CSR spans (model::InstanceView borrows these) ----------------
  [[nodiscard]] std::span<const EdgeId> stream_offsets() const noexcept {
    return stream_offsets_;
  }
  [[nodiscard]] std::span<const UserId> edge_users() const noexcept {
    return edge_user_;
  }
  [[nodiscard]] std::span<const double> edge_utilities() const noexcept {
    return edge_utility_;
  }
  [[nodiscard]] std::span<const EdgeId> user_offsets() const noexcept {
    return user_offsets_;
  }
  [[nodiscard]] std::span<const EdgeId> user_edge_indices() const noexcept {
    return user_edge_idx_;
  }
  [[nodiscard]] std::span<const StreamId> user_edge_streams() const noexcept {
    return user_edge_stream_;
  }
  [[nodiscard]] std::span<const double> stream_total_utilities()
      const noexcept {
    return stream_total_utility_;
  }
  // The contiguous per-stream cost row of measure i (costs_ is
  // measure-major, so each measure is one |S|-long slice).
  [[nodiscard]] std::span<const double> costs_of_measure(int i) const noexcept {
    return {costs_.data() + static_cast<std::size_t>(i) * num_streams(),
            num_streams()};
  }
  // The per-user capacity column; contiguous only for mc == 1 (the SMD /
  // cap form every view-based solver operates on).
  [[nodiscard]] std::span<const double> capacities_single_measure()
      const noexcept {
    assert(mc_ == 1);
    return capacities_;
  }

  // w_u(S); 0 when the pair is not in the interest graph. O(log deg(S)).
  [[nodiscard]] double utility(UserId u, StreamId s) const noexcept;
  // Edge id for the pair, if present.
  [[nodiscard]] std::optional<EdgeId> find_edge(UserId u, StreamId s) const noexcept;

  // Σ_u w_u(S): the most any assignment can extract from stream S ignoring
  // user-side constraints. Precomputed.
  [[nodiscard]] double total_utility(StreamId s) const noexcept {
    return stream_total_utility_[static_cast<std::size_t>(s)];
  }
  // Σ_S Σ_u w_u(S) over all edges.
  [[nodiscard]] double utility_upper_bound() const noexcept {
    return utility_grand_total_;
  }

  // --- Classification helpers -------------------------------------------
  // True iff m == mc == 1 (the paper's SMD special case).
  [[nodiscard]] bool is_smd() const noexcept { return m_ == 1 && mc_ == 1; }
  // True iff SMD and every edge has load == utility (Section 2 form, where
  // the capacity doubles as the utility cap W_u).
  [[nodiscard]] bool is_unit_skew() const noexcept { return unit_skew_; }
  // Number of edges the builder zeroed because some k_j^u(S) > K_j^u
  // (the paper's "w_u(S) = 0 if k_j^u(S) > K_j^u" assumption).
  [[nodiscard]] std::size_t num_edges_zeroed_by_capacity() const noexcept {
    return zeroed_edges_;
  }

  // --- Naming (optional; for examples and simulator reports) ------------
  [[nodiscard]] const std::string& stream_name(StreamId s) const noexcept {
    return stream_names_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const std::string& user_name(UserId u) const noexcept {
    return user_names_[static_cast<std::size_t>(u)];
  }

 private:
  friend class InstanceBuilder;
  friend Instance snapshot_instance(const Instance& base,
                                    std::span<const double> edge_utility,
                                    std::span<const double> capacity,
                                    const InstanceEvent* append,
                                    std::vector<EdgeId>* edge_map);
  Instance() = default;
  // The next process-unique uid (never 0).
  static std::uint64_t next_uid() noexcept;

  std::uint64_t uid_ = 0;
  int m_ = 1;
  int mc_ = 1;
  std::vector<double> budgets_;        // m
  std::vector<double> costs_;          // m x |S|, measure-major
  std::vector<double> capacities_;     // |U| x mc, user-major

  // CSR by stream.
  std::vector<EdgeId> stream_offsets_;  // |S| + 1
  std::vector<UserId> edge_user_;       // nnz, sorted by user within stream
  std::vector<double> edge_utility_;    // nnz
  std::vector<double> edge_loads_;      // nnz x mc

  // CSR by user (mirror), referencing edge ids above.
  std::vector<EdgeId> user_offsets_;       // |U| + 1
  std::vector<EdgeId> user_edge_idx_;      // nnz
  std::vector<StreamId> user_edge_stream_; // nnz, sorted by stream within user

  std::vector<double> stream_total_utility_;  // |S|
  double utility_grand_total_ = 0.0;
  bool unit_skew_ = false;
  std::size_t zeroed_edges_ = 0;

  std::vector<std::string> stream_names_;
  std::vector<std::string> user_names_;
};

// Incremental builder. Usage:
//   InstanceBuilder b(/*m=*/2, /*mc=*/1);
//   b.set_budget(0, 10.0); b.set_budget(1, 4.0);
//   StreamId s = b.add_stream({3.0, 1.0}, "news-hd");
//   UserId u = b.add_user({5.0}, "gateway-17");
//   b.add_interest(u, s, /*utility=*/2.5, /*loads=*/{2.5});
//   Instance inst = std::move(b).build();
//
// build() validates the paper's standing assumptions:
//   * every cost is finite, nonnegative and c_i(S) <= B_i (throws);
//   * utilities are finite and nonnegative; zero-utility edges are dropped;
//   * edges with k_j^u(S) > K_j^u are zeroed (dropped) per the paper, and
//     counted in num_edges_zeroed_by_capacity();
//   * no (user, stream) pair appears twice among the kept edges (throws).
//
// Cost: costs, capacities and loads live in flat arrays, so an add
// allocates nothing beyond amortized growth (none after reserve()) and a
// name longer than the small-string buffer. build() is
// O(nnz + |S| + |U|): the CSR comes from two stable counting sorts (by
// user, then by stream) and its user mirror from one more, no comparison
// sort. The edges come out in (stream, user) order, so the result does
// not depend on the order the edges were added in.
class InstanceBuilder {
 public:
  InstanceBuilder(int num_server_measures, int num_user_measures);

  // Capacity hint; optional.
  void reserve(std::size_t streams, std::size_t users, std::size_t edges);

  void set_budget(int i, double value);
  StreamId add_stream(std::span<const double> costs, std::string name = {});
  StreamId add_stream(std::initializer_list<double> costs,
                      std::string name = {}) {
    return add_stream(std::span<const double>(costs.begin(), costs.size()),
                      std::move(name));
  }
  UserId add_user(std::span<const double> capacities, std::string name = {});
  UserId add_user(std::initializer_list<double> capacities,
                  std::string name = {}) {
    return add_user(
        std::span<const double>(capacities.begin(), capacities.size()),
        std::move(name));
  }
  // loads must have exactly mc entries; for mc == 0 pass {}.
  void add_interest(UserId u, StreamId s, double utility,
                    std::span<const double> loads);
  void add_interest(UserId u, StreamId s, double utility,
                    std::initializer_list<double> loads) {
    add_interest(u, s, utility,
                 std::span<const double>(loads.begin(), loads.size()));
  }
  // Convenience for the Section-2 cap form (mc == 1, load == utility).
  void add_interest_unit_skew(UserId u, StreamId s, double utility);

  [[nodiscard]] std::size_t num_streams() const noexcept {
    return stream_names_.size();
  }
  [[nodiscard]] std::size_t num_users() const noexcept {
    return user_names_.size();
  }

  [[nodiscard]] Instance build() &&;

 private:
  // Edge k's loads are loads_[k * mc, (k + 1) * mc).
  struct RawEdge {
    UserId u;
    StreamId s;
    double utility;
  };

  int m_;
  int mc_;
  std::vector<double> budgets_;
  std::vector<double> costs_;       // |S| x m, stream-major
  std::vector<double> capacities_;  // |U| x mc, user-major
  std::vector<RawEdge> edges_;
  std::vector<double> loads_;       // edges x mc
  std::vector<std::string> stream_names_;
  std::vector<std::string> user_names_;
};

}  // namespace vdist::model
