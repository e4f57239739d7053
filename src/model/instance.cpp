#include "model/instance.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "util/float_cmp.h"

namespace vdist::model {

using util::approx_eq;
using util::approx_le;
using util::is_finite_nonneg;
using util::is_unbounded;

std::uint64_t Instance::next_uid() noexcept {
  // Starts at 1 so 0 never names a built instance.
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

double Instance::utility(UserId u, StreamId s) const noexcept {
  const auto e = find_edge(u, s);
  return e ? edge_utility(*e) : 0.0;
}

std::optional<EdgeId> Instance::find_edge(UserId u, StreamId s) const noexcept {
  const auto users = users_of(s);
  const auto it = std::lower_bound(users.begin(), users.end(), u);
  if (it == users.end() || *it != u) return std::nullopt;
  return first_edge(s) + static_cast<EdgeId>(it - users.begin());
}

InstanceBuilder::InstanceBuilder(int num_server_measures, int num_user_measures)
    : m_(num_server_measures), mc_(num_user_measures) {
  if (m_ < 1) throw std::invalid_argument("InstanceBuilder: m must be >= 1");
  if (mc_ < 0) throw std::invalid_argument("InstanceBuilder: mc must be >= 0");
  budgets_.assign(static_cast<std::size_t>(m_), kUnbounded);
}

void InstanceBuilder::set_budget(int i, double value) {
  if (i < 0 || i >= m_)
    throw std::invalid_argument("set_budget: measure out of range");
  if (!(value > 0.0) && !is_unbounded(value))
    throw std::invalid_argument("set_budget: budget must be positive or inf");
  budgets_[static_cast<std::size_t>(i)] = value;
}

void InstanceBuilder::reserve(std::size_t streams, std::size_t users,
                              std::size_t edges) {
  costs_.reserve(streams * static_cast<std::size_t>(m_));
  stream_names_.reserve(streams);
  capacities_.reserve(users * static_cast<std::size_t>(mc_));
  user_names_.reserve(users);
  edges_.reserve(edges);
  loads_.reserve(edges * static_cast<std::size_t>(mc_));
}

StreamId InstanceBuilder::add_stream(std::span<const double> costs,
                                     std::string name) {
  if (costs.size() != static_cast<std::size_t>(m_))
    throw std::invalid_argument("add_stream: expected " + std::to_string(m_) +
                                " costs, got " + std::to_string(costs.size()));
  for (double c : costs)
    if (!is_finite_nonneg(c))
      throw std::invalid_argument("add_stream: costs must be finite and >= 0");
  costs_.insert(costs_.end(), costs.begin(), costs.end());
  stream_names_.push_back(std::move(name));
  return static_cast<StreamId>(stream_names_.size() - 1);
}

UserId InstanceBuilder::add_user(std::span<const double> capacities,
                                 std::string name) {
  if (capacities.size() != static_cast<std::size_t>(mc_))
    throw std::invalid_argument(
        "add_user: expected " + std::to_string(mc_) + " capacities, got " +
        std::to_string(capacities.size()));
  for (double k : capacities)
    if (!(is_finite_nonneg(k) || is_unbounded(k)))
      throw std::invalid_argument(
          "add_user: capacities must be >= 0 or unbounded");
  capacities_.insert(capacities_.end(), capacities.begin(), capacities.end());
  user_names_.push_back(std::move(name));
  return static_cast<UserId>(user_names_.size() - 1);
}

void InstanceBuilder::add_interest(UserId u, StreamId s, double utility,
                                   std::span<const double> loads) {
  if (u < 0 || static_cast<std::size_t>(u) >= num_users())
    throw std::invalid_argument("add_interest: unknown user");
  if (s < 0 || static_cast<std::size_t>(s) >= num_streams())
    throw std::invalid_argument("add_interest: unknown stream");
  if (!is_finite_nonneg(utility))
    throw std::invalid_argument("add_interest: utility must be finite, >= 0");
  if (loads.size() != static_cast<std::size_t>(mc_))
    throw std::invalid_argument("add_interest: expected " +
                                std::to_string(mc_) + " loads");
  for (double k : loads)
    if (!is_finite_nonneg(k))
      throw std::invalid_argument("add_interest: loads must be finite, >= 0");
  edges_.push_back(RawEdge{u, s, utility});
  loads_.insert(loads_.end(), loads.begin(), loads.end());
}

void InstanceBuilder::add_interest_unit_skew(UserId u, StreamId s,
                                             double utility) {
  if (mc_ != 1)
    throw std::logic_error("add_interest_unit_skew requires mc == 1");
  add_interest(u, s, utility, std::span<const double>(&utility, 1));
}

Instance InstanceBuilder::build() && {
  Instance inst;
  inst.uid_ = Instance::next_uid();
  inst.m_ = m_;
  inst.mc_ = mc_;
  inst.budgets_ = std::move(budgets_);
  const std::size_t S = num_streams();
  const std::size_t U = num_users();
  const auto m = static_cast<std::size_t>(m_);
  const auto mc = static_cast<std::size_t>(mc_);

  // Validate the paper's c_i(S) <= B_i assumption and pack costs
  // measure-major for cache-friendly per-measure scans.
  inst.costs_.resize(m * S);
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t i = 0; i < m; ++i) {
      const double c = costs_[s * m + i];
      if (!approx_le(c, inst.budgets_[i]))
        throw std::invalid_argument(
            "build: stream " + std::to_string(s) + " violates c_i(S) <= B_i "
            "in measure " + std::to_string(i) +
            " (the paper assumes every stream fits alone)");
      inst.costs_[i * S + s] = c;
    }
  }
  inst.capacities_ = std::move(capacities_);

  // Apply the paper's convention: w_u(S) = 0 whenever some k_j^u(S) > K_j^u
  // (the stream alone would violate the user's capacity). Such edges are
  // zeroed in place and, like explicitly zero-utility edges, dropped. The
  // kept edges are counted per user and per stream.
  inst.user_offsets_.assign(U + 1, 0);
  inst.stream_offsets_.assign(S + 1, 0);
  std::size_t zeroed = 0;
  for (std::size_t k = 0; k < edges_.size(); ++k) {
    RawEdge& e = edges_[k];
    if (e.utility <= 0.0) continue;
    const double* loads = loads_.data() + k * mc;
    const double* caps =
        inst.capacities_.data() + static_cast<std::size_t>(e.u) * mc;
    bool over_cap = false;
    for (std::size_t j = 0; j < mc && !over_cap; ++j)
      over_cap = !approx_le(loads[j], caps[j]);
    if (over_cap) {
      e.utility = 0.0;
      ++zeroed;
      continue;
    }
    ++inst.user_offsets_[static_cast<std::size_t>(e.u) + 1];
    ++inst.stream_offsets_[static_cast<std::size_t>(e.s) + 1];
  }
  inst.zeroed_edges_ = zeroed;
  for (std::size_t u = 0; u < U; ++u)
    inst.user_offsets_[u + 1] += inst.user_offsets_[u];
  for (std::size_t s = 0; s < S; ++s)
    inst.stream_offsets_[s + 1] += inst.stream_offsets_[s];
  const auto E = static_cast<std::size_t>(inst.stream_offsets_[S]);

  // The stream-CSR in (stream, user) order: a stable counting sort of the
  // kept edges by user, then a stable counting sort by stream that writes
  // the CSR arrays directly. A duplicate pair's copies end up adjacent.
  std::vector<EdgeId> cursor(std::max(S, U));
  const auto next_slot = [&](auto id) {
    return static_cast<std::size_t>(cursor[static_cast<std::size_t>(id)]++);
  };
  std::vector<EdgeId> by_user(E);
  std::copy(inst.user_offsets_.begin(), inst.user_offsets_.end() - 1,
            cursor.begin());
  for (std::size_t k = 0; k < edges_.size(); ++k)
    if (edges_[k].utility > 0.0)
      by_user[next_slot(edges_[k].u)] = static_cast<EdgeId>(k);

  inst.edge_user_.resize(E);
  inst.edge_utility_.resize(E);
  inst.edge_loads_.resize(E * mc);
  std::copy(inst.stream_offsets_.begin(), inst.stream_offsets_.end() - 1,
            cursor.begin());
  for (const EdgeId id : by_user) {
    const auto k = static_cast<std::size_t>(id);
    const RawEdge& r = edges_[k];
    const std::size_t e = next_slot(r.s);
    inst.edge_user_[e] = r.u;
    inst.edge_utility_[e] = r.utility;
    std::copy_n(loads_.data() + k * mc, mc, inst.edge_loads_.data() + e * mc);
  }

  // Duplicates are an error; totals are summed in CSR edge order.
  inst.stream_total_utility_.assign(S, 0.0);
  for (std::size_t s = 0; s < S; ++s) {
    const auto first = static_cast<std::size_t>(inst.stream_offsets_[s]);
    const auto last = static_cast<std::size_t>(inst.stream_offsets_[s + 1]);
    for (std::size_t e = first; e < last; ++e) {
      if (e > first && inst.edge_user_[e] == inst.edge_user_[e - 1])
        throw std::invalid_argument(
            "build: duplicate (user, stream) interest");
      inst.stream_total_utility_[s] += inst.edge_utility_[e];
      inst.utility_grand_total_ += inst.edge_utility_[e];
    }
  }

  // Mirror CSR by user: a stable counting sort of the stream-CSR edges by
  // user keeps each user's edges sorted by stream.
  inst.user_edge_idx_.resize(E);
  inst.user_edge_stream_.resize(E);
  std::copy(inst.user_offsets_.begin(), inst.user_offsets_.end() - 1,
            cursor.begin());
  for (std::size_t s = 0; s < S; ++s) {
    for (EdgeId e = inst.stream_offsets_[s]; e < inst.stream_offsets_[s + 1];
         ++e) {
      const std::size_t pos =
          next_slot(inst.edge_user_[static_cast<std::size_t>(e)]);
      inst.user_edge_idx_[pos] = e;
      inst.user_edge_stream_[pos] = static_cast<StreamId>(s);
    }
  }

  // Unit-skew detection (Section 2 form).
  inst.unit_skew_ = (m_ == 1 && mc_ == 1);
  if (inst.unit_skew_) {
    for (std::size_t e = 0; e < E && inst.unit_skew_; ++e)
      if (!approx_eq(inst.edge_loads_[e], inst.edge_utility_[e]))
        inst.unit_skew_ = false;
  }

  inst.stream_names_ = std::move(stream_names_);
  inst.user_names_ = std::move(user_names_);
  return inst;
}

}  // namespace vdist::model
