// Admission-control policy interface for the discrete-event simulator —
// the analog of the "Broadband Policy Manager" deployment point the paper
// cites (§1): the plant asks the policy about every arriving stream
// session and informs it of departures; the policy decides who receives
// what, never revoking past decisions.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/allocate_online.h"
#include "engine/serving.h"
#include "model/instance.h"

namespace vdist::sim {

using Candidate = core::ExponentialCostAllocator::Candidate;

struct StreamOffer {
  model::StreamId stream = model::kInvalidStream;  // catalog id
  std::vector<double> costs;                       // per server measure
  std::vector<Candidate> candidates;               // interested users
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  // Indices into offer.candidates of the users who receive the stream;
  // empty = the stream is not carried.
  virtual std::vector<std::size_t> on_arrival(const StreamOffer& offer) = 0;
  // Informs the policy a previously-accepted session ended.
  virtual void on_departure(const StreamOffer& offer,
                            const std::vector<std::size_t>& taken) = 0;
};

// Section 5's Allocate as a live policy (exponential costs, with release
// on departure per footnote 1).
class OnlineAllocatePolicy final : public AdmissionPolicy {
 public:
  OnlineAllocatePolicy(const model::Instance& catalog, double mu,
                       bool guard_feasibility = true);
  [[nodiscard]] std::string name() const override { return "allocate"; }
  std::vector<std::size_t> on_arrival(const StreamOffer& offer) override;
  void on_departure(const StreamOffer& offer,
                    const std::vector<std::size_t>& taken) override;
  [[nodiscard]] std::size_t guard_trips() const {
    return allocator_.guard_trips();
  }

 private:
  core::ExponentialCostAllocator allocator_;
};

// The serving session as an admission policy: the simulator becomes a
// thin client of engine::Session (engine/serving.h). The session
// opens empty over the catalog (every stream tombstoned); an arriving
// stream session becomes a kStreamAdd event, the last departure of a
// stream a kStreamRemove, and the decision for an offer is whatever user
// set the backend's maintained assignment gives that stream right after
// the repair. Concurrent sessions of the same catalog stream share one
// decision (the backend models the stream's presence, not its
// multiplicity), and — as the AdmissionPolicy contract requires — a
// decision handed to the plant is never revised mid-session even if
// later repairs reassign internally. Requires a unit-skew cap-form
// catalog (the session's form).
class SessionPolicy final : public AdmissionPolicy {
 public:
  // `cfg.open_empty` is forced on; every other knob (policy, bound,
  // refresh, select, workspace) passes through engine::make_backend().
  explicit SessionPolicy(const model::Instance& catalog,
                         engine::ServeConfig cfg = {});
  [[nodiscard]] std::string name() const override {
    return std::string("session-") + engine::to_string(backend_->policy());
  }
  std::vector<std::size_t> on_arrival(const StreamOffer& offer) override;
  void on_departure(const StreamOffer& offer,
                    const std::vector<std::size_t>& taken) override;
  [[nodiscard]] const engine::Session& backend() const { return *backend_; }

 private:
  std::unique_ptr<engine::Session> backend_;
  std::vector<int> refcount_;  // concurrent plant sessions per stream
};

// The naive threshold policy of the paper's introduction: admit while all
// loads stay within margin * bound; utility never considered.
class ThresholdPolicy final : public AdmissionPolicy {
 public:
  ThresholdPolicy(const model::Instance& catalog, double server_margin = 1.0,
                  double user_margin = 1.0);
  [[nodiscard]] std::string name() const override { return "threshold"; }
  std::vector<std::size_t> on_arrival(const StreamOffer& offer) override;
  void on_departure(const StreamOffer& offer,
                    const std::vector<std::size_t>& taken) override;

 private:
  double server_margin_;
  double user_margin_;
  std::vector<double> budgets_;
  std::vector<double> server_used_;
  std::vector<std::vector<double>> user_caps_;
  std::vector<std::vector<double>> user_used_;
};

// Coin-flip admission (feasibility-guarded): accepts each feasible session
// with probability p. The weakest sensible baseline.
class RandomPolicy final : public AdmissionPolicy {
 public:
  RandomPolicy(const model::Instance& catalog, double accept_probability,
               std::uint64_t seed);
  [[nodiscard]] std::string name() const override { return "random"; }
  std::vector<std::size_t> on_arrival(const StreamOffer& offer) override;
  void on_departure(const StreamOffer& offer,
                    const std::vector<std::size_t>& taken) override;

 private:
  ThresholdPolicy feasibility_;  // reuse the load tracking with margin 1
  double p_;
  std::uint64_t state_;
};

}  // namespace vdist::sim
