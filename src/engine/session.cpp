#include "engine/serving.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/float_cmp.h"
#include "util/stopwatch.h"

namespace vdist::engine {

using model::EventType;
using model::InstanceEvent;
using model::StreamId;
using model::UserId;

Session::Session(const model::Instance& parent, ServeConfig cfg)
    : opts_(std::move(cfg)), overlay_(parent) {
  if (opts_.workspace != nullptr) {
    ws_ = opts_.workspace;
  } else {
    owned_ws_ = std::make_unique<core::SolveWorkspace>();
    ws_ = owned_ws_.get();
  }
  open();
}

void Session::open() {
  if (opts_.open_empty)
    for (std::size_t s = 0; s < overlay_.num_streams(); ++s)
      overlay_.stream_remove(static_cast<StreamId>(s));
  switch (opts_.policy) {
    case ServePolicy::kRepair:
      full_resolve_repair();
      break;
    case ServePolicy::kResolve:
      resolve_apply();
      break;
    case ServePolicy::kOnline:
      online_open();
      break;
  }
}

RepairStats Session::apply(const InstanceEvent& event) {
  util::Stopwatch watch;
  assignment_.reset();
  RepairStats stats;
  ++counters_.events;
  try {
    const model::EventScope scope = model::classify_event(
        event, overlay_.num_users(), overlay_.num_streams());
    // An unknown id: the overlay raises its canonical error before any
    // session state (or pre-event snapshot read) touches it.
    if (!scope.ids_known) {
      overlay_.apply(event);
      throw std::logic_error("Session: overlay accepted an out-of-range id");
    }
    switch (opts_.policy) {
      case ServePolicy::kRepair:
        repair_apply(event, stats);
        break;
      case ServePolicy::kResolve:
        overlay_.apply(event);
        resolve_apply();
        stats.action = RepairAction::kFullResolve;
        break;
      case ServePolicy::kOnline:
        online_apply(event, scope, stats);
        break;
    }
  } catch (...) {
    --counters_.events;  // a rejected event is not part of the session
    throw;
  }
  stats.objective = objective_;
  stats.wall_ms = watch.elapsed_ms();
  return stats;
}

namespace {

// The online objective from scratch: per user, the utilities of its
// served pairs in `snap` summed in stream order (pairs the snapshot
// dropped count 0), capped, then summed in user order.
double served_objective(const model::Instance& snap,
                        const model::Assignment& served) {
  std::vector<StreamId> streams;
  double total = 0.0;
  for (std::size_t uu = 0; uu < snap.num_users(); ++uu) {
    const auto u = static_cast<UserId>(uu);
    const auto assigned = served.streams_of(u);
    streams.assign(assigned.begin(), assigned.end());
    std::sort(streams.begin(), streams.end());
    double acc = 0.0;
    for (const StreamId s : streams)
      if (const auto e = snap.find_edge(u, s)) acc += snap.edge_utility(*e);
    if (acc > 0.0) total += std::min(snap.capacity(u, 0), acc);
  }
  return total;
}

}  // namespace

ParityReport Session::check_parity() {
  ParityReport rep;
  rep.current = objective_;
  util::Stopwatch watch;
  const model::Instance snap = snapshot();
  rep.snapshot_ms = watch.elapsed_ms();
  watch.reset();
  if (opts_.policy == ServePolicy::kOnline) {
    // Allocate's guarantee is competitiveness over the arrival sequence,
    // not a per-event bound against the offline optimum: the check holds
    // the maintained objective to its from-scratch recomputation.
    rep.fresh = served_objective(snap, assignment());
    rep.solve_ms = watch.elapsed_ms();
    rep.ok = objective_ == rep.fresh;
    if (!rep.ok)
      rep.detail = "online objective diverged from the snapshot's served sum";
    return rep;
  }
  core::GreedyOptions gopts;
  gopts.strategy = opts_.strategy;
  gopts.workspace = ws_;
  gopts.build_assignment = false;  // the value is the whole report
  if (opts_.policy == ServePolicy::kRepair) {
    const model::InstanceView live = overlay_.view();
    const core::RowSource from{&repair_.current_rows(world()), &live};
    rep.fallback_rows = core::prepare_rows(
        model::InstanceView::cap_form(snap), *ws_, &from);
    gopts.rows = ws_;
    rep.rows_ms = watch.elapsed_ms();
    watch.reset();
  }
  const core::SmdSolveResult solved =
      core::solve_unit_skew(snap, opts_.mode, gopts);
  rep.fresh = solved.utility;
  rep.fallback_rows += solved.select.rows_sorted;
  rep.solve_ms = watch.elapsed_ms();
  rep.drift = (rep.fresh - objective_) / std::max(rep.fresh, 1.0);
  if (opts_.policy == ServePolicy::kResolve) {
    rep.ok = objective_ == rep.fresh;
    if (!rep.ok)
      rep.detail = "resolve objective diverged from the from-scratch solve";
  } else {
    rep.ok = rep.drift <= opts_.bound + 1e-9;
    if (!rep.ok) rep.detail = "repair drift exceeds the quality bound";
  }
  return rep;
}

// --- kResolve ---------------------------------------------------------------

void Session::resolve_apply() {
  const model::InstanceView view = overlay_.view();
  core::GreedyOptions gopts;
  gopts.strategy = opts_.strategy;
  gopts.workspace = ws_;
  resolved_ = core::solve_unit_skew(view, opts_.mode, gopts);
  objective_ = resolved_->utility;
  variant_ = resolved_->variant == "greedy"  ? "greedy"
             : resolved_->variant == "A1"    ? "A1"
             : resolved_->variant == "A2"    ? "A2"
                                             : "Amax";
  select_.merge(resolved_->select);
  ++counters_.full_resolves;
}

// --- kRepair ----------------------------------------------------------------

void Session::full_resolve_repair() {
  repair_.resolve(world(), repair_context(), select_);
  objective_ = repair_.winner_objective(world(), opts_.mode, &variant_);
  ++counters_.full_resolves;
}

double Session::fresh_objective() {
  const core::SolveWorkspace* rows =
      opts_.policy == ServePolicy::kRepair ? &repair_.current_rows(world())
                                           : nullptr;
  return fresh_winner_objective(world(), repair_context(), select_, rows);
}

void Session::repair_apply(const InstanceEvent& event, RepairStats& stats) {
  const RepairCore::PreEvent pre = repair_.pre_event(world(), event);
  overlay_.apply(event);
  repair_.post_event(world(), event, pre, repair_context(), select_, stats);

  stats.action = RepairAction::kLocalRepair;
  ++counters_.local_repairs;
  objective_ = repair_.winner_objective(world(), opts_.mode, &variant_);

  if (opts_.refresh > 0 &&
      counters_.events % static_cast<std::size_t>(opts_.refresh) == 0) {
    ++counters_.drift_checks;
    stats.drift_checked = true;
    const double fresh = fresh_objective();
    stats.drift = (fresh - objective_) / std::max(fresh, 1.0);
    if (stats.drift > opts_.bound) {
      full_resolve_repair();
      stats.action = RepairAction::kFullResolve;
      --counters_.local_repairs;
    }
  }
}

// --- kOnline ----------------------------------------------------------------

void Session::online_open() {
  driver_.emplace(overlay_.instance(), opts_.mu, opts_.guard);
  accepted_.clear();
  accepted_.resize(overlay_.num_streams());
  served_streams_.assign(overlay_.num_users(), {});
  served_utility_.assign(overlay_.num_users(), 0.0);
  RepairStats ignored;
  for (std::size_t s = 0; s < overlay_.num_streams(); ++s)
    if (overlay_.stream_alive(static_cast<StreamId>(s)))
      online_offer(static_cast<StreamId>(s), ignored);
  for (std::size_t u = 0; u < overlay_.num_users(); ++u)
    online_resum_user(static_cast<UserId>(u));
  objective_ = online_capped_total();
  variant_ = "online";
}

void Session::online_offer(StreamId s, RepairStats& stats) {
  AcceptedStream& slot = accepted_[static_cast<std::size_t>(s)];
  driver_->build_offer(overlay_.view(), s, slot.offer);
  const auto decision =
      driver_->allocator().offer(slot.offer.costs, slot.offer.live());
  if (decision.accepted) {
    slot.taken = decision.taken;
    slot.active = true;
    for (const std::size_t idx : slot.taken) {
      auto& row = served_streams_[static_cast<std::size_t>(
          slot.offer.candidates[idx].user)];
      row.insert(std::upper_bound(row.begin(), row.end(), s), s);
    }
    ++counters_.online_accepts;
    ++stats.streams_added;
  } else {
    slot.active = false;
    ++counters_.online_rejects;
  }
}

void Session::online_apply(const InstanceEvent& event,
                           const model::EventScope& scope,
                           RepairStats& stats) {
  stats.action = RepairAction::kOnlineStep;
  switch (event.type) {
    case EventType::kStreamAdd: {
      const bool was_alive =
          !scope.appends_stream && overlay_.stream_alive(event.stream);
      overlay_.apply(event);
      accepted_.resize(overlay_.num_streams());
      if (!was_alive) online_offer(event.stream, stats);
      break;
    }
    case EventType::kStreamRemove: {
      overlay_.apply(event);
      AcceptedStream& slot =
          accepted_[static_cast<std::size_t>(event.stream)];
      if (slot.active) {
        // Footnote 1: a finite-duration stream departs — undo its loads.
        driver_->allocator().release(slot.offer.costs, slot.offer.live(),
                                     slot.taken);
        for (const std::size_t idx : slot.taken) {
          auto& row = served_streams_[static_cast<std::size_t>(
              slot.offer.candidates[idx].user)];
          row.erase(std::lower_bound(row.begin(), row.end(), event.stream));
        }
        slot.active = false;
        stats.streams_released = 1;
      }
      break;
    }
    case EventType::kUserJoin: {
      overlay_.apply(event);
      if (scope.appends_user) {
        // The eq.-(1) per-user scale of the cap form is exactly 1/D for
        // every user with interests (each pair has load == utility, so
        // min w/(D*k) is 1/D): register the appended user on the same
        // scale the construction-time users carry, with the same D
        // compute_scales derived from the driver's instance.
        const double d =
            1.0 +
            static_cast<double>(driver_->instance().num_users());
        driver_->allocator().add_user({overlay_.capacity(event.user)},
                                      {1.0 / d});
        served_streams_.resize(overlay_.num_users());
        served_utility_.resize(overlay_.num_users(), 0.0);
      } else {
        driver_->allocator().set_user_capacity(
            event.user, 0, overlay_.capacity(event.user));
      }
      break;
    }
    case EventType::kUserLeave:
      overlay_.apply(event);
      driver_->allocator().set_user_capacity(event.user, 0, 0.0);
      break;
    case EventType::kCapacityChange:
      overlay_.apply(event);
      driver_->allocator().set_user_capacity(event.user, 0,
                                             overlay_.capacity(event.user));
      break;
    case EventType::kUtilityChange:
      overlay_.apply(event);
      break;
  }
  // Only the event's user, or the users of the event's stream, can have
  // gained, lost or re-valued a served pair.
  if (scope.user_event) {
    online_resum_user(event.user);
  } else {
    for (const UserId u : overlay_.instance().users_of(event.stream))
      online_resum_user(u);
  }
  objective_ = online_capped_total();
}

void Session::online_resum_user(UserId u) {
  const model::Instance& base = overlay_.instance();
  const auto streams = base.streams_of(u);
  const auto edges = base.edges_of(u);
  // Every served stream is in the row (appends keep the topology), and
  // both run ascending: one merge walk.
  const std::vector<StreamId>& served =
      served_streams_[static_cast<std::size_t>(u)];
  double acc = 0.0;
  std::size_t k = 0;
  for (std::size_t i = 0; i < streams.size() && k < served.size(); ++i) {
    if (streams[i] != served[k]) continue;
    ++k;
    const double w = overlay_.edge_utility(edges[i]);
    if (w > 0.0) acc += w;
  }
  served_utility_[static_cast<std::size_t>(u)] = acc;
}

double Session::online_capped_total() const {
  double total = 0.0;
  for (std::size_t u = 0; u < served_utility_.size(); ++u)
    if (served_utility_[u] > 0.0)
      total += std::min(overlay_.capacity(static_cast<UserId>(u)),
                        served_utility_[u]);
  return total;
}

// --- Assignment materialization ---------------------------------------------

const model::Assignment& Session::assignment() {
  if (assignment_.has_value()) return *assignment_;
  switch (opts_.policy) {
    case ServePolicy::kResolve:
      return resolved_->assignment;
    case ServePolicy::kOnline: {
      model::Assignment a(overlay_.instance());
      for (std::size_t ss = 0; ss < accepted_.size(); ++ss) {
        const AcceptedStream& slot = accepted_[ss];
        if (!slot.active) continue;
        for (const std::size_t idx : slot.taken)
          a.assign(slot.offer.candidates[idx].user,
                   static_cast<StreamId>(ss));
      }
      assignment_ = std::move(a);
      return *assignment_;
    }
    case ServePolicy::kRepair:
      break;
  }
  // kRepair: the race winner objective() reflects, assigned from the
  // maintained semi-feasible pairs.
  repair_.log_pairs(world(), *ws_);
  assignment_ = core::build_winner(overlay_.view(), *ws_, variant_);
  return *assignment_;
}

}  // namespace vdist::engine
