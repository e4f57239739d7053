// The serving engine: a long-lived solve over a mutable instance.
//
// The paper states its algorithms as one-shot optimizations; a video
// server's reality is a stream of small world changes. A Session opens on
// a cap-form Instance, keeps a model::InstanceOverlay as the live world,
// consumes typed model::InstanceEvents, and maintains an always-valid
// assignment plus per-event RepairStats. Three repair policies:
//
//   * kRepair (default) — incremental repair. The session keeps the §2
//     greedy alive between events (engine/repair_core.h): its state in
//     GreedyEngine's layout, its rows sorted and kept current per event.
//     An event releases only the touched users/streams: the affected
//     user's pairs are replayed against the unchanged added sequence
//     (O(deg)) with each w̄ delta applied exactly, and a greedy
//     *completion* reconsiders the pool only when the event could have
//     opened room (joins, restores, freed budget/capacity). Its picks run
//     the greedy's own propagation kernel (core/propagate.h). Every
//     `refresh` events the session scores a from-scratch greedy (scoring
//     mode, no assignment build) on the repair's own sorted rows;
//     relative drift beyond `bound` triggers a full resolve that rebuilds
//     the state.
//   * kResolve — per-event from-scratch solve_unit_skew on the overlay
//     view: bit-identical to a one-shot `greedy` solve of the overlay's
//     materialized instance after every event (the differential anchor,
//     and the baseline the ≥10x repair speedup is measured against).
//   * kOnline — the §5 Allocate allocator as a repair policy, through the
//     shared core::OnlineDriver: stream add/remove events become offers
//     and releases (decisions never revoked, per the paper); user events
//     update the allocator's capacity bounds and the ground-truth
//     objective only. The objective is maintained per event: each user
//     keeps its served-utility sum, an event re-sums only the users it
//     can move (the event's user, or the users of the event's stream)
//     over their CSR rows, then the capped sums are re-added in user
//     order — O(moved users' degree + |U|) per event, bit-identical to a
//     from-scratch recomputation, which check_parity() performs.
//
// The objective is the Section-2 value of the maintained solution under
// the *current* overlay: for kRepair/kResolve the Theorem 2.8 feasible
// winner (or the Corollary 2.7 semi-feasible one under kAugmented); for
// kOnline the capped utility of the accepted pairs.
//
// A ServeConfig is the one typed home of every serve option — the solver
// registry's `serve` adapter, `vdist_cli serve`, and sweep plan lines all
// parse through ServeConfig::from_options(), so a typo'd key or a bad
// value is rejected identically everywhere. make_backend() opens the
// Session a config describes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/allocate_online.h"
#include "core/greedy.h"
#include "core/select.h"
#include "engine/repair_core.h"
#include "engine/solver.h"
#include "model/assignment.h"
#include "model/events.h"
#include "model/instance.h"
#include "model/overlay.h"

namespace vdist::engine {

enum class ServePolicy {
  kRepair,   // incremental repair + drift-bounded resolves (default)
  kResolve,  // from-scratch solve per event (differential baseline)
  kOnline,   // §5 Allocate as the repair policy (never revokes)
};

// Parses "repair" / "resolve" / "online"; throws std::invalid_argument.
[[nodiscard]] ServePolicy parse_serve_policy(const std::string& name);
[[nodiscard]] const char* to_string(ServePolicy policy) noexcept;

struct SessionCounters {
  std::size_t events = 0;
  std::size_t local_repairs = 0;
  std::size_t full_resolves = 0;  // includes the opening solve
  std::size_t drift_checks = 0;
  std::size_t online_accepts = 0;
  std::size_t online_rejects = 0;
};

// One declared serve option: the single source the registry's
// option_keys, the CLI's known-flag set, and the help text derive from.
struct ServeOptionSpec {
  const char* key;
  const char* fallback;
  const char* description;
};

// Every serve knob, typed and validated in one place; a Session opens on
// one directly.
struct ServeConfig {
  ServePolicy policy = ServePolicy::kRepair;
  // kRepair: relative drift (fresh - current) / max(fresh, 1) tolerated
  // before a drift check escalates to a full resolve.
  double bound = 0.05;
  // kRepair: events between drift checks; 1 checks after every event
  // (the parity-test setting), 0 never checks.
  int refresh = 64;
  // Which §2.2 winner the session maintains: kFeasible races A1/A2/Amax,
  // kAugmented races the semi-feasible greedy against Amax.
  core::SmdMode mode = core::SmdMode::kFeasible;
  core::SelectStrategy strategy = core::SelectStrategy::kDelta;
  double mu = 0.0;   // kOnline learning rate (0 derives the paper's)
  bool guard = true;  // kOnline feasibility guard
  // Registry-adapter knobs (`serve` derives an event trace per request;
  // the CLI replays an event file instead and ignores these).
  std::size_t events = 200;
  std::string trace;  // comma-separated workload key=value overrides
  // Which workload family derives the trace (the workload registry's
  // names: churn, zipf-drift, flash-crowd, diurnal, hetero-cap).
  std::string family = "churn";

  // Not option keys: adapter-level wiring.
  // Reusable scratch (one per thread, as everywhere); null = the session
  // owns a private workspace. Must outlive the session.
  core::SolveWorkspace* workspace = nullptr;
  // Open with every stream tombstoned — admission-style serving where
  // streams arrive through kStreamAdd events (the sim policy adapter).
  bool open_empty = false;

  // The declared option surface, in help order.
  [[nodiscard]] static std::span<const ServeOptionSpec> declared();
  [[nodiscard]] static std::vector<std::string> option_keys();
  // Parses + validates every declared key (unknown keys are the
  // registry's / CLI's strict-mode concern; bad values throw
  // std::invalid_argument here, with the same message everywhere).
  [[nodiscard]] static ServeConfig from_options(const SolveOptions& opts);
};

// The `mu` option of the online serve policy and the `online` solver:
// 0 (the default) derives the paper's μ from the instance, anything else
// is the exponential base itself and must be a finite number > 1. Throws
// std::invalid_argument naming the option otherwise.
[[nodiscard]] double parse_mu_option(const SolveOptions& opts);

// What check_parity() found: the session's maintained objective vs a
// from-scratch solve of the materialized current world.
struct ParityReport {
  bool ok = true;
  double current = 0.0;  // session objective
  double fresh = 0.0;    // from-scratch solve of snapshot()
  double drift = 0.0;    // (fresh - current) / max(fresh, 1)
  std::string detail;    // set when !ok
  // Wall time (steady clock) of the check's three layers: baking the
  // snapshot, preparing its rows (kRepair: deriving them from the repair
  // core's rows; 0 elsewhere, where the solve's prep sorts them), and
  // the from-scratch solve (kOnline: the recount) on it.
  double snapshot_ms = 0.0;
  double rows_ms = 0.0;
  double solve_ms = 0.0;
  // User rows the check sorted: under kRepair the derived rows that
  // failed verification (0 while the repair core's rows are exact),
  // under kResolve every row (a new instance's prep is cold).
  std::size_t fallback_rows = 0;
};

// Threading contract: one logical caller (apply/assignment/check_parity
// are not concurrently callable).
class Session {
 public:
  // Requires parent.is_smd() && parent.is_unit_skew() (throws
  // std::invalid_argument otherwise). The parent must outlive the
  // session; the opening solve runs here.
  explicit Session(const model::Instance& parent, ServeConfig cfg = {});
  Session(model::Instance&&, ServeConfig = {}) = delete;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Applies one event and repairs per the policy. Invalid ids throw
  // std::invalid_argument (the overlay's validation) with the session
  // state unchanged.
  RepairStats apply(const model::InstanceEvent& event);

  // The session objective under the current overlay (see the header
  // comment); maintained by apply().
  [[nodiscard]] double objective() const noexcept { return objective_; }

  // The maintained assignment, materialized lazily against instance().
  // Valid until the next apply().
  [[nodiscard]] const model::Assignment& assignment();

  // The overlay's current base (stable entity ids; rebuilt on appends).
  [[nodiscard]] const model::Instance& instance() const noexcept {
    return overlay_.instance();
  }
  [[nodiscard]] const model::InstanceOverlay& overlay() const noexcept {
    return overlay_;
  }
  [[nodiscard]] ServePolicy policy() const noexcept { return opts_.policy; }
  [[nodiscard]] const SessionCounters& counters() const noexcept {
    return counters_;
  }
  // Selection-kernel work accumulated across every repair/resolve.
  [[nodiscard]] const core::SelectStats& select_stats() const noexcept {
    return select_;
  }
  // Which race candidate objective() reflects ("greedy", "A1", "A2",
  // "Amax", or "online").
  [[nodiscard]] const char* variant() const noexcept { return variant_; }

  // From-scratch §2.2 winner value of the *current* overlay state
  // (scoring mode, no assignment). The parity yardstick for any policy,
  // and what drift checks compare against. Under kRepair it runs on the
  // repair core's rows (flushed first) instead of preparing its own.
  [[nodiscard]] double fresh_objective();

  // Bakes the current world into a standalone Instance (the validation /
  // parity snapshot; bit-compatible with the live view after any
  // accepted event sequence — the overlay applies the builder's cap rule
  // itself, model/overlay.h). A filter of the base CSR, not a rebuild:
  // O(nnz + |S| + |U|) with no sort.
  [[nodiscard]] model::Instance snapshot() const {
    return overlay_.materialize();
  }
  // kRepair/kResolve: solves snapshot() from scratch, value-only
  // (solve_unit_skew with build_assignment = false: the race's winner is
  // never assigned), and compares: kResolve demands bit-equality, kRepair
  // drift within bound (+1e-9 slack). Under kRepair the snapshot's rows
  // are not sorted: each is the positive prefix of the repair core's
  // live row (RepairCore::current_rows), accepted only after
  // core::prepare_rows verifies it against the snapshot's own CSR and
  // utilities, so the check stays from scratch; a row that fails is
  // sorted and counted in fallback_rows. kOnline: Allocate's competitiveness
  // is not a per-event bound, so `fresh` is the objective recomputed from
  // snapshot() and assignment() — per user, the served pairs' utilities
  // summed in stream order (pairs the snapshot dropped count 0), capped,
  // summed in user order — and must equal the maintained one bit for bit.
  [[nodiscard]] ParityReport check_parity();

 private:
  struct AcceptedStream {  // kOnline bookkeeping, per stream
    core::OnlineDriver::Offer offer;
    std::vector<std::size_t> taken;
    bool active = false;
  };

  void open();
  // The overlay's current state as the repair core's world binding.
  // Rebind after every mutation — appends move the arrays.
  [[nodiscard]] WorldRef world() const noexcept {
    return WorldRef{&overlay_.instance(), overlay_.edge_utilities(),
                    overlay_.total_utilities(), overlay_.capacities(),
                    overlay_.stream_alive_flags()};
  }
  [[nodiscard]] RepairCore::Context repair_context() const noexcept {
    return RepairCore::Context{ws_, opts_.strategy, opts_.mode};
  }
  // --- kRepair internals -------------------------------------------------
  void repair_apply(const model::InstanceEvent& event, RepairStats& stats);
  void full_resolve_repair();
  // --- kResolve internals ------------------------------------------------
  void resolve_apply();
  // --- kOnline internals -------------------------------------------------
  void online_open();
  void online_apply(const model::InstanceEvent& event,
                    const model::EventScope& scope, RepairStats& stats);
  void online_offer(model::StreamId s, RepairStats& stats);
  // Re-sums user u's served utility over its CSR row, ascending stream
  // order, counting the pairs with w > 0 of the active streams that took
  // it: the order a stream-major pass over the accepted streams adds in.
  void online_resum_user(model::UserId u);
  // Σ_u min(cap_u, served_u) over the users with served utility, in user
  // order.
  [[nodiscard]] double online_capped_total() const;

  ServeConfig opts_;
  std::unique_ptr<core::SolveWorkspace> owned_ws_;
  core::SolveWorkspace* ws_ = nullptr;
  model::InstanceOverlay overlay_;

  SessionCounters counters_;
  core::SelectStats select_;
  double objective_ = 0.0;

  // kRepair state (engine/repair_core.h), session-owned so fresh scoring
  // solves can share the workspace without clobbering it.
  RepairCore repair_;
  const char* variant_ = "";  // which race candidate objective_ reflects

  // kResolve state.
  std::optional<core::SmdSolveResult> resolved_;

  // kOnline state.
  std::optional<core::OnlineDriver> driver_;
  std::vector<AcceptedStream> accepted_;
  // Per user: the active streams that took it, ascending. Keyed by entity
  // ids, which appends keep (edge ids they renumber).
  std::vector<std::vector<model::StreamId>> served_streams_;
  std::vector<double> served_utility_;  // per user, online_resum_user's sum

  std::optional<model::Assignment> assignment_;  // lazy cache
};

// The serving engine under the name its callers hold it by
// (`std::unique_ptr<ServingBackend>` from make_backend()).
using ServingBackend = Session;

// Opens the Session cfg describes. Requires a unit-skew cap-form parent
// that outlives the session.
[[nodiscard]] std::unique_ptr<Session> make_backend(
    const model::Instance& parent, const ServeConfig& cfg);

}  // namespace vdist::engine
