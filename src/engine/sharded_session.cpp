#include "engine/sharded_session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/float_cmp.h"
#include "util/stopwatch.h"

namespace vdist::engine {

using model::EdgeId;
using model::EventType;
using model::InstanceEvent;
using model::InterestSpec;
using model::StreamId;
using model::UserId;

namespace {

// Mixes the entity id before the modulo so dense id ranges (the common
// case: ids are array indices) spread across shards instead of striping.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The coordinator-side mirrors of InstanceOverlay's id checks: same
// messages, thrown before any replica mutates.
void check_user_id(const char* who, UserId u, std::size_t count) {
  if (u < 0 || static_cast<std::size_t>(u) >= count)
    throw std::invalid_argument(std::string(who) + ": unknown user " +
                                std::to_string(u));
}

void check_stream_id(const char* who, StreamId s, std::size_t count) {
  if (s < 0 || static_cast<std::size_t>(s) >= count)
    throw std::invalid_argument(std::string(who) + ": unknown stream " +
                                std::to_string(s));
}

}  // namespace

int ShardedSession::shard_of_user(UserId u, int shards) noexcept {
  // Users and streams salt the hash differently (low bit) so user k and
  // stream k land independently.
  return static_cast<int>(splitmix64(static_cast<std::uint64_t>(u) << 1) %
                          static_cast<std::uint64_t>(shards));
}

int ShardedSession::shard_of_stream(StreamId s, int shards) noexcept {
  return static_cast<int>(
      splitmix64((static_cast<std::uint64_t>(s) << 1) | 1ULL) %
      static_cast<std::uint64_t>(shards));
}

ShardedSession::ShardedSession(const model::Instance& parent, ServeConfig cfg)
    : cfg_(std::move(cfg)) {
  if (cfg_.shards < 2)
    throw std::invalid_argument(
        "ShardedSession: shards must be >= 2 (make_backend hands 1 to "
        "Session)");
  if (cfg_.policy == ServePolicy::kOnline)
    throw std::invalid_argument(
        "option --shards expects 1 under --policy online (the §5 allocator "
        "is a single sequential decision process)");
  if (cfg_.queue < 1)
    throw std::invalid_argument("ShardedSession: queue capacity must be >= 1");
  if (cfg_.workspace != nullptr) {
    ws_ = cfg_.workspace;
  } else {
    owned_ws_ = std::make_unique<core::SolveWorkspace>();
    ws_ = owned_ws_.get();
  }
  shards_.reserve(static_cast<std::size_t>(cfg_.shards));
  for (int i = 0; i < cfg_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>(parent));  // validates cap form
  if (cfg_.open_empty)
    for (auto& sh : shards_)
      for (std::size_t s = 0; s < sh->overlay.num_streams(); ++s)
        sh->overlay.stream_remove(static_cast<StreamId>(s));
  refresh_base();
  full_regather();
  for (auto& sh : shards_)
    sh->worker = std::thread(&ShardedSession::worker_loop, this,
                             std::ref(*sh));
  // The opening solve (counted like Session's).
  if (cfg_.policy == ServePolicy::kRepair) {
    full_resolve_repair();
  } else {
    resolve_solve();
  }
}

ShardedSession::~ShardedSession() {
  for (auto& sh : shards_) {
    {
      const std::lock_guard<std::mutex> lk(sh->m);
      sh->stop = true;
    }
    sh->cv.notify_all();
  }
  for (auto& sh : shards_)
    if (sh->worker.joinable()) sh->worker.join();
}

// --- Worker + queue machinery -----------------------------------------------

void ShardedSession::worker_loop(Shard& shard) {
  for (;;) {
    Command cmd;
    {
      std::unique_lock<std::mutex> lk(shard.m);
      shard.cv.wait(lk, [&] { return shard.stop || !shard.queue.empty(); });
      if (shard.queue.empty()) return;  // stop requested and drained
      cmd = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    shard.cv.notify_all();  // wake a router blocked on the bounded queue
    try {
      switch (cmd.kind) {
        case Command::Kind::kApply:
          // The per-entity ordering guarantee: a shard replays events in
          // global sequence order (its queue is FIFO and the router
          // stamps before posting).
          if (cmd.seq <= shard.last_seq)
            throw std::logic_error("out-of-order replay");
          shard.last_seq = cmd.seq;
          shard.overlay.apply(cmd.event);
          break;
        case Command::Kind::kReduce:
          // Reads only: the gathered arrays and the repair state are
          // frozen while the coordinator blocks in drain().
          shard.winner = repair_.winner_partial(world(), shard.u_begin,
                                                shard.u_end);
          shard.amax = RepairCore::amax_partial(world(), shard.s_begin,
                                                shard.s_end);
          break;
        case Command::Kind::kScore: {
          shard.score_select = core::SelectStats{};
          const RepairCore::Context ctx{&shard.workspace, cfg_.strategy,
                                        cfg_.mode};
          shard.fresh =
              fresh_winner_objective(world(), ctx, shard.score_select);
          break;
        }
      }
    } catch (const std::exception& ex) {
      const std::lock_guard<std::mutex> lk(shard.m);
      if (shard.error.empty()) shard.error = ex.what();
    } catch (...) {
      const std::lock_guard<std::mutex> lk(shard.m);
      if (shard.error.empty()) shard.error = "unknown shard failure";
    }
    mark_done();
  }
}

void ShardedSession::post(Shard& shard, Command cmd) {
  {
    std::unique_lock<std::mutex> lk(shard.m);
    shard.cv.wait(lk, [&] { return shard.queue.size() < cfg_.queue; });
    shard.queue.push_back(std::move(cmd));
  }
  shard.cv.notify_all();
}

void ShardedSession::pending_add(std::size_t n) {
  const std::lock_guard<std::mutex> lk(done_m_);
  pending_ += n;
}

void ShardedSession::mark_done() {
  std::size_t left;
  {
    const std::lock_guard<std::mutex> lk(done_m_);
    left = --pending_;
  }
  if (left == 0) done_cv_.notify_one();
}

void ShardedSession::drain() {
  std::unique_lock<std::mutex> lk(done_m_);
  done_cv_.wait(lk, [&] { return pending_ == 0; });
}

void ShardedSession::rethrow_shard_error() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::lock_guard<std::mutex> lk(shards_[i]->m);
    if (!shards_[i]->error.empty())
      throw std::logic_error("ShardedSession: shard " + std::to_string(i) +
                             " failed: " + shards_[i]->error);
  }
}

// --- Validation (before any replica mutates) --------------------------------

void ShardedSession::validate_event(const InstanceEvent& event) const {
  const std::size_t U = num_users();
  const std::size_t S = num_streams();
  switch (event.type) {
    case EventType::kUserJoin: {
      if (event.user >= 0 && static_cast<std::size_t>(event.user) == U) {
        // append_user
        if (!(util::is_finite_nonneg(event.value) ||
              util::is_unbounded(event.value)))
          throw std::invalid_argument("append_user: cap must be >= 0 or inf");
        for (const InterestSpec& spec : event.interests) {
          check_stream_id("append_user interest", spec.stream, S);
          if (!(spec.utility > 0.0) || !std::isfinite(spec.utility))
            throw std::invalid_argument(
                "append_user: interest utilities must be finite and > 0");
        }
        return;
      }
      check_user_id("user_join", event.user, U);
      return;  // a join's cap only applies when > 0 or inf — always valid
    }
    case EventType::kUserLeave:
      check_user_id("user_leave", event.user, U);
      return;
    case EventType::kStreamAdd: {
      if (event.stream >= 0 && static_cast<std::size_t>(event.stream) == S) {
        // append_stream
        if (!util::is_finite_nonneg(event.value))
          throw std::invalid_argument(
              "append_stream: cost must be finite, >= 0");
        for (const InterestSpec& spec : event.interests) {
          check_user_id("append_stream interest", spec.user, U);
          if (!(spec.utility > 0.0) || !std::isfinite(spec.utility))
            throw std::invalid_argument(
                "append_stream: interest utilities must be finite and > 0");
        }
        return;
      }
      check_stream_id("stream_add", event.stream, S);
      return;
    }
    case EventType::kStreamRemove:
      check_stream_id("stream_remove", event.stream, S);
      return;
    case EventType::kCapacityChange:
      check_user_id("set_capacity", event.user, U);
      if (!(util::is_finite_nonneg(event.value) ||
            util::is_unbounded(event.value)))
        throw std::invalid_argument("set_capacity: cap must be >= 0 or inf");
      return;
    case EventType::kUtilityChange: {
      check_user_id("set_utility", event.user, U);
      check_stream_id("set_utility", event.stream, S);
      if (!util::is_finite_nonneg(event.value))
        throw std::invalid_argument("set_utility: utility must be finite, >= 0");
      if (!base_->find_edge(event.user, event.stream))
        throw std::invalid_argument(
            "set_utility: pair (user " + std::to_string(event.user) +
            ", stream " + std::to_string(event.stream) +
            ") is not in the interest graph");
      return;
    }
  }
  throw std::invalid_argument("InstanceOverlay::apply: unknown event type");
}

// --- Routing + gather -------------------------------------------------------

void ShardedSession::compute_owners(const InstanceEvent& event) {
  owners_.clear();
  const int N = cfg_.shards;
  switch (event.type) {
    case EventType::kUserJoin:
    case EventType::kUserLeave:
      // The user's edges live in shard(u)'s gathers; the streams' totals
      // (and their edge rows) in each shard(s)'s.
      owners_.push_back(shard_of_user(event.user, N));
      for (const StreamId s : base_->streams_of(event.user))
        owners_.push_back(shard_of_stream(s, N));
      break;
    case EventType::kCapacityChange:
      // Caps never move edges or totals; shard(u) alone is authoritative.
      owners_.push_back(shard_of_user(event.user, N));
      break;
    case EventType::kUtilityChange:
      owners_.push_back(shard_of_user(event.user, N));
      owners_.push_back(shard_of_stream(event.stream, N));
      break;
    case EventType::kStreamRemove:
    case EventType::kStreamAdd:
      owners_.push_back(shard_of_stream(event.stream, N));
      for (const UserId u : base_->users_of(event.stream))
        owners_.push_back(shard_of_user(u, N));
      break;
  }
  std::sort(owners_.begin(), owners_.end());
  owners_.erase(std::unique(owners_.begin(), owners_.end()), owners_.end());
}

void ShardedSession::replicate_and_gather(const InstanceEvent& event) {
  const bool appends =
      (event.type == EventType::kUserJoin && event.user >= 0 &&
       static_cast<std::size_t>(event.user) == num_users()) ||
      (event.type == EventType::kStreamAdd && event.stream >= 0 &&
       static_cast<std::size_t>(event.stream) == num_streams());
  if (appends) {
    // Every replica stages the append and rebuilds its base; rebuilding
    // is a pure function of the (identical) old structure and the append
    // order, so the replicas' new bases agree edge-for-edge.
    owners_.resize(static_cast<std::size_t>(cfg_.shards));
    for (int i = 0; i < cfg_.shards; ++i)
      owners_[static_cast<std::size_t>(i)] = i;
    ++routing_.broadcasts;
  } else {
    compute_owners(event);
  }
  ++seq_;
  routing_.routed_copies += owners_.size();
  if (owners_.size() > 1) ++routing_.cross_shard_events;
  pending_add(owners_.size());
  for (const int i : owners_)
    post(*shards_[static_cast<std::size_t>(i)],
         Command{Command::Kind::kApply, event, seq_});
  drain();
  rethrow_shard_error();
  if (appends) {
    refresh_base();
    full_regather();
  } else {
    gather(event);
  }
}

void ShardedSession::gather(const InstanceEvent& event) {
  const int N = cfg_.shards;
  switch (event.type) {
    case EventType::kUserJoin:
    case EventType::kUserLeave: {
      const UserId u = event.user;
      const model::InstanceOverlay& ou =
          shards_[static_cast<std::size_t>(shard_of_user(u, N))]->overlay;
      capacity_[static_cast<std::size_t>(u)] = ou.capacity(u);
      user_alive_[static_cast<std::size_t>(u)] = ou.user_alive(u) ? 1 : 0;
      for (const EdgeId e : base_->edges_of(u))
        edge_utility_[static_cast<std::size_t>(e)] = ou.edge_utility(e);
      for (const StreamId s : base_->streams_of(u))
        total_utility_[static_cast<std::size_t>(s)] =
            shards_[static_cast<std::size_t>(shard_of_stream(s, N))]
                ->overlay.total_utility(s);
      break;
    }
    case EventType::kCapacityChange: {
      const UserId u = event.user;
      capacity_[static_cast<std::size_t>(u)] =
          shards_[static_cast<std::size_t>(shard_of_user(u, N))]
              ->overlay.capacity(u);
      break;
    }
    case EventType::kUtilityChange: {
      const UserId u = event.user;
      const StreamId s = event.stream;
      const EdgeId e = *base_->find_edge(u, s);
      edge_utility_[static_cast<std::size_t>(e)] =
          shards_[static_cast<std::size_t>(shard_of_user(u, N))]
              ->overlay.edge_utility(e);
      total_utility_[static_cast<std::size_t>(s)] =
          shards_[static_cast<std::size_t>(shard_of_stream(s, N))]
              ->overlay.total_utility(s);
      break;
    }
    case EventType::kStreamRemove:
    case EventType::kStreamAdd: {
      const StreamId s = event.stream;
      const model::InstanceOverlay& os =
          shards_[static_cast<std::size_t>(shard_of_stream(s, N))]->overlay;
      stream_alive_[static_cast<std::size_t>(s)] = os.stream_alive(s) ? 1 : 0;
      total_utility_[static_cast<std::size_t>(s)] = os.total_utility(s);
      for (EdgeId e = base_->first_edge(s); e < base_->last_edge(s); ++e)
        edge_utility_[static_cast<std::size_t>(e)] = os.edge_utility(e);
      break;
    }
  }
}

void ShardedSession::refresh_base() {
  base_ = &shards_.front()->overlay.instance();
  for (const auto& sh : shards_)
    if (sh->overlay.generation() != shards_.front()->overlay.generation() ||
        sh->overlay.instance().num_edges() != base_->num_edges() ||
        sh->overlay.num_users() != base_->num_users() ||
        sh->overlay.num_streams() != base_->num_streams())
      throw std::logic_error(
          "ShardedSession: shard replicas diverged structurally");
}

void ShardedSession::full_regather() {
  const std::size_t U = base_->num_users();
  const std::size_t S = base_->num_streams();
  const int N = cfg_.shards;
  capacity_.resize(U);
  user_alive_.resize(U);
  total_utility_.resize(S);
  stream_alive_.resize(S);
  edge_utility_.resize(base_->num_edges());
  for (std::size_t u = 0; u < U; ++u) {
    const auto uid = static_cast<UserId>(u);
    const model::InstanceOverlay& ou =
        shards_[static_cast<std::size_t>(shard_of_user(uid, N))]->overlay;
    capacity_[u] = ou.capacity(uid);
    user_alive_[u] = ou.user_alive(uid) ? 1 : 0;
  }
  for (std::size_t s = 0; s < S; ++s) {
    const auto sid = static_cast<StreamId>(s);
    const model::InstanceOverlay& os =
        shards_[static_cast<std::size_t>(shard_of_stream(sid, N))]->overlay;
    total_utility_[s] = os.total_utility(sid);
    stream_alive_[s] = os.stream_alive(sid) ? 1 : 0;
    for (EdgeId e = base_->first_edge(sid); e < base_->last_edge(sid); ++e)
      edge_utility_[static_cast<std::size_t>(e)] = os.edge_utility(e);
  }
}

// --- Event application ------------------------------------------------------

RepairStats ShardedSession::apply(const InstanceEvent& event) {
  util::Stopwatch watch;
  assignment_.reset();
  RepairStats stats;
  ++counters_.events;
  try {
    validate_event(event);
    if (cfg_.policy == ServePolicy::kRepair) {
      repair_apply(event, stats);
    } else {
      replicate_and_gather(event);
      resolve_solve();
      stats.action = RepairAction::kFullResolve;
    }
  } catch (...) {
    --counters_.events;  // a rejected event is not part of the session
    throw;
  }
  stats.objective = objective_;
  stats.wall_ms = watch.elapsed_ms();
  return stats;
}

void ShardedSession::repair_apply(const InstanceEvent& event,
                                  RepairStats& stats) {
  // Same lifecycle as Session::repair_apply, with the overlay mutation
  // replaced by route + barrier + owner gather.
  const RepairCore::PreEvent pre = repair_.pre_event(world(), event);
  replicate_and_gather(event);
  repair_.post_event(world(), event, pre, repair_context(), select_, stats);

  stats.action = RepairAction::kLocalRepair;
  ++counters_.local_repairs;
  objective_ = sharded_winner();

  if (cfg_.refresh > 0 &&
      counters_.events % static_cast<std::size_t>(cfg_.refresh) == 0) {
    ++counters_.drift_checks;
    stats.drift_checked = true;
    const double fresh = scored_fresh();
    stats.drift = (fresh - objective_) / std::max(fresh, 1.0);
    if (stats.drift > cfg_.bound) {
      full_resolve_repair();
      stats.action = RepairAction::kFullResolve;
      --counters_.local_repairs;
    }
  }
}

void ShardedSession::full_resolve_repair() {
  repair_.resolve(world(), repair_context(), select_);
  objective_ = sharded_winner();
  ++counters_.full_resolves;
}

double ShardedSession::sharded_winner() {
  // The Theorem 2.8 race, reduced across shards: fixed contiguous chunks
  // tile the user and stream ranges in shard order, so combining in shard
  // order reproduces the serial scans' order (and, for the Amax argmax,
  // the exact first-max tie-break; the float sums are deterministic per
  // shard count).
  const std::size_t U = num_users();
  const std::size_t S = num_streams();
  const std::size_t N = shards_.size();
  pending_add(N);
  for (std::size_t i = 0; i < N; ++i) {
    Shard& sh = *shards_[i];
    sh.u_begin = U * i / N;
    sh.u_end = U * (i + 1) / N;
    sh.s_begin = S * i / N;
    sh.s_end = S * (i + 1) / N;
    post(sh, Command{Command::Kind::kReduce, {}, 0});
  }
  drain();
  rethrow_shard_error();
  RepairCore::WinnerPartial acc;
  RepairCore::AmaxPartial best;
  for (const auto& sh : shards_) {
    acc.capped += sh->winner.capped;
    acc.split.w1 += sh->winner.split.w1;
    acc.split.w2 += sh->winner.split.w2;
    if (sh->amax.total > best.total) best = sh->amax;
  }
  const double w_amax = RepairCore::amax_value(world(), best);
  return RepairCore::race(acc, w_amax, cfg_.mode, &variant_);
}

double ShardedSession::scored_fresh() {
  // Drift-check scoring solves run on a shard's own workspace (rotating
  // by sequence number), leaving the coordinator's untouched.
  Shard& sh = *shards_[static_cast<std::size_t>(seq_ % shards_.size())];
  pending_add(1);
  post(sh, Command{Command::Kind::kScore, {}, 0});
  drain();
  rethrow_shard_error();
  select_.merge(sh.score_select);
  return sh.fresh;
}

double ShardedSession::fresh_objective() { return scored_fresh(); }

void ShardedSession::resolve_solve() {
  core::GreedyOptions gopts;
  gopts.strategy = cfg_.strategy;
  gopts.workspace = ws_;
  gopts.record_trace = false;
  resolved_ = core::solve_unit_skew(world().view(), cfg_.mode, gopts);
  objective_ = resolved_->utility;
  variant_ = resolved_->variant == "greedy"  ? "greedy"
             : resolved_->variant == "A1"    ? "A1"
             : resolved_->variant == "A2"    ? "A2"
                                             : "Amax";
  select_.merge(resolved_->select);
  ++counters_.full_resolves;
}

// --- Results ----------------------------------------------------------------

const model::Assignment& ShardedSession::assignment() {
  if (assignment_.has_value()) return *assignment_;
  if (cfg_.policy == ServePolicy::kResolve) return resolved_->assignment;
  assignment_ = materialize_winner(world().view(), repair_.build_semi(world()),
                                   variant_);
  return *assignment_;
}

model::Instance ShardedSession::snapshot() const {
  return model::snapshot_instance(*base_, edge_utility_, capacity_);
}

ParityReport ShardedSession::check_parity() {
  return check_parity_against(snapshot(), objective_, cfg_.policy, cfg_.mode,
                              cfg_.strategy, ws_, cfg_.bound);
}

}  // namespace vdist::engine
