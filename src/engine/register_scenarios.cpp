// Scenario registrations for the src/gen generator families. Each
// registration maps declared string params onto the generator's native
// config struct; nothing here contains generation logic except the two
// workload *transforms* that used to live in bench harnesses (the
// reduced-budget cap rebuild of E2 and the broken-premise budget shrink
// of E7) — they are workload definitions, so they belong to the scenario
// layer where plans and the CLI can reach them.
#include <algorithm>
#include <climits>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "gen/iptv.h"
#include "gen/random_instances.h"
#include "gen/small_streams.h"
#include "gen/tightness.h"
#include "gen/trace.h"
#include "model/instance.h"
#include "model/overlay.h"
#include "workload/workload.h"

namespace vdist::engine {

namespace {

// Count-typed params, range-checked so a negative or huge value is an
// error rather than a wrapped count.
std::size_t get_size(const SolveOptions& p, const std::string& key) {
  return static_cast<std::size_t>(p.get_int(key, 0, 0));
}

int get_int_param(const SolveOptions& p, const std::string& key,
                  int fallback) {
  return static_cast<int>(p.get_int(key, fallback, 0, INT_MAX));
}

// Rebuilds an instance with new server budgets, keeping everything else
// identical. Budgets are clamped to the largest cost in their measure so
// the rebuilt instance stays well-formed (InstanceBuilder rejects
// c_i(S) > B_i).
model::Instance with_scaled_budgets(const model::Instance& inst,
                                    const std::vector<double>& budgets) {
  model::InstanceBuilder b(inst.num_server_measures(),
                           inst.num_user_measures());
  for (int i = 0; i < inst.num_server_measures(); ++i) {
    double max_cost = 0.0;
    for (std::size_t s = 0; s < inst.num_streams(); ++s)
      max_cost = std::max(
          max_cost, inst.cost(static_cast<model::StreamId>(s), i));
    b.set_budget(i, std::max(budgets[static_cast<std::size_t>(i)], max_cost));
  }
  for (std::size_t s = 0; s < inst.num_streams(); ++s) {
    const auto sid = static_cast<model::StreamId>(s);
    std::vector<double> costs;
    for (int i = 0; i < inst.num_server_measures(); ++i)
      costs.push_back(inst.cost(sid, i));
    b.add_stream(std::move(costs), inst.stream_name(sid));
  }
  for (std::size_t u = 0; u < inst.num_users(); ++u) {
    const auto uid = static_cast<model::UserId>(u);
    std::vector<double> caps;
    for (int j = 0; j < inst.num_user_measures(); ++j)
      caps.push_back(inst.capacity(uid, j));
    b.add_user(std::move(caps), inst.user_name(uid));
  }
  for (std::size_t s = 0; s < inst.num_streams(); ++s) {
    const auto sid = static_cast<model::StreamId>(s);
    for (model::EdgeId e = inst.first_edge(sid); e < inst.last_edge(sid);
         ++e) {
      std::vector<double> loads;
      for (int j = 0; j < inst.num_user_measures(); ++j)
        loads.push_back(inst.edge_load(e, j));
      b.add_interest(inst.edge_user(e), sid, inst.edge_utility(e),
                     std::move(loads));
    }
  }
  return std::move(b).build();
}

// --- cap ---------------------------------------------------------------

gen::RandomCapConfig cap_config(const ScenarioSpec& spec) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = get_size(spec.params, "streams");
  cfg.num_users = get_size(spec.params, "users");
  cfg.interest_per_stream = spec.params.get_double("interest", 0);
  cfg.utility_min = spec.params.get_double("utility-min", 0);
  cfg.utility_max = spec.params.get_double("utility-max", 0);
  cfg.cost_min = spec.params.get_double("cost-min", 0);
  cfg.cost_max = spec.params.get_double("cost-max", 0);
  cfg.budget_fraction = spec.params.get_double("budget-fraction", 0);
  cfg.cap_fraction = spec.params.get_double("cap-fraction", 0);
  cfg.seed = spec.seed;
  return cfg;
}

model::Instance build_cap(const ScenarioSpec& spec) {
  model::Instance inst = gen::random_cap_instance(cap_config(spec));
  if (spec.params.get_bool("budget-minus-cmax", false)) {
    // The Theorem 2.5 comparison workload: the same instance with the
    // budget reduced by the largest stream cost (clamped to stay valid).
    double cmax = 0.0;
    for (std::size_t s = 0; s < inst.num_streams(); ++s)
      cmax = std::max(cmax, inst.cost(static_cast<model::StreamId>(s), 0));
    inst = with_scaled_budgets(inst, {inst.budget(0) - cmax});
  }
  return inst;
}

// --- smd ---------------------------------------------------------------

model::Instance build_smd(const ScenarioSpec& spec) {
  gen::RandomSmdConfig cfg;
  cfg.num_streams = get_size(spec.params, "streams");
  cfg.num_users = get_size(spec.params, "users");
  cfg.interest_per_stream = spec.params.get_double("interest", 0);
  cfg.utility_min = spec.params.get_double("utility-min", 0);
  cfg.utility_max = spec.params.get_double("utility-max", 0);
  cfg.cost_min = spec.params.get_double("cost-min", 0);
  cfg.cost_max = spec.params.get_double("cost-max", 0);
  cfg.budget_fraction = spec.params.get_double("budget-fraction", 0);
  cfg.target_skew = spec.params.get_double("skew", 0);
  cfg.capacity_fraction = spec.params.get_double("capacity-fraction", 0);
  cfg.seed = spec.seed;
  return gen::random_smd_instance(cfg);
}

// --- mmd ---------------------------------------------------------------

model::Instance build_mmd(const ScenarioSpec& spec) {
  gen::RandomMmdConfig cfg;
  cfg.num_streams = get_size(spec.params, "streams");
  cfg.num_users = get_size(spec.params, "users");
  cfg.num_server_measures = get_int_param(spec.params, "m", 0);
  cfg.num_user_measures = get_int_param(spec.params, "mc", 0);
  cfg.interest_per_stream = spec.params.get_double("interest", 0);
  cfg.utility_min = spec.params.get_double("utility-min", 0);
  cfg.utility_max = spec.params.get_double("utility-max", 0);
  cfg.cost_min = spec.params.get_double("cost-min", 0);
  cfg.cost_max = spec.params.get_double("cost-max", 0);
  cfg.budget_fraction = spec.params.get_double("budget-fraction", 0);
  cfg.load_min = spec.params.get_double("load-min", 0);
  cfg.load_max = spec.params.get_double("load-max", 0);
  cfg.capacity_fraction = spec.params.get_double("capacity-fraction", 0);
  cfg.seed = spec.seed;
  return gen::random_mmd_instance(cfg);
}

// --- iptv --------------------------------------------------------------

model::Instance build_iptv(const ScenarioSpec& spec) {
  gen::IptvConfig cfg;
  cfg.num_channels = get_size(spec.params, "streams");
  cfg.num_users = get_size(spec.params, "users");
  cfg.zipf_exponent = spec.params.get_double("zipf", 0);
  cfg.interests_per_user = get_size(spec.params, "interests-per-user");
  cfg.sd_fraction = spec.params.get_double("sd-fraction", 0);
  cfg.hd_fraction = spec.params.get_double("hd-fraction", 0);
  cfg.bandwidth_fraction = spec.params.get_double("bandwidth-fraction", 0);
  cfg.processing_fraction = spec.params.get_double("processing-fraction", 0);
  cfg.ports_fraction = spec.params.get_double("ports-fraction", 0);
  cfg.gold_fraction = spec.params.get_double("gold-fraction", 0);
  cfg.silver_fraction = spec.params.get_double("silver-fraction", 0);
  cfg.decorrelate_price = spec.params.get_bool("decorrelate", false);
  cfg.variants_per_channel = get_int_param(spec.params, "variants", 1);
  cfg.seed = spec.seed;
  return gen::make_iptv_workload(cfg).instance;
}

// --- small -------------------------------------------------------------

model::Instance build_small(const ScenarioSpec& spec) {
  gen::SmallStreamsConfig cfg;
  cfg.num_streams = get_size(spec.params, "streams");
  cfg.num_users = get_size(spec.params, "users");
  cfg.num_server_measures = get_int_param(spec.params, "m", 0);
  cfg.num_user_measures = get_int_param(spec.params, "mc", 0);
  cfg.interest_per_stream = spec.params.get_double("interest", 0);
  cfg.utility_min = spec.params.get_double("utility-min", 0);
  cfg.utility_max = spec.params.get_double("utility-max", 0);
  cfg.cost_min = spec.params.get_double("cost-min", 0);
  cfg.cost_max = spec.params.get_double("cost-max", 0);
  cfg.load_min = spec.params.get_double("load-min", 0);
  cfg.load_max = spec.params.get_double("load-max", 0);
  const double tightness = spec.params.get_double("tightness", 1.0);
  cfg.tightness = std::max(tightness, 1.0);
  cfg.seed = spec.seed;
  model::Instance inst = gen::small_streams_instance(cfg).instance;
  if (tightness < 1.0) {
    // Break the Lemma 5.1 premise on purpose: shrink every budget below
    // the required log2(mu) headroom (the E7 "broken" regime).
    std::vector<double> budgets;
    for (int i = 0; i < inst.num_server_measures(); ++i)
      budgets.push_back(inst.budget(i) * tightness);
    inst = with_scaled_budgets(inst, budgets);
  }
  return inst;
}

// --- tightness ---------------------------------------------------------

model::Instance build_tightness(const ScenarioSpec& spec) {
  gen::TightnessConfig cfg;
  cfg.m = get_int_param(spec.params, "m", 0);
  cfg.mc = get_int_param(spec.params, "mc", 0);
  cfg.eps = spec.params.get_double("eps", -1.0);
  cfg.eps_prime = spec.params.get_double("eps-prime", -1.0);
  return gen::tightness_instance(cfg);
}

// --- trace -------------------------------------------------------------

// Session-expanded snapshot of the dynamic setting (Section 5 footnote 1):
// draw a Poisson trace of timed sessions over a random cap-form catalog,
// then materialize each session as its own stream whose utility and load
// are the catalog edge values scaled by duration / mean-duration (the
// utility-time objective, normalized so the expected scale is 1). Budgets
// and caps are re-derived as fractions of the expanded totals, mirroring
// the cap generator's tightness semantics. Popular streams appear as many
// concurrent sessions, so the offline solvers face the duplication the
// simulator sees over time.
model::Instance build_trace(const ScenarioSpec& spec) {
  gen::RandomCapConfig ccfg;
  ccfg.num_streams = get_size(spec.params, "streams");
  ccfg.num_users = get_size(spec.params, "users");
  ccfg.interest_per_stream = spec.params.get_double("interest", 0);
  ccfg.budget_fraction = spec.params.get_double("budget-fraction", 0);
  ccfg.cap_fraction = spec.params.get_double("cap-fraction", 0);
  ccfg.seed = spec.seed;
  const model::Instance catalog = gen::random_cap_instance(ccfg);

  gen::TraceConfig tcfg;
  tcfg.arrival_rate = spec.params.get_double("arrival-rate", 0);
  tcfg.mean_duration = spec.params.get_double("mean-duration", 0);
  tcfg.horizon = spec.params.get_double("horizon", 0);
  tcfg.popularity_bias = spec.params.get_double("bias", 0);
  tcfg.seed = spec.seed;
  const std::vector<gen::Session> sessions = gen::make_trace(catalog, tcfg);
  if (sessions.empty())
    throw std::invalid_argument(
        "trace scenario drew no sessions (horizon * arrival-rate too small)");

  model::InstanceBuilder b(1, 1);
  double total_cost = 0.0;
  double max_cost = 0.0;
  std::vector<double> user_utility(catalog.num_users(), 0.0);
  struct Expanded {
    model::StreamId catalog_stream;
    double scale;
  };
  std::vector<Expanded> expanded;
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    const gen::Session& sess = sessions[k];
    const double scale = sess.duration / tcfg.mean_duration;
    const double cost = catalog.cost(sess.stream, 0) * scale;
    b.add_stream({cost}, "sess" + std::to_string(k) + "-s" +
                             std::to_string(sess.stream));
    total_cost += cost;
    max_cost = std::max(max_cost, cost);
    const auto users = catalog.users_of(sess.stream);
    const auto utils = catalog.utilities_of(sess.stream);
    for (std::size_t t = 0; t < users.size(); ++t)
      user_utility[users[t]] += utils[t] * scale;
    expanded.push_back({sess.stream, scale});
  }
  for (std::size_t u = 0; u < catalog.num_users(); ++u)
    b.add_user({std::max(ccfg.cap_fraction * user_utility[u], 1e-9)});
  // Clamped to the most expensive single session: a short trace with one
  // long session must still be a well-formed instance (the builder
  // rejects c(S) > B).
  b.set_budget(0, std::max(ccfg.budget_fraction * total_cost, max_cost));
  for (std::size_t k = 0; k < expanded.size(); ++k) {
    const auto sid = static_cast<model::StreamId>(k);
    const auto users = catalog.users_of(expanded[k].catalog_stream);
    const auto utils = catalog.utilities_of(expanded[k].catalog_stream);
    for (std::size_t t = 0; t < users.size(); ++t)
      b.add_interest_unit_skew(users[t], sid, utils[t] * expanded[k].scale);
  }
  return std::move(b).build();
}

// --- event-churned snapshots -------------------------------------------

// One scenario per workload-registry family: build the base scenario,
// replay the family's deterministic event trace over an InstanceOverlay,
// and materialize the end state, so offline solvers and sweeps face the
// world a serving session would have been serving after `events`
// changes. `base` names the base family, `set` forwards arbitrary params
// to it, and the common knobs are declared directly so sweep axes can
// drive them. The family's declared params are flattened into the
// scenario surface; the scenario seed drives the trace.
model::Instance build_churned(const ScenarioSpec& spec,
                              const std::string& family) {
  ScenarioSpec base;
  base.name = spec.params.get("base", "cap");
  if (base.name == family)
    throw std::invalid_argument(family + " scenario cannot nest itself");
  base.seed = spec.seed;
  // `set` is strictly resolved by the base scenario, so typos still fail
  // loudly; "-" = none.
  const std::string set = spec.params.get("set", "-");
  std::map<std::string, std::string> forwarded;
  if (set != "-")
    workload::apply_workload_overrides(forwarded, set, family + " param set");
  for (const auto& [key, value] : forwarded) base.params.set(key, value);
  // "-" = leave the base default.
  for (const char* key : {"streams", "users", "budget-fraction"}) {
    const std::string value = spec.params.get(key, "-");
    if (value != "-") base.params.set(key, value);
  }
  const model::Instance inst = build_scenario(base);
  // The form every event trace churns.
  if (!inst.is_smd() || !inst.is_unit_skew())
    throw std::invalid_argument(
        family + " base scenario '" + base.name +
        "' must build a unit-skew cap-form instance (try cap or trace)");

  const workload::WorkloadRegistry& registry =
      workload::WorkloadRegistry::global();
  std::map<std::string, std::string> overrides;
  for (const workload::WorkloadParam& p : registry.model(family).info().params)
    if (std::string(p.key) != "seed")
      overrides[p.key] = spec.params.get(p.key, p.fallback);
  overrides["seed"] = std::to_string(spec.seed);
  model::InstanceOverlay overlay(inst);
  for (const model::InstanceEvent& event :
       registry.generate(family, inst, overrides))
    overlay.apply(event);
  return overlay.materialize();
}

void register_workload_scenarios(ScenarioRegistry& r) {
  const workload::WorkloadRegistry& registry =
      workload::WorkloadRegistry::global();
  for (const std::string& family : registry.names()) {
    const workload::WorkloadInfo& winfo = registry.model(family).info();
    ScenarioInfo info;
    info.name = family;
    info.description =
        "event-churned snapshot of a unit-skew base scenario under the " +
        family + " workload: " + winfo.description;
    info.params = {
        {"base", "cap",
         "base scenario family (must build a unit-skew cap form)"},
        {"set", "-",
         "comma-separated key=value params forwarded to the base scenario "
         "(\"-\" = none)"},
        {"streams", "-",
         "forwarded to the base scenario (\"-\" = base default)"},
        {"users", "-",
         "forwarded to the base scenario (\"-\" = base default)"},
        {"budget-fraction", "-",
         "forwarded to the base scenario (\"-\" = base default)"},
    };
    for (const workload::WorkloadParam& p : winfo.params)
      if (std::string(p.key) != "seed")  // the scenario seed drives it
        info.params.push_back({p.key, p.fallback, p.description});
    r.add(std::move(info), [family](const ScenarioSpec& spec) {
      return build_churned(spec, family);
    });
  }
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& r) {
  r.add({.name = "cap",
         .description =
             "random Section-2 cap-form instance (unit skew: load == "
             "utility, per-user utility caps)",
         .params =
             {{"streams", "20", "number of streams |S|"},
              {"users", "10", "number of users |U|"},
              {"interest", "4", "expected interested users per stream"},
              {"utility-min", "1", "per-edge utility lower bound"},
              {"utility-max", "10", "per-edge utility upper bound"},
              {"cost-min", "1", "per-stream cost lower bound"},
              {"cost-max", "10", "per-stream cost upper bound"},
              {"budget-fraction", "0.3",
               "B as a fraction of the total stream cost"},
              {"cap-fraction", "0.6",
               "W_u as a fraction of the user's total interest utility"},
              {"budget-minus-cmax", "0",
               "1 = reduce B by the largest stream cost (the Theorem 2.5 "
               "comparison workload)"}}},
        build_cap);
  r.add({.name = "smd",
         .description =
             "random SMD instance with controlled local skew (Section 3 "
             "setting)",
         .params =
             {{"streams", "20", "number of streams |S|"},
              {"users", "10", "number of users |U|"},
              {"interest", "4", "expected interested users per stream"},
              {"utility-min", "1", "per-edge utility lower bound"},
              {"utility-max", "10", "per-edge utility upper bound"},
              {"cost-min", "1", "per-stream cost lower bound"},
              {"cost-max", "10", "per-stream cost upper bound"},
              {"budget-fraction", "0.3",
               "B as a fraction of the total stream cost"},
              {"skew", "1",
               "target local skew alpha; edge utility/load ratios are drawn "
               "log-uniformly from [1, skew]"},
              {"capacity-fraction", "0.6",
               "K_u as a fraction of the user's total interest load"}}},
        build_smd);
  r.add({.name = "mmd",
         .description =
             "random general MMD instance (m server budgets x mc user "
             "capacity measures)",
         .params =
             {{"streams", "20", "number of streams |S|"},
              {"users", "10", "number of users |U|"},
              {"m", "2", "number of server cost measures"},
              {"mc", "2", "number of user capacity measures"},
              {"interest", "4", "expected interested users per stream"},
              {"utility-min", "1", "per-edge utility lower bound"},
              {"utility-max", "10", "per-edge utility upper bound"},
              {"cost-min", "1", "per-stream cost lower bound"},
              {"cost-max", "10", "per-stream cost upper bound"},
              {"budget-fraction", "0.3",
               "per-measure B_i as a fraction of the total cost"},
              {"load-min", "0.5", "per-edge load lower bound"},
              {"load-max", "5", "per-edge load upper bound"},
              {"capacity-fraction", "0.6",
               "per-measure K_j^u as a fraction of the user's total load"}}},
        build_mmd);
  r.add({.name = "iptv",
         .description =
             "synthetic IPTV head-end workload (Fig. 1 scenario: SD/HD/UHD "
             "classes, Zipf popularity, m = 3, mc = 2)",
         .params =
             {{"streams", "200", "number of channels (variants count too)"},
              {"users", "300", "number of households / gateways"},
              {"zipf", "0.9", "channel popularity Zipf exponent"},
              {"interests-per-user", "25",
               "channels a user would pay for"},
              {"sd-fraction", "0.5", "fraction of SD channels"},
              {"hd-fraction", "0.4",
               "fraction of HD channels (remainder is UHD)"},
              {"bandwidth-fraction", "0.35",
               "egress budget as a fraction of the full catalog demand"},
              {"processing-fraction", "0.5",
               "transcode budget as a fraction of the full catalog demand"},
              {"ports-fraction", "0.6",
               "input-port budget as a fraction of the full catalog demand"},
              {"gold-fraction", "0.2", "fraction of gold-tier users"},
              {"silver-fraction", "0.3",
               "fraction of silver-tier users (remainder is bronze)"},
              {"decorrelate", "0",
               "1 = draw channel prices independently of bitrate class "
               "(the adversarial regime of the paper's introduction)"},
              {"variants", "1",
               "encodings per logical channel (feeds the group-selection "
               "variant constraint)"}}},
        build_iptv);
  r.add({.name = "small",
         .description =
             "small-streams regime of Theorem 1.2 / Lemma 5.1 (every cost "
             "<= bound / log2 mu); tightness < 1 breaks the premise",
         .params =
             {{"streams", "200", "number of streams |S|"},
              {"users", "20", "number of users |U|"},
              {"m", "2", "number of server cost measures"},
              {"mc", "1", "number of user capacity measures"},
              {"interest", "4", "expected interested users per stream"},
              {"utility-min", "1", "per-edge utility lower bound"},
              {"utility-max", "8", "per-edge utility upper bound"},
              {"cost-min", "1", "per-stream cost lower bound"},
              {"cost-max", "4", "per-stream cost upper bound"},
              {"load-min", "1", "per-edge load lower bound"},
              {"load-max", "4", "per-edge load upper bound"},
              {"tightness", "1",
               ">= 1: budget headroom above the premise minimum; < 1: "
               "shrink budgets below the premise (feasibility is no longer "
               "guaranteed without the guard)"}}},
        build_small);
  r.add({.name = "tightness",
         .description =
             "the explicit Section-4.2 worst case (one user, m + mc - 1 "
             "streams) where the Theorem 4.3 transform can lose m*mc; "
             "deterministic (ignores the seed)",
         .params =
             {{"m", "4", "server measures"},
              {"mc", "4", "user capacity measures"},
              {"eps", "-1", "cost perturbation; <= 0 uses the paper's 1/m^2"},
              {"eps-prime", "-1",
               "load perturbation; <= 0 uses the paper's 1/mc^2"}}},
        build_tightness);
  r.add({.name = "trace",
         .description =
             "session-expanded dynamic workload (Section 5 footnote 1): a "
             "Poisson trace over a random cap-form catalog, each session "
             "materialized as a stream with duration-scaled utility "
             "(unit-skew; popular streams duplicate)",
         .params =
             {{"streams", "30", "catalog size the trace draws from"},
              {"users", "12", "number of users |U|"},
              {"interest", "4", "expected interested users per catalog stream"},
              {"budget-fraction", "0.3",
               "B as a fraction of the total session cost"},
              {"cap-fraction", "0.6",
               "W_u as a fraction of the user's total session utility"},
              {"arrival-rate", "1", "Poisson session arrivals per unit time"},
              {"mean-duration", "20", "exponential mean session length"},
              {"horizon", "120", "trace length in time units"},
              {"bias", "0",
               "popularity bias: offering probability ~ (1 + total "
               "utility)^bias"}}},
        build_trace);
  register_workload_scenarios(r);
}

}  // namespace vdist::engine
