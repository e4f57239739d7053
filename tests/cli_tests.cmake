# CLI-level round-trip tests, run by ctest as a cmake -P script:
#
#   cmake -DVDIST_CLI=<path> -DWORK_DIR=<dir> -P cli_tests.cmake
#
# Covers what the gtest suite cannot: the installed binary's argument
# handling — gen/stats/solve round-trips through the scenario registry
# for every family (notably `trace`, the one generator the CLI used to
# miss), strict rejection of typo'd flags, a flags-built sweep with CSV
# output, and the non-zero exit for unknown subcommands.

if(NOT DEFINED VDIST_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DVDIST_CLI=... -DWORK_DIR=... -P cli_tests.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli expect_code)
  execute_process(
    COMMAND ${VDIST_CLI} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL expect_code)
    message(FATAL_ERROR
      "vdist_cli ${ARGN}: expected exit ${expect_code}, got ${code}\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(cli_out "${out}" PARENT_SCOPE)
  set(cli_err "${err}" PARENT_SCOPE)
endfunction()

# --- every scenario family: gen -> stats -> solve round-trip ----------------
set(kinds cap smd mmd iptv small tightness trace)
set(small_args --streams 12 --users 6)
foreach(kind IN LISTS kinds)
  set(instance "${WORK_DIR}/${kind}.vd")
  if(kind STREQUAL "tightness")
    run_cli(0 gen --kind ${kind} --m 3 --mc 2 --out ${instance})
  elseif(kind STREQUAL "iptv")
    run_cli(0 gen --kind ${kind} ${small_args} --interests-per-user 4 --out ${instance})
  elseif(kind STREQUAL "trace")
    run_cli(0 gen --kind ${kind} ${small_args} --horizon 40 --out ${instance})
  else()
    run_cli(0 gen --kind ${kind} ${small_args} --out ${instance})
  endif()
  run_cli(0 stats ${instance})
  if(NOT cli_out MATCHES "streams:")
    message(FATAL_ERROR "stats ${kind}: unexpected output:\n${cli_out}")
  endif()
  run_cli(0 solve ${instance} --algo pipeline)
endforeach()

# trace instances are unit-skew, so the Section-2 algorithms apply too,
# and regeneration with the same seed is bit-identical (the registry's
# determinism contract observed end-to-end).
run_cli(0 solve "${WORK_DIR}/trace.vd" --algo greedy)
run_cli(0 gen --kind trace ${small_args} --horizon 40 --out "${WORK_DIR}/trace2.vd")
file(READ "${WORK_DIR}/trace.vd" trace_a)
file(READ "${WORK_DIR}/trace2.vd" trace_b)
if(NOT trace_a STREQUAL trace_b)
  message(FATAL_ERROR "trace gen is not deterministic across invocations")
endif()

# --- scenarios/algos listings ------------------------------------------------
run_cli(0 scenarios)
foreach(kind IN LISTS kinds)
  if(NOT cli_out MATCHES "${kind}")
    message(FATAL_ERROR "'vdist_cli scenarios' does not list ${kind}:\n${cli_out}")
  endif()
endforeach()
run_cli(0 algos)
if(NOT cli_out MATCHES "pipeline")
  message(FATAL_ERROR "'vdist_cli algos' does not list pipeline")
endif()

# --- strict typo rejection ---------------------------------------------------
run_cli(1 gen --kind cap --bugdet-fraction 0.3)
if(NOT cli_err MATCHES "bugdet-fraction")
  message(FATAL_ERROR "typo'd gen param not named in error:\n${cli_err}")
endif()
run_cli(1 solve "${WORK_DIR}/cap.vd" --algo enum --depht 2)
if(NOT cli_err MATCHES "declared")
  message(FATAL_ERROR "typo'd solve option not rejected strictly:\n${cli_err}")
endif()
run_cli(0 solve "${WORK_DIR}/cap.vd" --algo enum --depht 2 --strict 0)

# --- sweep from flags with CSV/JSON emitters ---------------------------------
run_cli(0 sweep --scenario cap --set users=5 --axis streams=8,12
        --algos greedy,exact --replicates 2 --seed 7
        --csv "${WORK_DIR}/sweep.csv" --json "${WORK_DIR}/sweep.json")
file(READ "${WORK_DIR}/sweep.csv" sweep_csv)
if(NOT sweep_csv MATCHES "scenario,seed,streams,algorithm")
  message(FATAL_ERROR "sweep CSV missing header:\n${sweep_csv}")
endif()
file(READ "${WORK_DIR}/sweep.json" sweep_json)
if(NOT sweep_json MATCHES "\"num_scenario_cells\":2")
  message(FATAL_ERROR "sweep JSON missing cells:\n${sweep_json}")
endif()

# sweep consumes every flag itself: typos and plan/flag conflicts are
# errors, not silently different experiments.
run_cli(1 sweep --scenario cap --algos greedy --replicate 3)
if(NOT cli_err MATCHES "--replicate")
  message(FATAL_ERROR "typo'd sweep flag not rejected:\n${cli_err}")
endif()
file(WRITE "${WORK_DIR}/tiny.plan" "scenario cap streams=8 users=4\nalgo greedy\n")
run_cli(1 sweep --plan "${WORK_DIR}/tiny.plan" --algos exact)
if(NOT cli_err MATCHES "conflicts with --plan")
  message(FATAL_ERROR "plan/flag conflict not rejected:\n${cli_err}")
endif()
run_cli(0 sweep --plan "${WORK_DIR}/tiny.plan" --replicates 2)

# --- perf: smoke suite, BENCH JSON, speedup gate, flag strictness ------------
# Runs under the default wall-clock speedup gate take the best of three
# repetitions: a single repetition of a sub-millisecond case can be
# preempted on a loaded machine, and one such stall flips the gate.
run_cli(0 perf --smoke 1 --reps 3 --out "${WORK_DIR}/perf.json")
file(READ "${WORK_DIR}/perf.json" perf_json)
if(NOT perf_json MATCHES "\"bench\":\"perf\"")
  message(FATAL_ERROR "perf JSON missing bench id:\n${perf_json}")
endif()
if(NOT perf_json MATCHES "\"objective_match\":true")
  message(FATAL_ERROR "perf JSON reports no matching objectives:\n${perf_json}")
endif()
if(NOT perf_json MATCHES "\"provenance\"")
  message(FATAL_ERROR "perf JSON missing provenance block:\n${perf_json}")
endif()
if(NOT perf_json MATCHES "\"delta\"")
  message(FATAL_ERROR "perf JSON missing delta measurements:\n${perf_json}")
endif()
# The suite measures the delta and naive strategies only.
if(perf_json MATCHES "\"lazy\"")
  message(FATAL_ERROR "perf JSON still carries a lazy measurement:\n${perf_json}")
endif()
# --min-speedup 0 disables the gate; an absurd requirement trips it.
run_cli(0 perf --smoke 1 --reps 1 --out "${WORK_DIR}/perf2.json" --min-speedup 0)
run_cli(3 perf --smoke 1 --reps 1 --out "${WORK_DIR}/perf3.json" --min-speedup 100000)
run_cli(1 perf --smoek 1)
if(NOT cli_err MATCHES "--smoek")
  message(FATAL_ERROR "typo'd perf flag not rejected:\n${cli_err}")
endif()

# --- perf --baseline: regression diff against a committed BENCH JSON --------
# Self-diff with a huge allowance passes; a sub-unity allowance trips the
# gate deterministically (every ratio is positive).
run_cli(0 perf --smoke 1 --reps 3 --out "${WORK_DIR}/perf4.json"
        --baseline "${WORK_DIR}/perf.json" --max-regress 1000)
if(NOT cli_out MATCHES "wall_ratio")
  message(FATAL_ERROR "perf --baseline printed no diff table:\n${cli_out}")
endif()
run_cli(3 perf --smoke 1 --reps 3 --out "${WORK_DIR}/perf5.json"
        --baseline "${WORK_DIR}/perf.json" --max-regress 0.000001)
if(NOT cli_err MATCHES "regression past --max-regress")
  message(FATAL_ERROR "perf baseline gate did not trip:\n${cli_err}")
endif()
# A malformed baseline or threshold is rejected before benchmarking.
run_cli(1 perf --smoke 1 --baseline "${WORK_DIR}/does-not-exist.json")
file(WRITE "${WORK_DIR}/not-json.json" "this is not json")
run_cli(1 perf --smoke 1 --baseline "${WORK_DIR}/not-json.json")
run_cli(1 perf --smoke 1 --max-regress 2x)
if(NOT cli_err MATCHES "max-regress")
  message(FATAL_ERROR "partial --max-regress parse not rejected:\n${cli_err}")
endif()
# NaN passes every comparison-based gate, and a negative or zero gate
# can never mean what it says: both thresholds are refused up front.
run_cli(1 perf --smoke 1 --min-speedup nan)
if(NOT cli_err MATCHES "option --min-speedup expects a number, got 'nan'")
  message(FATAL_ERROR "perf --min-speedup nan not rejected:\n${cli_err}")
endif()
run_cli(1 perf --smoke 1 --min-speedup -1)
if(NOT cli_err MATCHES "option --min-speedup expects a number >= 0, got '-1'")
  message(FATAL_ERROR "perf --min-speedup -1 not rejected:\n${cli_err}")
endif()
run_cli(1 perf --smoke 1 --baseline "${WORK_DIR}/perf.json" --max-regress nan)
if(NOT cli_err MATCHES "option --max-regress expects a number, got 'nan'")
  message(FATAL_ERROR "perf --max-regress nan not rejected:\n${cli_err}")
endif()
foreach(bad -1 0)
  run_cli(1 perf --smoke 1 --baseline "${WORK_DIR}/perf.json" --max-regress ${bad})
  if(NOT cli_err MATCHES "option --max-regress expects a number > 0, got '${bad}'")
    message(FATAL_ERROR "perf --max-regress ${bad} not rejected:\n${cli_err}")
  endif()
endforeach()
# The machine-independent gate: identical evals self-diff under a tight
# threshold passes even when wall clocks are noisy.
run_cli(0 perf --smoke 1 --reps 3 --out "${WORK_DIR}/perf6.json"
        --baseline "${WORK_DIR}/perf.json" --max-regress 1.05
        --regress-metric evals)
run_cli(1 perf --smoke 1 --regress-metric fastest)
if(NOT cli_err MATCHES "regress-metric")
  message(FATAL_ERROR "bad --regress-metric value not rejected:\n${cli_err}")
endif()

# --- enumeration: perf --threads and the committed frontier plan -------------
# --threads routes to the enum cases' parallel DFS and is recorded in the
# per-case "threads" field; replay counters ride the same JSON. The smoke
# enum cases take a few milliseconds, too short for a wall-time speedup
# gate (--min-speedup 0); the run still exits 3 when the strategies'
# objectives differ, and the full-size suite keeps its speedup gate.
run_cli(0 perf --smoke 1 --reps 1 --filter enum --threads 2 --min-speedup 0
        --out "${WORK_DIR}/perf-enum-t2.json")
file(READ "${WORK_DIR}/perf-enum-t2.json" perf_t2_json)
if(NOT perf_t2_json MATCHES "\"threads\":2")
  message(FATAL_ERROR "perf --threads 2 not recorded per case:\n${perf_t2_json}")
endif()
if(NOT perf_t2_json MATCHES "\"frames_reused\":")
  message(FATAL_ERROR "perf JSON missing replay counters:\n${perf_t2_json}")
endif()
run_cli(1 perf --threads 0)
if(NOT cli_err MATCHES "--threads")
  message(FATAL_ERROR "perf --threads 0 not rejected:\n${cli_err}")
endif()
# The committed depth x threads frontier plan parses and runs end to end;
# the threads axis must not move the objective aggregates (deterministic
# reduction), which the sweep's own per-cell min==max check would expose
# as a spread — here we just pin that both axis points ran ok.
get_filename_component(_cli_tests_dir "${CMAKE_SCRIPT_MODE_FILE}" DIRECTORY)
get_filename_component(_repo_root "${_cli_tests_dir}" DIRECTORY)
run_cli(0 sweep --plan "${_repo_root}/bench/plans/enum_frontier.plan"
        --csv "${WORK_DIR}/enum_frontier.csv")
file(READ "${WORK_DIR}/enum_frontier.csv" frontier_csv)
if(NOT frontier_csv MATCHES "threads=2")
  message(FATAL_ERROR "frontier plan lost its threads axis:\n${frontier_csv}")
endif()
if(frontier_csv MATCHES "requires a unit-skew")
  message(FATAL_ERROR "frontier plan has failing cells:\n${frontier_csv}")
endif()

# --- serving sessions: gen-events -> serve round-trip ------------------------
run_cli(0 gen-events "${WORK_DIR}/cap.vd" --events 50 --seed 9
        --out "${WORK_DIR}/cap.events")
file(READ "${WORK_DIR}/cap.events" events_text)
if(NOT events_text MATCHES "vdist-events 1")
  message(FATAL_ERROR "gen-events missing header:\n${events_text}")
endif()
# Event traces are deterministic functions of (instance, seed).
run_cli(0 gen-events "${WORK_DIR}/cap.vd" --events 50 --seed 9
        --out "${WORK_DIR}/cap2.events")
file(READ "${WORK_DIR}/cap2.events" events_text2)
if(NOT events_text STREQUAL events_text2)
  message(FATAL_ERROR "gen-events is not deterministic across invocations")
endif()
run_cli(1 gen-events "${WORK_DIR}/cap.vd" --sede 9)
if(NOT cli_err MATCHES "--sede")
  message(FATAL_ERROR "typo'd gen-events flag not rejected:\n${cli_err}")
endif()
# All three policies replay the trace with per-event parity checks:
# resolve must be bit-identical to a from-scratch solve of the
# materialized overlay, repair must stay within the quality bound.
foreach(policy repair resolve online)
  run_cli(0 serve "${WORK_DIR}/cap.vd" --events "${WORK_DIR}/cap.events"
          --policy ${policy} --check 1 --json "${WORK_DIR}/serve-${policy}.json")
  file(READ "${WORK_DIR}/serve-${policy}.json" serve_json)
  if(NOT serve_json MATCHES "\"serve\":\"${policy}\"")
    message(FATAL_ERROR "serve JSON missing policy id:\n${serve_json}")
  endif()
  if(NOT serve_json MATCHES "\"timeline\"")
    message(FATAL_ERROR "serve JSON missing timeline:\n${serve_json}")
  endif()
  # The checks' wall-time split: one check per event, each layer a
  # median, then the rows the checks sorted rather than derived.
  set(ms "[0-9][0-9.e+-]*")
  if(NOT serve_json MATCHES
     "\"checks\":[{]\"count\":50,\"snapshot_ms_p50\":${ms},\"rows_ms_p50\":${ms},\"solve_ms_p50\":${ms},\"max_ms\":${ms},\"fallback_rows\":[0-9]+[}]")
    message(FATAL_ERROR "serve JSON missing the checks split:\n${serve_json}")
  endif()
  # The per-event apply latency: every event counted, p50 <= p99 <= max.
  if(NOT serve_json MATCHES
     "\"events\":[{]\"count\":50,\"apply_us_p50\":(${ms}),\"apply_us_p99\":(${ms}),\"apply_us_max\":(${ms})[}]")
    message(FATAL_ERROR "serve JSON missing the events latency:\n${serve_json}")
  endif()
  set(p50 "${CMAKE_MATCH_1}")
  set(p99 "${CMAKE_MATCH_2}")
  set(pmax "${CMAKE_MATCH_3}")
  if(p50 GREATER p99 OR p99 GREATER pmax OR NOT pmax GREATER 0)
    message(FATAL_ERROR "serve events latency out of order:\n${serve_json}")
  endif()
  # Under repair every check derives the snapshot's rows from the repair
  # core's: none may fall back to a sort.
  if(policy STREQUAL "repair" AND NOT serve_json MATCHES "\"fallback_rows\":0[}]")
    message(FATAL_ERROR "repair parity checks sorted rows:\n${serve_json}")
  endif()
endforeach()
# serve consumes every flag itself and needs its inputs.
run_cli(1 serve "${WORK_DIR}/cap.vd" --events "${WORK_DIR}/cap.events"
        --polcy repair)
if(NOT cli_err MATCHES "--polcy")
  message(FATAL_ERROR "typo'd serve flag not rejected:\n${cli_err}")
endif()
run_cli(1 serve "${WORK_DIR}/cap.vd")
if(NOT cli_err MATCHES "--events")
  message(FATAL_ERROR "serve without --events not rejected:\n${cli_err}")
endif()
# The repair core's own row sorts are counted apart from the selection
# kernel's: some under repair on the committed smoke trace, none under
# the policies that keep no repair core.
foreach(policy repair resolve online)
  run_cli(0 serve "${_repo_root}/bench/traces/serve_smoke.vd"
          --events "${_repo_root}/bench/traces/serve_smoke.events"
          --policy ${policy})
  if(NOT cli_out MATCHES "\"repair_rows_sorted\":([0-9]+)")
    message(FATAL_ERROR "serve JSON missing repair_rows_sorted:\n${cli_out}")
  endif()
  set(sorted "${CMAKE_MATCH_1}")
  if(policy STREQUAL "repair" AND sorted EQUAL 0)
    message(FATAL_ERROR "repair_rows_sorted is 0 under repair:\n${cli_out}")
  endif()
  if(NOT policy STREQUAL "repair" AND NOT sorted EQUAL 0)
    message(FATAL_ERROR "repair_rows_sorted is ${sorted} under ${policy}")
  endif()
endforeach()
run_cli(1 serve "${WORK_DIR}/cap.vd" --events "${WORK_DIR}/cap.events"
        --policy fastest)
if(NOT cli_err MATCHES "repair|resolve|online")
  message(FATAL_ERROR "bad --policy value not rejected:\n${cli_err}")
endif()

# --- serve option validation ------------------------------------------------
# ServeConfig validation reaches the CLI: an out-of-range refresh interval
# is rejected before any event is applied (a negative one would silently
# disable drift checks, a huge one wrap around).
run_cli(1 serve "${WORK_DIR}/cap.vd" --events "${WORK_DIR}/cap.events"
        --refresh -5)
if(NOT cli_err MATCHES "option --refresh expects an integer in \\[0, 2147483647\\], got '-5'")
  message(FATAL_ERROR "bad --refresh value not rejected:\n${cli_err}")
endif()
# mu is 0 (derive the paper's) or a finite exponential base > 1; anything
# else exits 1 naming the flag before an event is served. The online serve
# policy and the online solver share the one check.
foreach(mu nan -3 inf 0.5)
  if(mu STREQUAL "nan")
    set(mu_msg "option --mu expects a number, got 'nan'")
  else()
    set(mu_msg "option --mu expects 0 \\(auto\\) or a finite number > 1, got '${mu}'")
  endif()
  run_cli(1 serve "${WORK_DIR}/cap.vd" --events "${WORK_DIR}/cap.events"
          --policy online --mu ${mu})
  if(NOT cli_err MATCHES "${mu_msg}")
    message(FATAL_ERROR "serve --mu ${mu} not rejected:\n${cli_err}")
  endif()
  run_cli(1 solve "${WORK_DIR}/cap.vd" --algo online --mu ${mu})
  if(NOT cli_err MATCHES "${mu_msg}")
    message(FATAL_ERROR "solve --algo online --mu ${mu} not rejected:\n${cli_err}")
  endif()
endforeach()
run_cli(0 serve "${WORK_DIR}/cap.vd" --events "${WORK_DIR}/cap.events"
        --policy online --mu 2.5)
run_cli(0 solve "${WORK_DIR}/cap.vd" --algo online --mu 0)

# --- gen-events declared params: every knob is a flag ------------------------
# The event-mix weights and scale ranges the churn family declares are
# CLI flags; the summary line echoes the resolved configuration.
run_cli(0 gen-events "${WORK_DIR}/cap.vd" --events 30 --seed 5
        --w-stream-add 0 --w-capacity 4 --cap-scale-min 0.9
        --cap-scale-max 1.1 --out "${WORK_DIR}/mix.events")
if(NOT cli_err MATCHES "w-capacity=4")
  message(FATAL_ERROR "gen-events summary missing override:\n${cli_err}")
endif()
run_cli(1 gen-events "${WORK_DIR}/cap.vd" --events 30 --w-utility abc)
if(NOT cli_err MATCHES "w-utility")
  message(FATAL_ERROR "bad gen-events weight not rejected:\n${cli_err}")
endif()

# churn's own params cannot break its parity contract: utility scales are
# fractions in [0, 1] (a scale of 2 once lifted utilities over their
# declared value and failed serve --check 1), and both scale pairs must
# be ordered. Every error names the param.
run_cli(0 gen --kind cap --streams 12 --users 5 --seed 2
        --out "${WORK_DIR}/w.vd")
run_cli(1 gen-events "${WORK_DIR}/w.vd" --utility-scale-min 2
        --utility-scale-max 3 --events 40 --seed 2 --out "${WORK_DIR}/ev")
if(NOT cli_err MATCHES "utility-scale-m")
  message(FATAL_ERROR "out-of-range utility scale not rejected:\n${cli_err}")
endif()
run_cli(1 gen-events "${WORK_DIR}/w.vd" --utility-scale-min 0.9
        --utility-scale-max 0.5)
if(NOT cli_err MATCHES "utility-scale-min")
  message(FATAL_ERROR "reversed utility scales not rejected:\n${cli_err}")
endif()
run_cli(1 gen-events "${WORK_DIR}/w.vd" --cap-scale-min 1.5
        --cap-scale-max 1.2)
if(NOT cli_err MATCHES "cap-scale-min")
  message(FATAL_ERROR "reversed cap scales not rejected:\n${cli_err}")
endif()
# The harshest accepted churn keeps per-event resolve parity.
run_cli(0 gen-events "${WORK_DIR}/w.vd" --utility-scale-min 1
        --cap-scale-min 0 --cap-scale-max 0.2 --w-capacity 6 --events 40
        --seed 2 --out "${WORK_DIR}/ev")
run_cli(0 serve "${WORK_DIR}/w.vd" --events "${WORK_DIR}/ev"
        --policy resolve --check 1)

# Workload params parse as whole tokens, like every other option: a
# sign, whitespace or hex is an error naming the param, not a number.
run_cli(1 gen-events "${WORK_DIR}/w.vd" --events +5)
if(NOT cli_err MATCHES "workload param events")
  message(FATAL_ERROR "gen-events --events +5 not rejected:\n${cli_err}")
endif()
run_cli(1 gen-events "${WORK_DIR}/w.vd" --w-capacity 0x1p3)
if(NOT cli_err MATCHES "workload param w-capacity")
  message(FATAL_ERROR "gen-events --w-capacity 0x1p3 not rejected:\n${cli_err}")
endif()
run_cli(1 gen-events "${WORK_DIR}/w.vd" --cap-scale-min " 0.5")
if(NOT cli_err MATCHES "workload param cap-scale-min")
  message(FATAL_ERROR "gen-events --cap-scale-min ' 0.5' not rejected:\n${cli_err}")
endif()
run_cli(1 gen-events "${WORK_DIR}/w.vd" --family zipf-drift --events +5)
if(NOT cli_err MATCHES "workload param events")
  message(FATAL_ERROR "zipf-drift --events +5 not rejected:\n${cli_err}")
endif()
run_cli(1 compete "${WORK_DIR}/w.vd" --trace events=+5)
if(NOT cli_err MATCHES "workload param events")
  message(FATAL_ERROR "compete --trace events=+5 not rejected:\n${cli_err}")
endif()

# The churn scenario declares its family's knobs flat, like every other
# churned scenario: no nested `trace` param.
run_cli(1 gen --kind churn --trace w-capacity=3)
if(NOT cli_err MATCHES "trace")
  message(FATAL_ERROR "gen --kind churn --trace not rejected:\n${cli_err}")
endif()
run_cli(0 gen --kind churn --w-capacity 3 --streams 12 --users 5
        --out "${WORK_DIR}/churned.vd")

# --- committed traces regenerate byte for byte --------------------------------
set(traces_dir "${CMAKE_CURRENT_LIST_DIR}/../bench/traces")
function(expect_same_file actual committed)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${actual}" "${committed}"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${actual} differs from committed ${committed}")
  endif()
endfunction()
run_cli(0 gen-events "${traces_dir}/serve_smoke.vd" --events 120 --seed 19
        --out "${WORK_DIR}/serve_smoke.events")
expect_same_file("${WORK_DIR}/serve_smoke.events"
                 "${traces_dir}/serve_smoke.events")
run_cli(0 gen-events "${traces_dir}/compete_smoke.vd" --family flash-crowd
        --events 80 --seed 7 --out "${WORK_DIR}/flash_crowd.events")
expect_same_file("${WORK_DIR}/flash_crowd.events"
                 "${traces_dir}/flash_crowd.events")

# --- cap-crossing events keep every differential contract --------------------
# contract_breakers.events pushes pairs across their users' caps, which no
# workload generator does, over the committed `gen --kind cap --streams 12
# --seed 2` world. The overlay clips such a pair in the view and the
# snapshot alike, so resolve stays bit-equal to the from-scratch solve
# after every event (serve --check 1 exits 0, not 4), repair stays within
# its bound, and compete's resolve ratio is exactly 1.0 (exit 5 below).
set(breakers_vd "${traces_dir}/contract_breakers.vd")
set(breakers_ev "${traces_dir}/contract_breakers.events")
run_cli(0 gen --kind cap --streams 12 --seed 2
        --out "${WORK_DIR}/contract_breakers.vd")
expect_same_file("${WORK_DIR}/contract_breakers.vd" "${breakers_vd}")
foreach(policy resolve repair)
  run_cli(0 serve "${breakers_vd}" --events "${breakers_ev}"
          --policy ${policy} --check 1)
endforeach()
run_cli(0 compete "${breakers_vd}" --events "${breakers_ev}"
        --policy resolve --every 1 --min-ratio 1.0)

# --- perf --filter: label-subset runs ----------------------------------------
run_cli(0 perf --smoke 1 --reps 3 --filter greedy
        --out "${WORK_DIR}/perf-filter.json")
file(READ "${WORK_DIR}/perf-filter.json" perf_filter)
if(NOT perf_filter MATCHES "greedy-plain")
  message(FATAL_ERROR "perf --filter dropped matching cases:\n${perf_filter}")
endif()
if(perf_filter MATCHES "bands" OR perf_filter MATCHES "serve-")
  message(FATAL_ERROR "perf --filter kept non-matching cases:\n${perf_filter}")
endif()
run_cli(1 perf --smoke 1 --reps 1 --filter no-such-case)
if(NOT cli_err MATCHES "no-such-case")
  message(FATAL_ERROR "unmatched perf --filter not rejected:\n${cli_err}")
endif()

# --- sweep artifacts: byte-identical across thread counts --------------------
# --deterministic 1 zeroes every wall-clock field, so the committed smoke
# plan's CSV and JSON are pure functions of the plan: a one-thread and a
# four-thread run must match byte for byte.
foreach(threads 1 4)
  run_cli(0 sweep --plan "${_repo_root}/bench/plans/ci_smoke.plan"
          --deterministic 1 --threads ${threads}
          --csv "${WORK_DIR}/smoke-t${threads}.csv"
          --json "${WORK_DIR}/smoke-t${threads}.json")
endforeach()
foreach(ext csv json)
  file(READ "${WORK_DIR}/smoke-t1.${ext}" smoke_t1)
  file(READ "${WORK_DIR}/smoke-t4.${ext}" smoke_t4)
  if(NOT smoke_t1 STREQUAL smoke_t4)
    message(FATAL_ERROR "deterministic sweep ${ext} differs between --threads 1 and 4")
  endif()
endforeach()
# Sweeps run in one process: the worker subcommand and the executor's
# flags are unknown, not silently ignored.
run_cli(1 worker)
if(NOT cli_err MATCHES "unknown command 'worker'")
  message(FATAL_ERROR "worker subcommand not rejected:\n${cli_err}")
endif()
foreach(flag workers cache)
  run_cli(1 sweep --scenario cap --algos greedy --${flag} x)
  if(NOT cli_err MATCHES "sweep does not take --${flag}")
    message(FATAL_ERROR "sweep --${flag} not rejected:\n${cli_err}")
  endif()
endforeach()

# --- numeric and boolean flags parse the whole token -------------------------
# A trailing suffix, a negative count, an overflowing count or a value
# outside the boolean vocabulary exits 1 naming the flag and the value,
# never runs with a silently different setting.
set(serve_vd "${_repo_root}/bench/traces/serve_smoke.vd")
set(serve_ev "${_repo_root}/bench/traces/serve_smoke.events")
set(compete_vd "${_repo_root}/bench/traces/compete_smoke.vd")
set(compete_ev "${_repo_root}/bench/traces/flash_crowd.events")
run_cli(1 serve "${serve_vd}" --events "${serve_ev}" --refresh 8x)
if(NOT cli_err MATCHES "option --refresh expects an integer in \\[0, 2147483647\\], got '8x'")
  message(FATAL_ERROR "serve --refresh 8x not rejected:\n${cli_err}")
endif()
run_cli(1 serve "${serve_vd}" --events "${serve_ev}" --check -1)
if(NOT cli_err MATCHES "option --check expects an integer in \\[0, 2147483647\\], got '-1'")
  message(FATAL_ERROR "serve --check -1 not rejected:\n${cli_err}")
endif()
run_cli(1 solve "${WORK_DIR}/cap.vd" --algo enum --depth 2x)
if(NOT cli_err MATCHES "option --depth expects an integer in \\[0, 2147483647\\], got '2x'")
  message(FATAL_ERROR "solve --depth 2x not rejected:\n${cli_err}")
endif()
run_cli(1 compete "${compete_vd}" --events "${compete_ev}" --every 12abc)
if(NOT cli_err MATCHES "option --every expects an integer >= 0, got '12abc'")
  message(FATAL_ERROR "compete --every 12abc not rejected:\n${cli_err}")
endif()
run_cli(1 sweep --scenario cap --algos greedy --replicates 99999999999)
if(NOT cli_err MATCHES "option --replicates expects an integer in \\[1, 2147483647\\], got '99999999999'")
  message(FATAL_ERROR "sweep --replicates overflow not rejected:\n${cli_err}")
endif()
# A NaN cap on a join is an error, not "keep the declared cap".
file(WRITE "${WORK_DIR}/join-nan.events" "vdist-events 1\njoin 2 nan\n")
run_cli(1 serve "${serve_vd}" --events "${WORK_DIR}/join-nan.events")
if(NOT cli_err MATCHES "user_join: cap must not be NaN")
  message(FATAL_ERROR "serve join 2 nan not rejected:\n${cli_err}")
endif()
run_cli(1 gen --kind cap --streams 12 --seed 2 --interest nan
        --out "${WORK_DIR}/nan.vd")
if(NOT cli_err MATCHES "option --interest expects a number, got 'nan'")
  message(FATAL_ERROR "gen --interest nan not rejected:\n${cli_err}")
endif()
# The selection kernel is delta|naive; any other --select value exits 1
# naming that vocabulary.
foreach(select lazy heap scan)
  run_cli(1 solve "${WORK_DIR}/cap.vd" --algo greedy --select ${select})
  if(NOT cli_err MATCHES "option --select expects delta\\|naive, got '${select}'")
    message(FATAL_ERROR "solve --select ${select} not rejected:\n${cli_err}")
  endif()
endforeach()
run_cli(1 sweep --scenario cap --algos greedy --budget-ms abc)
if(NOT cli_err MATCHES "option --budget-ms expects a number, got 'abc'")
  message(FATAL_ERROR "sweep --budget-ms abc not rejected:\n${cli_err}")
endif()
run_cli(1 sweep --scenario cap --algos greedy --deterministic 2)
if(NOT cli_err MATCHES "option --deterministic expects a boolean, got '2'")
  message(FATAL_ERROR "sweep --deterministic 2 not rejected:\n${cli_err}")
endif()
# "yes" is a boolean: --strict yes keeps strict mode on, so an undeclared
# algorithm option still fails expansion.
run_cli(1 sweep --scenario cap --algos greedy --algo-axis greedy:depht=1
        --strict yes)
if(NOT cli_err MATCHES "depht")
  message(FATAL_ERROR "sweep --strict yes did not stay strict:\n${cli_err}")
endif()
# Plan directives follow the same rule.
foreach(directive "replicates 2abc" "budget-ms 5xyz")
  file(WRITE "${WORK_DIR}/bad-number.plan"
       "scenario cap streams=8 users=4\nalgo greedy\n${directive}\n")
  run_cli(1 sweep --plan "${WORK_DIR}/bad-number.plan")
  string(REGEX REPLACE " .*" "" key "${directive}")
  if(NOT cli_err MATCHES "plan line 3: ${key} expects")
    message(FATAL_ERROR "plan directive '${directive}' not rejected:\n${cli_err}")
  endif()
endforeach()

# --- adversarial workload families: gen-events --family ----------------------
# Every family is a deterministic trace generator behind the same flag
# surface; the summary line echoes the resolved family=... param line.
run_cli(0 gen-events "${WORK_DIR}/cap.vd" --family flash-crowd --events 40
        --seed 3 --out "${WORK_DIR}/flash.events")
if(NOT cli_err MATCHES "family=flash-crowd")
  message(FATAL_ERROR "gen-events --family summary missing family:\n${cli_err}")
endif()
run_cli(0 gen-events "${WORK_DIR}/cap.vd" --family flash-crowd --events 40
        --seed 3 --out "${WORK_DIR}/flash2.events")
file(READ "${WORK_DIR}/flash.events" flash_a)
file(READ "${WORK_DIR}/flash2.events" flash_b)
if(NOT flash_a STREQUAL flash_b)
  message(FATAL_ERROR "gen-events --family is not deterministic")
endif()
# Typo'd family params and unknown families are rejected strictly.
run_cli(1 gen-events "${WORK_DIR}/cap.vd" --family zipf-drift --alpa 1.2)
if(NOT cli_err MATCHES "--alpa")
  message(FATAL_ERROR "typo'd family param not rejected:\n${cli_err}")
endif()
run_cli(1 gen-events "${WORK_DIR}/cap.vd" --family flash-crwod)
if(NOT cli_err MATCHES "flash-crwod")
  message(FATAL_ERROR "unknown family not named in error:\n${cli_err}")
endif()
# The scenarios listing covers the event-trace families too.
run_cli(0 scenarios)
foreach(family zipf-drift flash-crowd diurnal hetero-cap)
  if(NOT cli_out MATCHES "${family}")
    message(FATAL_ERROR "'vdist_cli scenarios' does not list ${family}:\n${cli_out}")
  endif()
endforeach()
# An adversarial trace replays through serve with per-event resolve
# parity, like any other event trace.
run_cli(0 serve "${WORK_DIR}/cap.vd" --events "${WORK_DIR}/flash.events"
        --policy resolve --check 1 --json "${WORK_DIR}/serve-flash.json")

# --- compete: online-vs-offline competitive ratios ---------------------------
# The differential contract end to end: resolve's ratio against the
# default offline reference is exactly 1 at every checkpoint, so a
# --min-ratio 1.0 gate passes...
run_cli(0 compete "${WORK_DIR}/cap.vd" --family flash-crowd --seed 3
        --trace events=40 --policy resolve --every 10 --min-ratio 1.0
        --json "${WORK_DIR}/compete.json")
file(READ "${WORK_DIR}/compete.json" compete_json)
if(NOT compete_json MATCHES "\"min_ratio\":1[,.]")
  message(FATAL_ERROR "compete JSON min_ratio is not exactly 1:\n${compete_json}")
endif()
if(NOT compete_json MATCHES "\"checkpoints\":")
  message(FATAL_ERROR "compete JSON missing checkpoints:\n${compete_json}")
endif()
# ...and an unreachable gate trips exit 5 deterministically.
run_cli(5 compete "${WORK_DIR}/cap.vd" --family flash-crowd --seed 3
        --trace events=40 --policy resolve --every 10 --min-ratio 1.5)
if(NOT cli_err MATCHES "violates gate")
  message(FATAL_ERROR "compete gate violation not reported:\n${cli_err}")
endif()
# A committed event FILE replays too (repair within its declared bound).
run_cli(0 compete "${WORK_DIR}/cap.vd" --events "${WORK_DIR}/flash.events"
        --policy repair --every 10 --min-ratio 0.94
        --csv "${WORK_DIR}/compete.csv")
file(READ "${WORK_DIR}/compete.csv" compete_csv)
if(NOT compete_csv MATCHES "event,online,offline,ratio")
  message(FATAL_ERROR "compete CSV missing header:\n${compete_csv}")
endif()
# compete consumes every flag itself and rejects ambiguous trace sources.
run_cli(1 compete "${WORK_DIR}/cap.vd" --family flash-crowd --evry 10)
if(NOT cli_err MATCHES "--evry")
  message(FATAL_ERROR "typo'd compete flag not rejected:\n${cli_err}")
endif()
run_cli(1 compete "${WORK_DIR}/cap.vd" --events "${WORK_DIR}/flash.events"
        --family flash-crowd)
if(NOT cli_err MATCHES "not both")
  message(FATAL_ERROR "compete events/family conflict not rejected:\n${cli_err}")
endif()
run_cli(1 compete "${WORK_DIR}/cap.vd" --family flash-crowd --min-ratio 0.9x)
if(NOT cli_err MATCHES "min-ratio")
  message(FATAL_ERROR "partial --min-ratio parse not rejected:\n${cli_err}")
endif()

# --- unknown subcommands must fail loudly ------------------------------------
run_cli(1 frobnicate)
if(NOT cli_err MATCHES "unknown command 'frobnicate'")
  message(FATAL_ERROR "unknown subcommand not reported:\n${cli_err}")
endif()
run_cli(0 help)

message(STATUS "vdist_cli round-trip tests passed")
