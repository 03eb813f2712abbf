#!/bin/sh
# Repo health check, split into the same stages CI runs.
#
#   ./scripts/check.sh              run every stage
#   ./scripts/check.sh <stage>...   run only the named stages
#
# Stages:
#   build        release build of the whole workspace
#   test         debug + release test suites (tier-1 gate)
#   fmt          cargo fmt --check
#   clippy       cargo clippy --workspace --all-targets -D warnings
#   determinism  byte-identical traces: seeded, threads 1 vs 4, repair
#                fast-path coverage
#   checkpoint   resume-equivalence gates: interrupted-then-resumed runs
#                reproduce results, stats, and traces bit-identically, and
#                the kill-and-resume bench stays under the overhead budget
#   bench        bench harness end to end: trace diff across worker counts,
#                BENCH_repair.json speedup record
#   objectives   evaluation-pipeline gates: default objective byte-identical
#                to the pre-refactor goldens, Pareto frontier invariants,
#                and the budgeted bench rejecting infeasible proposals with
#                traces invariant in worker count
#   profile      observability gates: profiler + heartbeat trace-invisible,
#                metric names documented, golden phase table from a
#                deterministic trace, >= 95% eval-time attribution both
#                serially and at 2 threads running 4 chains
#   sim          simulator fast-path gates: differential oracle (pruned +
#                cached sweep vs exhaustive) across every workload, the
#                analytic lower-bound property, oracle walk invisible in
#                traces, and BENCH_sim.json holding >= 5x median eval
#                speedup with winners identical to exhaustive search
#   service      multi-tenant job-server gates: the persistent-store unit
#                suite, the cross-tenant differential suite (1 vs 4
#                workers inside the suite), and BENCH_service.json holding >= 2x median
#                warm-cache speedup with concurrent-vs-sequential job
#                artifacts byte-identical (plus a synthetic-divergence
#                negative test of the gate itself)
#   placement    spatial-placement gates: the placement property + golden
#                suite (default-objective runs byte-identical with the
#                stage present, placement-aware runs deterministic across
#                thread counts), the placer unit suite, and
#                BENCH_placement.json holding sweep-direction-stable
#                winners with the congestion/wirelength medians inside the
#                tolerance bands (plus a synthetic-violation negative test
#                of the gate itself)
#   rewrite      rewrite-engine gates: the rule/delta/inference unit
#                suite, the golden equivalence suite (compound off
#                byte-identical to the pre-rewrite pins, compound on
#                deterministic across threads/cache/resume), and
#                BENCH_rewrite.json holding the repair fast-path share at
#                its hand-classified baseline in both compound modes with
#                a clean release-mode inference oracle (plus a synthetic-
#                regression negative test of the gate itself)
set -e

stage_build() {
    echo "== build: release workspace =="
    cargo build --release --workspace
}

stage_test() {
    echo "== test: tier-1 (debug) =="
    cargo test -q --workspace
    echo "== test: full suite under optimizations =="
    cargo test -q --release
}

stage_fmt() {
    echo "== fmt =="
    cargo fmt --all --check
}

stage_clippy() {
    echo "== clippy (-D warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_determinism() {
    echo "== determinism: byte-identical seeded JSONL trace =="
    cargo test -q --test telemetry_trace \
        deterministic_trace_is_byte_identical_and_well_formed

    echo "== determinism: results + traces invariant in worker count =="
    # The suite compares multi-chain runs at 1 vs 4 workers internally.
    cargo test -q --test parallel_determinism

    echo "== determinism: repair fast path covered, checked, and silent =="
    # Debug builds check every fast-path repair against a full placement;
    # the unit test pins that the check leaves no trace.
    cargo test -q --test repair_determinism
    cargo test -q -p overgen-scheduler --lib verification_path_is_silent_and_matches_fast_path
    cargo test -q --test properties incremental_repair_equals_full_replacement
}

stage_checkpoint() {
    echo "== checkpoint: resume equivalence at 1 and 4 workers =="
    # The suite varies the worker count internally.
    cargo test -q --test checkpoint_resume

    echo "== checkpoint: kill-and-resume bench, write overhead < 5% =="
    if [ -n "${CHECK_TRACE_DIR:-}" ]; then
        CK_TMP=$CHECK_TRACE_DIR/checkpoint
        mkdir -p "$CK_TMP"
    else
        CK_TMP=$(mktemp -d)
        trap 'rm -rf "$CK_TMP"' EXIT INT TERM
    fi
    OVERGEN_RESULTS_DIR="$CK_TMP" cargo run -q --release -p overgen-bench \
        --bin bench_checkpoint >/dev/null
    grep -q '"resume_match":true' "$CK_TMP/BENCH_checkpoint.json" \
        || { echo "FAIL: kill-and-resume diverged from the uninterrupted run"; exit 1; }
    grep -q '"checkpoint_invisible":true' "$CK_TMP/BENCH_checkpoint.json" \
        || { echo "FAIL: checkpoint writes perturbed the run"; exit 1; }
    awk 'match($0, /"overhead_pct":[0-9.]+/) {
            pct = substr($0, RSTART + 15, RLENGTH - 15)
            if (pct + 0 >= 5.0) { print "FAIL: checkpoint overhead " pct "% >= 5%"; exit 1 }
            found = 1
         }
         END { if (!found) { print "FAIL: overhead_pct missing"; exit 1 } }' \
        "$CK_TMP/BENCH_checkpoint.json"
}

stage_bench() {
    # CI sets CHECK_TRACE_DIR so failing traces survive for artifact upload;
    # locally the temp dir is cleaned up on exit.
    if [ -n "${CHECK_TRACE_DIR:-}" ]; then
        TRACE_TMP=$CHECK_TRACE_DIR
        mkdir -p "$TRACE_TMP"
    else
        TRACE_TMP=$(mktemp -d)
        trap 'rm -rf "$TRACE_TMP"' EXIT INT TERM
    fi

    echo "== bench: trace diff across worker counts =="
    # Threads only run chains concurrently, so both legs run two chains.
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_RESULTS_DIR="$TRACE_TMP/t1" \
        OVERGEN_DSE_THREADS=1 OVERGEN_DSE_CHAINS=2 cargo run -q --release \
        -p overgen-bench --bin fig18_incremental >/dev/null
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_RESULTS_DIR="$TRACE_TMP/t4" \
        OVERGEN_DSE_THREADS=4 OVERGEN_DSE_CHAINS=2 cargo run -q --release \
        -p overgen-bench --bin fig18_incremental >/dev/null
    diff "$TRACE_TMP/t1/fig18.trace.jsonl" "$TRACE_TMP/t4/fig18.trace.jsonl" \
        || { echo "FAIL: traces differ across worker counts"; exit 1; }

    echo "== bench: repair speedup record =="
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_RESULTS_DIR="$TRACE_TMP/r1" \
        cargo run -q --release -p overgen-bench --bin bench_repair >/dev/null
    grep -q '"median_speedup"' "$TRACE_TMP/r1/BENCH_repair.json" \
        || { echo "FAIL: BENCH_repair.json missing median_speedup"; exit 1; }

    echo "== bench: perf-regression gate against the committed baseline =="
    # Deterministic ratios get hard bands; absolute wall numbers only get
    # presence checks (machines differ). The committed baseline ran at 60
    # iterations, the candidate at 10 — the bands absorb that.
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_repair.json "$TRACE_TMP/r1/BENCH_repair.json" \
        min:dse.fast_share=0.5 \
        max-drop:timing.median_speedup=0.5 \
        min:timing.min_speedup=1.0 \
        require:timing.proposals \
        require:timing.median_repair_seconds \
        || { echo "FAIL: repair benchmark regressed past the tolerance bands"; exit 1; }

    echo "== bench: injected synthetic regression must fail the gate =="
    sed -e 's/"fast_share":[0-9.eE+-]*/"fast_share":0.01/' \
        -e 's/"median_speedup":[0-9.eE+-]*/"median_speedup":1.01/' \
        "$TRACE_TMP/r1/BENCH_repair.json" > "$TRACE_TMP/regressed.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_repair.json "$TRACE_TMP/regressed.json" \
        min:dse.fast_share=0.5 \
        max-drop:timing.median_speedup=0.5 >/dev/null; then
        echo "FAIL: bench-compare accepted a synthetic regression"; exit 1
    fi
}

stage_objectives() {
    echo "== objectives: default objective byte-identical to pre-refactor =="
    cargo test -q --test objective_equivalence

    echo "== objectives: Pareto frontier invariants =="
    cargo test -q --test properties \
        pareto_front_is_the_non_dominated_subset_in_canonical_order

    if [ -n "${CHECK_TRACE_DIR:-}" ]; then
        PF_TMP=$CHECK_TRACE_DIR/pareto
        mkdir -p "$PF_TMP"
    else
        PF_TMP=$(mktemp -d)
        trap 'rm -rf "$PF_TMP"' EXIT INT TERM
    fi

    echo "== objectives: budgeted bench trace diff across worker counts =="
    # Threads only run chains concurrently, so both legs run two chains.
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_RESULTS_DIR="$PF_TMP/t1" \
        OVERGEN_DSE_THREADS=1 OVERGEN_DSE_CHAINS=2 cargo run -q --release \
        -p overgen-bench --bin bench_pareto >/dev/null
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_RESULTS_DIR="$PF_TMP/t4" \
        OVERGEN_DSE_THREADS=4 OVERGEN_DSE_CHAINS=2 cargo run -q --release \
        -p overgen-bench --bin bench_pareto >/dev/null
    diff "$PF_TMP/t1/pareto.trace.jsonl" "$PF_TMP/t4/pareto.trace.jsonl" \
        || { echo "FAIL: pareto traces differ across worker counts"; exit 1; }

    echo "== objectives: tight budget rejects infeasible proposals =="
    grep -q '"winner_admitted":true' "$PF_TMP/t1/BENCH_pareto.json" \
        || { echo "FAIL: budgeted winner overflows its own budget"; exit 1; }
    awk 'match($0, /"infeasible":[0-9]+/) {
            n = substr($0, RSTART + 13, RLENGTH - 13)
            if (n + 0 < 1) { print "FAIL: no infeasible rejections recorded"; exit 1 }
            found = 1
         }
         END { if (!found) { print "FAIL: infeasible count missing"; exit 1 } }' \
        "$PF_TMP/t1/BENCH_pareto.json"
}

stage_profile() {
    echo "== profile: profiler + heartbeat invisible to traces, names documented =="
    cargo test -q --test profiling_determinism
    cargo test -q --test metric_names

    if [ -n "${CHECK_TRACE_DIR:-}" ]; then
        PROF_TMP=$CHECK_TRACE_DIR/profile
        mkdir -p "$PROF_TMP"
    else
        PROF_TMP=$(mktemp -d)
        trap 'rm -rf "$PROF_TMP"' EXIT INT TERM
    fi

    echo "== profile: golden phase table from a deterministic trace =="
    # The trace clock is logical ticks, so the rendered table is identical
    # on every machine; regenerate the golden with the same command if a
    # deliberate change moves it.
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_DSE_THREADS=1 \
        OVERGEN_RESULTS_DIR="$PROF_TMP" cargo run -q --release -p overgen-bench \
        --bin bench_dse >/dev/null
    cargo run -q --release -p overgen-bench --bin overgen-profile -- \
        "$PROF_TMP/dse.trace.jsonl" > "$PROF_TMP/profile_table.txt"
    diff results/profile_table.golden.txt "$PROF_TMP/profile_table.txt" \
        || { echo "FAIL: phase table drifted from results/profile_table.golden.txt"; exit 1; }

    echo "== profile: chrome trace-event export =="
    cargo run -q --release -p overgen-bench --bin overgen-profile -- \
        "$PROF_TMP/dse.trace.jsonl" --chrome "$PROF_TMP/dse.chrome.json" >/dev/null
    grep -q '"traceEvents":\[{' "$PROF_TMP/dse.chrome.json" \
        || { echo "FAIL: chrome export has no events"; exit 1; }

    echo "== profile: >= 95% of eval wall time attributed to a named phase =="
    gate_coverage "$PROF_TMP/dse.profile.json"

    echo "== profile: >= 95% attributed with chains running concurrently =="
    OVERGEN_DSE_ITERS=300 OVERGEN_RESULTS_DIR="$PROF_TMP/par" cargo run -q --release \
        -p overgen-bench --bin bench_dse -- --threads 2 --chains 4 >/dev/null
    gate_coverage "$PROF_TMP/par/dse.profile.json"
}

# Fail unless the profile record at $1 attributes >= 95% of eval time.
gate_coverage() {
    awk 'match($0, /"coverage":[0-9.]+/) {
            c = substr($0, RSTART + 11, RLENGTH - 11)
            if (c + 0 < 0.95) { print "FAIL: coverage " c " < 0.95"; exit 1 }
            found = 1
         }
         END { if (!found) { print "FAIL: coverage missing"; exit 1 } }' \
        "$1"
}

stage_sim() {
    echo "== sim: differential oracle, pruned + cached sweep vs exhaustive =="
    # Debug builds arm the oracle: every system_dse_sim call also runs a
    # shadow exhaustive walk (plain SimBatch::run, no pruning, no reuse
    # cache) and asserts identical winners, so this suite runs without
    # --release.
    cargo test -q --test sim_oracle

    echo "== sim: oracle shadow walk is telemetry-silent =="
    # The shadow walk must record no events and touch no counters, so
    # arming the oracle can never perturb a trace.
    cargo test -q -p overgen-dse --lib shadow_walk_is_telemetry_silent

    echo "== sim: analytic model is a true lower bound =="
    cargo test -q --test properties analytic_bound_never_exceeds_simulated_cycles

    if [ -n "${CHECK_TRACE_DIR:-}" ]; then
        SIM_TMP=$CHECK_TRACE_DIR/sim
        mkdir -p "$SIM_TMP"
    else
        SIM_TMP=$(mktemp -d)
        trap 'rm -rf "$SIM_TMP"' EXIT INT TERM
    fi

    echo "== sim: >= 5x median eval speedup at unchanged winners =="
    OVERGEN_TRACE=1 OVERGEN_RESULTS_DIR="$SIM_TMP" \
        cargo run -q --release -p overgen-bench --bin bench_sim >/dev/null
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_sim.json "$SIM_TMP/BENCH_sim.json" \
        min:summary.median_speedup=5 \
        min:summary.winner_match_all=1 \
        require:summary.pruned \
        require:summary.reused \
        || { echo "FAIL: simulator fast path regressed past the speedup/winner gate"; exit 1; }

    echo "== sim: injected winner divergence must fail the gate =="
    sed -e 's/"winner_match_all":true/"winner_match_all":false/' \
        -e 's/"median_speedup":[0-9.eE+-]*/"median_speedup":1.2/' \
        "$SIM_TMP/BENCH_sim.json" > "$SIM_TMP/diverged.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_sim.json "$SIM_TMP/diverged.json" \
        min:summary.median_speedup=5 \
        min:summary.winner_match_all=1 >/dev/null; then
        echo "FAIL: bench-compare accepted a diverged winner"; exit 1
    fi
}

stage_service() {
    echo "== service: persistent store edge cases (corruption, versioning, races) =="
    cargo test -q --release -p overgen-dse store::

    echo "== service: cross-tenant differential suite at 1 and 4 workers =="
    # The suite compares workers=1 vs 4 internally.
    cargo test -q --release --test service_determinism

    if [ -n "${CHECK_TRACE_DIR:-}" ]; then
        SVC_TMP=$CHECK_TRACE_DIR/service
        mkdir -p "$SVC_TMP"
    else
        SVC_TMP=$(mktemp -d)
        trap 'rm -rf "$SVC_TMP"' EXIT INT TERM
    fi

    echo "== service: >= 2x warm-cache speedup, concurrent == sequential =="
    OVERGEN_RESULTS_DIR="$SVC_TMP" cargo run -q --release -p overgen-bench \
        --bin bench_service >/dev/null
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_service.json "$SVC_TMP/BENCH_service.json" \
        min:summary.median_warm_speedup=2 \
        min:summary.identity=1 \
        min:store.hits=1 \
        max:store.misses=0 \
        require:store.warm_entries \
        || { echo "FAIL: service benchmark regressed past the speedup/identity gate"; exit 1; }

    echo "== service: injected artifact divergence must fail the gate =="
    sed -e 's/"identity":true/"identity":false/' \
        -e 's/"median_warm_speedup":[0-9.eE+-]*/"median_warm_speedup":1.1/' \
        "$SVC_TMP/BENCH_service.json" > "$SVC_TMP/diverged.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_service.json "$SVC_TMP/diverged.json" \
        min:summary.median_warm_speedup=2 \
        min:summary.identity=1 >/dev/null; then
        echo "FAIL: bench-compare accepted diverged service artifacts"; exit 1
    fi

    echo "== service: a missing baseline must exit 3, not read as a pass =="
    rc=0
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        "$SVC_TMP/no-such-baseline.json" "$SVC_TMP/BENCH_service.json" \
        min:summary.identity=1 >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 3 ] \
        || { echo "FAIL: bench-compare must exit 3 on a missing baseline (got $rc)"; exit 1; }
}

stage_placement() {
    echo "== placement: placer unit suite =="
    cargo test -q --release -p overgen-model placement

    echo "== placement: property + golden suite (default runs untouched) =="
    cargo test -q --release --test placement

    if [ -n "${CHECK_TRACE_DIR:-}" ]; then
        PL_TMP=$CHECK_TRACE_DIR/placement
        mkdir -p "$PL_TMP"
    else
        PL_TMP=$(mktemp -d)
        trap 'rm -rf "$PL_TMP"' EXIT INT TERM
    fi

    echo "== placement: sweep-stable winners inside the tolerance bands =="
    OVERGEN_RESULTS_DIR="$PL_TMP" cargo run -q --release -p overgen-bench \
        --bin bench_placement >/dev/null
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_placement.json "$PL_TMP/BENCH_placement.json" \
        min:summary.winner_stable=1 \
        max:summary.max_congestion=1.2 \
        require:summary.median_congestion \
        require:summary.median_wirelength \
        require:summary.mean_fmax_mhz \
        || { echo "FAIL: placement benchmark regressed past the stability/congestion gate"; exit 1; }

    echo "== placement: injected winner instability must fail the gate =="
    sed -e 's/"winner_stable":1/"winner_stable":0/' \
        -e 's/"max_congestion":[0-9.eE+-]*/"max_congestion":9.9/' \
        "$PL_TMP/BENCH_placement.json" > "$PL_TMP/unstable.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_placement.json "$PL_TMP/unstable.json" \
        min:summary.winner_stable=1 \
        max:summary.max_congestion=1.2 >/dev/null; then
        echo "FAIL: bench-compare accepted unstable placement winners"; exit 1
    fi
}

stage_rewrite() {
    echo "== rewrite: rule / delta / inference unit suite =="
    cargo test -q --release -p overgen-dse rewrite

    echo "== rewrite: golden + compound equivalence suite =="
    cargo test -q --release --test rewrite_equivalence

    if [ -n "${CHECK_TRACE_DIR:-}" ]; then
        RW_TMP=$CHECK_TRACE_DIR/rewrite
        mkdir -p "$RW_TMP"
    else
        RW_TMP=$(mktemp -d)
        trap 'rm -rf "$RW_TMP"' EXIT INT TERM
    fi

    echo "== rewrite: fast-path share and inference oracle inside the gate =="
    OVERGEN_RESULTS_DIR="$RW_TMP" cargo run -q --release -p overgen-bench \
        --bin bench_rewrite >/dev/null
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_rewrite.json "$RW_TMP/BENCH_rewrite.json" \
        min:summary.fast_share_off=0.83 \
        min:summary.fast_share_on=0.83 \
        max:summary.oracle_weaker=0 \
        require:summary.per_application_speedup \
        require:compound_on.compound_proposals \
        || { echo "FAIL: rewrite benchmark regressed past the share/oracle gate"; exit 1; }

    echo "== rewrite: injected share regression must fail the gate =="
    sed -e 's/"fast_share_off":[0-9.eE+-]*/"fast_share_off":0.1/g' \
        -e 's/"oracle_weaker":[0-9]*/"oracle_weaker":7/' \
        "$RW_TMP/BENCH_rewrite.json" > "$RW_TMP/regressed.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_rewrite.json "$RW_TMP/regressed.json" \
        min:summary.fast_share_off=0.83 \
        max:summary.oracle_weaker=0 >/dev/null; then
        echo "FAIL: bench-compare accepted a regressed rewrite record"; exit 1
    fi
}

if [ $# -eq 0 ]; then
    set -- build test fmt clippy determinism checkpoint bench objectives profile sim service placement rewrite
fi

for stage in "$@"; do
    case "$stage" in
    build | test | fmt | clippy | determinism | checkpoint | bench | objectives | profile | sim | service | placement | rewrite) "stage_$stage" ;;
    *)
        echo "unknown stage: $stage" >&2
        echo "usage: $0 [build|test|fmt|clippy|determinism|checkpoint|bench|objectives|profile|sim|service|placement|rewrite]..." >&2
        exit 2
        ;;
    esac
done

echo "ALL CHECKS PASSED"
