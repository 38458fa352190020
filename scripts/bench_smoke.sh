#!/usr/bin/env bash
# Quick parallel-layer benchmark smoke: runs the synthesizer,
# solver-iteration and accelerator-simulation criterion benches in --quick
# mode at ARCHYTAS_THREADS=1 and ARCHYTAS_THREADS=4, and collects the
# BENCHJSON lines the vendored criterion harness emits. The solver-path
# records (every `solver/*` case plus the accelerator's
# `f32_functional_solve`) go to BENCH_solver.json only; every other record
# goes to BENCH_par.json. Two gates:
#   - thread-neutral solver: the solver kernels are serial, so
#     ARCHYTAS_THREADS must not move them; any solver bench at 4 threads
#     more than 1.25x its 1-thread mean fails the run (1.05x for the full
#     LM window). A failure means something inside a window started
#     forking. The comparison needs real hardware parallelism, so it
#     self-skips (loudly) below 4 CPUs.
#   - absolute regression (scripts/perf_gate.sh): the fresh 1-thread solver
#     means must stay within 1.15x of the checked-in BENCH_solver.json
#     baseline, and the synthesizer records must stay within tolerance of
#     the checked-in BENCH_par.json plus the absolute re-synthesis latency
#     ceilings (cold sweep / warm re-synthesis / cache hit).
#
# The synthesizer bench also prints SYNTHJSON search-counter lines
# (candidates examined/pruned per case, cache hit/miss); these are folded
# into BENCH_par.json's `synth_search` section.
#
# Usage: scripts/bench_smoke.sh [output.json] [solver-output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_par.json}"
SOLVER_OUT="${2:-BENCH_solver.json}"
BENCHES=(synthesizer solver_iteration accel_sim)
THREAD_COUNTS=(1 4)
TMP="$(mktemp)"
PERF_TMP="$(mktemp)"
SYNTH_TMP="$(mktemp)"
trap 'rm -f "$TMP" "$PERF_TMP" "$SYNTH_TMP"' EXIT

# Formatting gate: the whole workspace must be rustfmt-clean before any
# benchmark time is spent.
echo "checking formatting (cargo fmt --check)..." >&2
cargo fmt --check

# Lint gate: surface clippy findings across the workspace, and hold the
# crates carrying bit-identity contracts — the math kernels plus the
# fleet/faults isolation layer — to zero warnings across all build targets.
echo "linting (cargo clippy)..." >&2
cargo clippy -q --workspace
cargo clippy -q -p archytas-math -p archytas-fleet -p archytas-faults -p archytas-telemetry -p archytas-bench --all-targets -- -D warnings

echo "building benches (release)..." >&2
cargo build -q --release -p archytas-bench --benches

# Thread counts innermost so each bench's 1-thread and 4-thread runs are
# adjacent in time: the gate below compares their means, and back-to-back
# runs share machine state (load, thermals) far better than sweeps that are
# minutes apart.
for bench in "${BENCHES[@]}"; do
    for threads in "${THREAD_COUNTS[@]}"; do
        echo "running $bench (ARCHYTAS_THREADS=$threads, --quick)..." >&2
        RAW="$(ARCHYTAS_THREADS="$threads" \
            cargo bench -q -p archytas-bench --bench "$bench" -- --quick)"
        sed -n "s/^BENCHJSON /{\"threads\":$threads,\"bench\":\"$bench\",\"result\":/p" \
            <<<"$RAW" | sed 's/$/}/' >> "$TMP"
        # Per-phase perf-counter attribution (assembly vs factorization vs
        # back-substitution ...), emitted by bench bins that enable the
        # archytas-par counters.
        sed -n "s/^PERFJSON /{\"threads\":$threads,\"bench\":\"$bench\",\"counters\":/p" \
            <<<"$RAW" | sed 's/$/}/' >> "$PERF_TMP"
        # Design-space search counters (candidates examined/pruned, cache
        # hit/miss), emitted by the synthesizer bench per case.
        sed -n "s/^SYNTHJSON /{\"threads\":$threads,\"bench\":\"$bench\",\"search\":/p" \
            <<<"$RAW" | sed 's/$/}/' >> "$SYNTH_TMP"
    done
done

# Assemble a single JSON document: one record per (threads, bench, case),
# plus the per-phase counter attribution for benches that report it.
{
    echo '{"schema":"archytas-bench-smoke-v1","records":['
    paste -sd, - < "$TMP"
    echo '],"perf_phases":['
    paste -sd, - < "$PERF_TMP"
    echo '],"synth_search":['
    paste -sd, - < "$SYNTH_TMP"
    echo ']}'
} > "$OUT"

count="$(wc -l < "$TMP")"
echo "wrote $OUT ($count records)" >&2

# Solver extract + 4-thread regression gate. Like the fleet throughput
# gate, the thread-scaling comparison needs real hardware parallelism to be
# meaningful, so it self-skips (loudly) below 4 CPUs; the solver extract is
# still written either way.
CPUS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
python3 - "$OUT" "$SOLVER_OUT" "$CPUS" <<'PY'
import json
import sys

src, dst, cpus = sys.argv[1], sys.argv[2], int(sys.argv[3])
doc = json.load(open(src))

def is_solver(rec):
    name = rec["result"]["name"]
    return name.startswith("solver/") or name.endswith("f32_functional_solve")

records = [r for r in doc["records"] if is_solver(r)]
json.dump(
    {"schema": "archytas-bench-solver-v1", "records": records},
    open(dst, "w"),
    indent=1,
)
print(f"wrote {dst} ({len(records)} records)", file=sys.stderr)
doc["records"] = [r for r in doc["records"] if not is_solver(r)]
json.dump(doc, open(src, "w"))
print(f"kept {len(doc['records'])} non-solver records in {src}", file=sys.stderr)

if cpus < 4:
    print(f"solver 4-thread regression gate SKIPPED: need >=4 CPUs for a "
          f"meaningful 4t/1t comparison, machine has {cpus}", file=sys.stderr)
    sys.exit(0)

# Gate: every solver/* case at 4 threads must stay within 1.25x of its
# 1-thread mean. The kernels take no pool, so a violation means some code
# inside a window forks again (or the host is too noisy to tell). The full
# LM window gets a much tighter limit because nothing in it may depend on
# the thread count at all; 1.25x once let a 7.6 ms-vs-6.7 ms (1.14x)
# regression through.
LIMIT = 1.25
LM_LIMIT = 1.05
LM_CASE = "solver/lm_full_window_6_iterations"
means = {}
for r in records:
    means[(r["result"]["name"], r["threads"])] = r["result"]["mean_ns"]

failures = []
for (name, threads), mean in sorted(means.items()):
    if threads != 4 or not name.startswith("solver/"):
        continue
    base = means.get((name, 1))
    if base is None or base <= 0.0:
        continue
    limit = LM_LIMIT if name == LM_CASE else LIMIT
    ratio = mean / base
    status = "FAIL" if ratio > limit else "ok"
    print(f"  {status}  {name}: 4t/1t = {ratio:.3f} (limit {limit:.2f}, "
          f"{mean / 1e6:.3f} ms vs {base / 1e6:.3f} ms)", file=sys.stderr)
    if ratio > limit:
        failures.append(name)

if failures:
    print(f"solver 4-thread regression gate FAILED: {', '.join(failures)}",
          file=sys.stderr)
    sys.exit(1)
print("solver 4-thread regression gate passed", file=sys.stderr)
PY

# Absolute regression gate: the fresh solver means must stay within
# tolerance of the committed BENCH_solver.json baseline, and the fresh
# synthesizer records within tolerance of the committed BENCH_par.json
# plus the re-synthesis latency ceilings. The fleet stage is skipped ("-")
# here: BENCH_fleet.json is regenerated by fleet_smoke.sh below, and gating
# the stale working-tree copy would compare the baseline against itself.
scripts/perf_gate.sh "$SOLVER_OUT" "" "$OUT" "" -

# Fault-matrix robustness smoke rides along (writes BENCH_faults.json and
# enforces the 3x-nominal RMSE and pool-size determinism gates).
scripts/fault_smoke.sh

# Fleet serving smoke (writes BENCH_fleet.json: 1-vs-4 worker determinism
# byte-diff, the workers x sessions scaling sweep with a per-point
# efficiency gate that never skips, the churn soak at pools {1,2,8}, and
# the 2000-session admission-cost bench). SCALING_QUICK=1 trims the sweep
# to {1,4} workers x {8,64} sessions so the smoke stays fast; run
# scripts/fleet_smoke.sh directly for the full curve.
SCALING_QUICK=1 scripts/fleet_smoke.sh

# Fleet scaling regression: the fresh sweep points and admission cost must
# stay within tolerance of the committed BENCH_fleet.json (solver and
# synthesizer stages skipped — gated above).
scripts/perf_gate.sh - "" - "" BENCH_fleet.json

# Chaos-harness smoke (writes BENCH_chaos.json; enforces the in-process
# quarantine/bitwise gates at pools {1,2,8} and the 1-vs-4 worker
# determinism byte-diff; the parallel-racing verdict self-skips loudly
# below 4 CPUs with a stamped "gate_reason").
scripts/chaos_smoke.sh

# Observability smoke (writes BENCH_obs.json; enforces the 1-vs-4 worker
# OBSREC/OBSENV byte-diff — telemetry aggregates and power-envelope
# admission decisions must not depend on pool size — and stamps the
# parallel-interleaving verdict, "skipped" below 4 CPUs).
scripts/obs_smoke.sh
