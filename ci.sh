#!/usr/bin/env bash
# Full offline CI gate: everything here must pass with no network access.
# All dependencies are local path crates, so --offline is safe everywhere.
set -euo pipefail
cd "$(dirname "$0")"

# Best-effort sanitizer lane (docs/ANALYSIS.md): SYNCPERF_SANITIZE=1
# runs the concurrency-heavy crates under ThreadSanitizer when a
# nightly toolchain with -Zbuild-std is available, falling back to
# Miri, and skips cleanly when neither exists. Non-blocking by design:
# the workflow job that sets this is continue-on-error.
if [ "${SYNCPERF_SANITIZE:-0}" = "1" ]; then
  san_crates=(-p syncperf-omp -p syncperf-obs -p syncperf-sched)
  if rustup toolchain list 2>/dev/null | grep -q nightly \
      && rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src (installed)'; then
    echo "==> sanitizer lane: ThreadSanitizer (nightly)"
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test --offline -q \
      -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
      "${san_crates[@]}" || echo "tsan lane reported failures (non-blocking)"
  elif rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri (installed)'; then
    echo "==> sanitizer lane: Miri (nightly)"
    cargo +nightly miri test --offline -q "${san_crates[@]}" \
      || echo "miri lane reported failures (non-blocking)"
  else
    echo "==> sanitizer lane: no nightly tsan/miri toolchain available, skipping"
  fi
  exit 0
fi

# Polls a background service's log for its ready line(s) and echoes
# the captured values (e.g. bound addresses), one per line. Every
# smoke service below binds port 0 and prints where it landed, so
# concurrent lanes in one CI job can never collide on a port — the
# only thing worth waiting for is the ready line itself. An optional
# third argument waits for that many matches (a fleet of N processes
# sharing one log prints N ready lines).
wait_for_ready() { # wait_for_ready <logfile> <sed-capture-pattern> [count]
  local log="$1" pat="$2" want="${3:-1}" got="" n=0
  for _ in $(seq 1 150); do
    got=$(sed -n "$pat" "$log" 2>/dev/null | head -n "$want")
    n=$(printf '%s' "$got" | grep -c . || true)
    if [ "$n" -ge "$want" ]; then
      printf '%s' "$got"
      return 0
    fi
    sleep 0.2
  done
  return 1
}

# Reads one counter from a `--metrics` exposition file: the value on
# its `^<name> <value>$` line (counters carry no labels). Every
# scheduler and dist gate below reads its numbers this way.
prom() { # prom <file> <counter>
  sed -n "s/^$2 \([0-9]*\)\$/\1/p" "$1"
}
# Fails unless a warm run's hit ratio, sched_cache_hits / sched_jobs,
# is at least 0.95.
require_warm_hits() { # require_warm_hits <label> <file>
  local hits jobs
  hits=$(prom "$2" sched_cache_hits)
  jobs=$(prom "$2" sched_jobs)
  echo "$1 warm-run cache hits: ${hits:-missing} of ${jobs:-missing} jobs"
  awk -v h="${hits:-0}" -v j="${jobs:-0}" 'BEGIN { exit (j > 0 && h / j >= 0.95) ? 0 : 1 }' || {
    echo "$1 warm-cache hit ratio ${hits:-missing}/${jobs:-missing} is below 0.95"; exit 1; }
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --release --offline --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace --release --offline -q

# The render layer's float formatters must equal std's `{:.1}` and
# `{:.3e}` on every value; tier-1 checks 2x10^5 values and every tie,
# this scan 10^7 more.
echo "==> numfmt scan (10^7 values)"
cargo test --release --offline -p syncperf-core -q --lib -- --ignored numfmt

# The PCIe jitter fold runs an AVX-512 copy where the CPU has one; it
# must equal the portable fold and the in-order fold on every pair.
# Tier-1 checks 48 pairs, this scan 10^5 seeded (seed, n) pairs.
echo "==> jitter fold scan (10^5 pairs)"
cargo test --release --offline -p syncperf-core -q --lib -- --ignored fold_scan

# The paper-claim table (EXPERIMENTS.md): every one of the 19 claims
# must reproduce. Exits nonzero on any failed claim.
echo "==> verify_experiments (paper claims)"
cargo run --release --offline -p syncperf-bench --bin verify_experiments

# Criterion smoke run (docs/PERFORMANCE.md): every benchmark body must
# still execute; SYNCPERF_BENCH_QUICK clamps the budgets so this takes
# seconds, not minutes. The numbers are not comparison-grade.
echo "==> criterion smoke benches"
SYNCPERF_BENCH_QUICK=1 cargo bench --offline -p syncperf-bench > /dev/null

# Tracked macro-benchmark (docs/PERFORMANCE.md): a cold
# `all_figures --jobs 2` must stay within 25% of the committed
# BENCH_syncperf.json number.
echo "==> bench_report --check"
cargo run --release --offline -p syncperf-bench --bin bench_report -- --check

# Tracked distributed benchmark (docs/DISTRIBUTED.md): cold
# `all_figures` over 3 local `serve` replicas must stay
# within 25% of the committed BENCH_dist.json number (and is
# re-measured against `--jobs 3` threads each run).
echo "==> syncperf_dist bench --check"
cargo run --release --offline -p syncperf-bench --bin syncperf_dist -- bench --check

# Static sync-lint + race-detector cross-check + bounded model checker
# over every registered kernel (docs/ANALYSIS.md). Exits nonzero on any
# non-allowlisted diagnostic or engine disagreement (static/dynamic,
# explorer/vector-clock, or simulator); the JSON report carries
# per-kernel exploration stats (states, branches, micros) and is
# uploaded as a CI artifact alongside the SARIF form.
echo "==> sync_lint all (both engines)"
mkdir -p results
cargo run --release --offline -p syncperf-bench --bin sync_lint -- \
  all --engine both --format json --out results/sync_lint_report.json
cargo run --release --offline -p syncperf-bench --bin sync_lint -- \
  all --engine both --format sarif --out results/sync_lint_report.sarif > /dev/null
echo "exploration stats:"
python3 - << 'PYEOF' || true
import json
d = json.load(open("results/sync_lint_report.json"))
ex = d["exploration"]
states = sum(e["states"] for e in ex)
micros = sum(e["micros"] for e in ex)
slowest = max(ex, key=lambda e: e["micros"])
print(f'  {len(ex)} bodies, {states} states, {micros/1000:.1f} ms total; '
      f'slowest {slowest["kernel"]} ({slowest["body"]}): {slowest["micros"]} us')
PYEOF

# Scheduler warm-cache gate (docs/SCHEDULER.md): regenerate every
# figure twice with 2 workers into a fresh results dir. The second run
# must be served almost entirely from the content-addressed cache —
# anything under 95% means job hashing went unstable.
echo "==> scheduler warm-cache gate"
rm -rf ci_sched_results
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin all_figures -- --jobs 2 --metrics results/metrics_cold.prom > /dev/null
# Observation never picks the path (docs/OBSERVABILITY.md): an observed
# cold run must still batch-prime its sweep groups. Zero primed jobs
# means a metrics or trace flag switched the sweep onto another path.
require_primed() {
  primed=$(prom "$2" sched_plan_primed_jobs)
  echo "$1 cold-run batch-primed jobs: ${primed}"
  [ "${primed:-0}" -gt 0 ] || {
    echo "$1 disabled plan batching (sched_plan_primed_jobs=${primed:-missing})"; exit 1; }
}
require_primed --metrics results/metrics_cold.prom
# The pool keeps its helper threads for the scheduler's lifetime
# (docs/SCHEDULER.md): on a host with two or more CPUs the helper must
# run some of a cold 2-worker sweep's jobs, so a pool that silently
# degrades to serial on the calling thread fails here. A one-CPU host
# clamps the scheduler to one worker, so the gate does not apply.
if [ "$(nproc)" -ge 2 ]; then
  helper_executed=$(prom results/metrics_cold.prom sched_worker_1_executed)
  echo "cold-run helper-executed jobs: ${helper_executed:-missing}"
  [ "${helper_executed:-0}" -gt 0 ] || {
    echo "pool worker 1 executed nothing (sched_worker_1_executed=${helper_executed:-missing})"; exit 1; }
fi
rm -rf ci_trace_results
SYNCPERF_RESULTS=ci_trace_results cargo run --release --offline -p syncperf-bench \
  --bin all_figures -- --jobs 2 --no-cache --trace ci_trace_results/all_figures.json \
  --metrics results/metrics_trace.prom > /dev/null
require_primed --trace results/metrics_trace.prom
rm -rf ci_trace_results
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin all_figures -- --jobs 2 --metrics results/metrics_warm.prom > /dev/null
require_warm_hits all_figures results/metrics_warm.prom
# A warm rerun of the same sweep executes nothing: a canonical entry the
# decoder rejected would pass the hit-ratio floor, silently recomputed.
executed=$(prom results/metrics_warm.prom sched_jobs_executed)
echo "warm-run executed jobs: ${executed}"
[ "${executed:-missing}" = 0 ] || {
  echo "warm rerun executed ${executed:-missing} jobs, expected 0"; exit 1; }

# The unprimed single-point engine path (docs/PERFORMANCE.md): a
# flagless all_figures installs no scheduler, so every engine run is a
# memo miss through `engine::run_observed`, and each CSV/SVG it writes
# must equal the committed results/ copy to the byte.
# tests/sched_consistency.rs pins only the scheduler path.
echo "==> flagless all_figures lane (committed figures, byte for byte)"
rm -rf ci_figures_results
SYNCPERF_RESULTS=ci_figures_results cargo run --release --offline -p syncperf-bench \
  --bin all_figures > /dev/null
figure_files=0
for f in ci_figures_results/*.csv ci_figures_results/*.svg; do
  [ -e "$f" ] || continue
  cmp "$f" "results/$(basename "$f")" || {
    echo "flagless all_figures diverged from the committed results/$(basename "$f")"; exit 1; }
  figure_files=$((figure_files + 1))
done
echo "flagless all_figures: ${figure_files} CSV/SVG files match results/"
[ "$figure_files" -gt 0 ] || { echo "flagless all_figures wrote no figures"; exit 1; }
rm -rf ci_figures_results

# One sweep per report (EXPERIMENTS.md): a flagless make_report must
# reproduce the committed results/REPORT.md to the byte, and a report
# must submit exactly the jobs of the cold all_figures run above (its
# count is read from that run's exposition, not pinned here). A report that
# submits more regenerates figures twice.
echo "==> make_report lane (committed report, one sweep)"
rm -rf ci_report_results
SYNCPERF_RESULTS=ci_report_results cargo run --release --offline -p syncperf-bench \
  --bin make_report > /dev/null
cmp ci_report_results/REPORT.md results/REPORT.md || {
  echo "flagless make_report diverged from the committed results/REPORT.md"; exit 1; }
rm -rf ci_report_results
SYNCPERF_RESULTS=ci_report_results cargo run --release --offline -p syncperf-bench \
  --bin make_report -- --jobs 2 --no-cache \
  --metrics results/metrics_report.prom > /dev/null
report_jobs=$(prom results/metrics_report.prom sched_jobs)
figure_jobs=$(prom results/metrics_cold.prom sched_jobs)
echo "make_report jobs: ${report_jobs}; cold all_figures jobs: ${figure_jobs}"
[ -n "$report_jobs" ] && [ "$report_jobs" = "$figure_jobs" ] || {
  echo "make_report submitted ${report_jobs:-missing} jobs," \
    "one all_figures sweep ${figure_jobs:-missing}"; exit 1; }
rm -rf ci_report_results

# The same gate over the sensitivity grid: hundreds of perturbed-model
# jobs whose hashes fold in each perturbed model's digest. A warm
# second run under 95% means model-digest hashing went unstable.
echo "==> sensitivity warm-cache gate"
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin sensitivity_analysis -- --jobs 2 \
  --metrics results/metrics_sensitivity_cold.prom > /dev/null
# The grid lowers each distinct job once, and its jobs carry an explicit
# model digest, so they share no hash with the figures cached above: a
# cold run that hits the cache submitted a job twice.
sens_cold_hits=$(prom results/metrics_sensitivity_cold.prom sched_cache_hits)
echo "sensitivity cold-run cache hits: ${sens_cold_hits}"
[ "${sens_cold_hits:-missing}" = 0 ] || {
  echo "sensitivity cold run hit the cache ${sens_cold_hits:-missing} times, expected 0"; exit 1; }
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin sensitivity_analysis -- --jobs 2 \
  --metrics results/metrics_sensitivity_warm.prom > /dev/null
require_warm_hits sensitivity results/metrics_sensitivity_warm.prom

# The same gate over the artifact `launch` sweeps (ROADMAP: warm-cache
# gate breadth), run against the batched plan-table path: the cold run
# takes no --metrics, so no global recorder is installed, and the
# scheduler batch-primes every same-shape sweep group (as it does under
# any recorder). The warm run must then be >=95% cache hits — proving
# the batched path produced and keyed the exact entries the plain path
# would have.
echo "==> launch warm-cache gate (batched cold pass)"
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin launch -- omp_barrier cuda_shfl --yes --jobs 2 > /dev/null
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin launch -- omp_barrier cuda_shfl --yes --jobs 2 \
  --metrics results/metrics_launch_warm.prom > /dev/null
require_warm_hits launch results/metrics_launch_warm.prom

# `explain` reads the same test-code table as `launch`: every code it
# lists must explain cleanly, at the default 16 threads and at 33,
# where System 3's cores are SMT-loaded (tests/plan_costs.rs pins the
# totals to the engines' charges).
echo "==> explain every listed test code"
explain_codes=$(cargo run --release --offline -q -p syncperf-bench --bin explain -- list)
[ "$(printf '%s\n' "$explain_codes" | grep -c .)" = 20 ] || {
  echo "explain list printed $(printf '%s\n' "$explain_codes" | grep -c .) codes, expected 20"; exit 1; }
for code in $explain_codes; do
  for threads in 16 33; do
    cargo run --release --offline -q -p syncperf-bench --bin explain -- "$code" --threads "$threads" \
      > /dev/null || { echo "explain $code --threads $threads failed"; exit 1; }
  done
done

# Serve smoke test (docs/SERVING.md): launch the query service over
# the warm cache the gates above just filled, hit every read endpoint
# plus a 404, prove the answers came from the cache without any
# recomputation (serve_cache_hits > 0, serve_computes == 0 in the
# /metrics exposition), and shut down gracefully over the wire.
echo "==> serve smoke test"
rm -f serve_out.log
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin serve -- --addr 127.0.0.1:0 --jobs 1 > serve_out.log &
serve_pid=$!
addr=$(wait_for_ready serve_out.log 's#^listening on http://##p') \
  || { echo "serve did not come up"; cat serve_out.log; kill "$serve_pid" 2>/dev/null; exit 1; }
echo "serve is up on ${addr}"

curl -fsS "http://${addr}/healthz" > /dev/null
query=$(curl -fsS "http://${addr}/query?kernel=omp_barrier&threads=8")
hash=$(printf '%s' "$query" | sed -n 's/.*"hash": "\([0-9a-f]\{16\}\)".*/\1/p' | head -n 1)
[ -n "$hash" ] || { echo "/query returned no hash: ${query}"; kill "$serve_pid" 2>/dev/null; exit 1; }
curl -fsS "http://${addr}/job/${hash}" > /dev/null
curl -fsS "http://${addr}/figure/fig01" | head -n 1 > /dev/null
curl -fsS "http://${addr}/figure/fig01.svg" > /dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' "http://${addr}/job/0000000000000000")
[ "$code" = "404" ] || { echo "expected 404 for an unknown job, got ${code}"; kill "$serve_pid" 2>/dev/null; exit 1; }

# Telemetry plane (docs/OBSERVABILITY.md): scrape /metrics, read the
# cache counters from it, assert the exposition is well-formed with
# nonzero request counters, tail the flight recorder, and keep both as
# workflow artifacts.
curl -fsS "http://${addr}/metrics" > results/serve_metrics.prom
serve_hits=$(prom results/serve_metrics.prom serve_cache_hits)
serve_computes=$(prom results/serve_metrics.prom serve_computes)
echo "serve cache hits: ${serve_hits:-missing}, computes: ${serve_computes:-missing}"
[ "${serve_hits:-0}" -ge 2 ] || { echo "serve answered without cache hits"; kill "$serve_pid" 2>/dev/null; exit 1; }
[ "${serve_computes:-1}" -eq 0 ] || { echo "serve recomputed a warm entry"; kill "$serve_pid" 2>/dev/null; exit 1; }
grep -q '^# TYPE serve_requests counter$' results/serve_metrics.prom || {
  echo "exposition is missing its TYPE lines"; kill "$serve_pid" 2>/dev/null; exit 1; }
grep -q '^# TYPE serve_latency_us histogram$' results/serve_metrics.prom || {
  echo "exposition is missing the latency histogram"; kill "$serve_pid" 2>/dev/null; exit 1; }
grep -q 'serve_latency_us_bucket{le="+Inf"}' results/serve_metrics.prom || {
  echo "exposition is missing the +Inf bucket"; kill "$serve_pid" 2>/dev/null; exit 1; }
metrics_requests=$(prom results/serve_metrics.prom serve_requests)
[ "${metrics_requests:-0}" -ge 1 ] || {
  echo "serve_requests counter is zero in /metrics"; kill "$serve_pid" 2>/dev/null; exit 1; }
awk '!/^#/ && NF { if ($NF !~ /^[0-9.]+$/) { print "bad sample line: " $0; exit 1 } }' \
  results/serve_metrics.prom || { kill "$serve_pid" 2>/dev/null; exit 1; }
curl -fsS "http://${addr}/events?n=50" > results/serve_events_tail.jsonl
grep -q '"cat":"http"' results/serve_events_tail.jsonl || {
  echo "flight recorder did not record the requests"; kill "$serve_pid" 2>/dev/null; exit 1; }
echo "telemetry snapshot: results/serve_metrics.prom ($(wc -l < results/serve_metrics.prom) lines), flight tail: $(wc -l < results/serve_events_tail.jsonl) events"

curl -fsS -X POST "http://${addr}/shutdown" > /dev/null
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "serve did not shut down gracefully"; kill -9 "$serve_pid"; exit 1
fi
wait "$serve_pid" || { echo "serve exited nonzero"; exit 1; }
grep -q "shut down cleanly" serve_out.log || { echo "serve missed its clean-exit line"; exit 1; }
rm -f serve_out.log
rm -rf ci_sched_results

# Serving load lane (docs/SERVING.md): a real two-replica fleet over
# one shared cache, warmed over HTTP by the harness, then driven by
# `syncperf_load bench --quick --check` and gated against the
# committed BENCH_serve.json baseline. The measured load report and
# the replicas' SIGTERM flight-recorder dumps become workflow
# artifacts.
#
# A replica is one `serve` process. start_serve_fleet starts N of
# them on free loopback ports over one SYNCPERF_RESULTS, waits for
# their ready lines, and fills `fleet_addrs` with their addresses;
# they are killed on exit. The same processes are a dist fleet.
serve_fleet_pids=()
stop_serve_fleet() {
  if [ "${#serve_fleet_pids[@]}" -gt 0 ]; then
    kill "${serve_fleet_pids[@]}" 2>/dev/null || true
    wait "${serve_fleet_pids[@]}" 2>/dev/null || true
  fi
  serve_fleet_pids=()
  rm -f serve_fleet.log
}
start_serve_fleet() { # start_serve_fleet <results dir> <replicas>
  rm -f serve_fleet.log
  trap stop_serve_fleet EXIT
  for _ in $(seq 1 "$2"); do
    SYNCPERF_RESULTS="$1" "${CARGO_TARGET_DIR:-target}/release/serve" \
      --addr 127.0.0.1:0 --jobs 2 >> serve_fleet.log &
    serve_fleet_pids+=("$!")
  done
  local addrs
  addrs=$(wait_for_ready serve_fleet.log 's#^listening on http://##p' "$2") \
    || { echo "replica fleet did not come up"; cat serve_fleet.log; exit 1; }
  fleet_addrs=()
  while IFS= read -r a; do fleet_addrs+=("$a"); done <<< "$addrs"
  echo "replica fleet is up on: ${fleet_addrs[*]}"
}

echo "==> serve load lane (replica pair + syncperf_load --check)"
rm -rf ci_load_results
mkdir -p ci_load_results
start_serve_fleet ci_load_results 2
target_flags=()
for a in "${fleet_addrs[@]}"; do target_flags+=(--target "$a"); done
cargo run --release --offline -p syncperf-bench --bin syncperf_load -- \
  bench --quick --check "${target_flags[@]}" --report results/load_report.json \
  || { echo "load gate failed"; exit 1; }
# SIGTERM each replica: each must exit 0, print its clean-exit line
# and dump its flight recorder to flightrec-<pid>.jsonl.
kill -TERM "${serve_fleet_pids[@]}"
for pid in "${serve_fleet_pids[@]}"; do
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.2
  done
  kill -0 "$pid" 2>/dev/null && { echo "replica ${pid} did not shut down on SIGTERM"; exit 1; }
  wait "$pid" || { echo "replica ${pid} exited nonzero"; cat serve_fleet.log; exit 1; }
  [ -s "ci_load_results/flightrec-${pid}.jsonl" ] \
    || { echo "replica ${pid} left no flight-recorder dump"; exit 1; }
done
clean=$(grep -c "shut down cleanly" serve_fleet.log || true)
[ "$clean" -eq "${#serve_fleet_pids[@]}" ] \
  || { echo "${clean} of ${#serve_fleet_pids[@]} replicas printed their clean-exit line"; cat serve_fleet.log; exit 1; }
serve_fleet_pids=()
# Keep the dumps (and the load report above) as workflow artifacts.
# Dumps left in results/ by earlier runs go first, so the count below
# is this run's dumps alone.
rm -f results/flightrec-*.jsonl
cp ci_load_results/flightrec-*.jsonl results/
echo "load lane artifacts: results/load_report.json + $(ls results/flightrec-*.jsonl | wc -l) flight dump(s)"
rm -f serve_fleet.log
rm -rf ci_load_results

# Distributed execution lane (docs/DISTRIBUTED.md): a cold run over a
# fleet of 3 serve replicas, and a cold run that severs one replica's
# connection mid-sweep, must both produce byte-identical figures to a
# serial `--jobs 3` run. The cache trees are excluded from the diff
# (same entries, but the severed connection can orphan an in-flight
# store); everything the figures are built from must match to the
# byte. Each lane starts its own 3 replicas (start_serve_fleet) over
# a results dir of its own, so both lanes run cold.
connect_fleet() { # connect_fleet <results dir>: start 3 replicas, fill connect_flags
  start_serve_fleet "$1" 3
  connect_flags=()
  for a in "${fleet_addrs[@]}"; do connect_flags+=(--connect "$a"); done
}

echo "==> distributed execution lane"
rm -rf ci_dist_serial ci_dist_workers ci_dist_chaos ci_dist_replicas ci_dist_chaos_replicas \
  dist_out.log dist_chaos_out.log
SYNCPERF_RESULTS=ci_dist_serial cargo run --release --offline -p syncperf-bench \
  --bin all_figures -- --jobs 3 > /dev/null
connect_fleet ci_dist_replicas
SYNCPERF_RESULTS=ci_dist_workers cargo run --release --offline -p syncperf-bench \
  --bin all_figures -- "${connect_flags[@]}" \
  --metrics results/metrics_dist.prom > dist_out.log
grep '^dist:' dist_out.log || { echo "coordinator summary line missing"; cat dist_out.log; exit 1; }
diff -r -x .cache ci_dist_serial ci_dist_workers \
  || { echo "3-replica output diverged from serial"; exit 1; }
dist_workers=$(prom results/metrics_dist.prom dist_workers)
[ "${dist_workers:-0}" -eq 3 ] || { echo "the exposition did not record the fleet"; exit 1; }
# Replicas prime what they receive (docs/DISTRIBUTED.md): each counts
# its priming in its own /metrics, and zero over the whole fleet means
# the replicas stopped batch-priming their shards.
replica_primed=0
for a in "${fleet_addrs[@]}"; do
  n=$(prom <(curl -fsS "http://${a}/metrics") sched_plan_primed_jobs)
  replica_primed=$((replica_primed + ${n:-0}))
done
echo "distributed run replica-primed jobs: ${replica_primed}"
[ "$replica_primed" -gt 0 ] || {
  echo "dist replicas primed nothing (summed sched_plan_primed_jobs=${replica_primed})"; exit 1; }
# The coordinator primes what it runs itself (docs/DISTRIBUTED.md):
# zero means its local path stopped batch-priming same-shape work.
coord_primed=$(prom results/metrics_dist.prom dist_coordinator_primed_jobs)
echo "distributed run coordinator-primed jobs: ${coord_primed}"
[ "${coord_primed:-0}" -gt 0 ] || {
  echo "dist coordinator primed nothing (dist_coordinator_primed_jobs=${coord_primed:-missing})"; exit 1; }
stop_serve_fleet

echo "==> distributed chaos lane (sever one replica's connection mid-sweep)"
connect_fleet ci_dist_chaos_replicas
SYNCPERF_RESULTS=ci_dist_chaos cargo run --release --offline -p syncperf-bench \
  --bin all_figures -- "${connect_flags[@]}" --chaos-kill-one 25 \
  --metrics results/metrics_dist_chaos.prom > dist_chaos_out.log
grep '^dist:' dist_chaos_out.log || { echo "chaos summary line missing"; cat dist_chaos_out.log; exit 1; }
diff -r -x .cache ci_dist_serial ci_dist_chaos \
  || { echo "chaos output diverged from serial"; exit 1; }
deaths=$(prom results/metrics_dist_chaos.prom dist_worker_deaths)
[ "${deaths:-0}" -ge 1 ] || { echo "chaos hook did not sever a replica"; exit 1; }
echo "chaos run converged with ${deaths} replica death(s)"
# A severed connection is not a killed replica: every one still answers.
for a in "${fleet_addrs[@]}"; do
  curl -fsS "http://${a}/healthz" > /dev/null \
    || { echo "replica ${a} died with its connection"; exit 1; }
done
stop_serve_fleet
rm -f dist_out.log dist_chaos_out.log
rm -rf ci_dist_serial ci_dist_workers ci_dist_chaos ci_dist_replicas ci_dist_chaos_replicas

echo "CI green"
