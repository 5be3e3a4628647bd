#!/usr/bin/env bash
# CI gate: formatting, vet, build, race-enabled tests, then the
# serial-vs-parallel benchmark pair recorded to BENCH_parallel.json
# (plus the elide=off/elide=on pair recorded to BENCH_whatif.json).
# The race detector is the correctness gate for the concurrent pipeline.
#
# Usage: scripts/ci.sh [--no-bench]
#   BENCHTIME overrides the benchmark duration (default 3x iterations).
#   WHATIF_BENCHTIME overrides the elision benchmark duration (default 1x).
#   FUZZTIME overrides the fuzz smoke duration (default 10s).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "files need gofmt:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

# Project-specific invariants beyond what vet knows: the five syntactic
# analyzers (determinism, ctx hygiene, concurrency, telemetry, anytime)
# plus the four dataflow ones (alloc, durability, locksafety,
# errhygiene — DESIGN.md §15). The baseline makes CI fail on NEW
# findings only — and on baselined findings that disappeared, so the
# file tracks reality (regenerate with -write-baseline). lint.sarif is
# the machine-readable artifact for CI annotation. The second run fails
# on stale //lint:allow directives; they are never baseline-eligible,
# so the escape hatch cannot rot silently.
echo "== isumlint =="
go run ./cmd/isumlint -baseline .lintbaseline -sarif lint.sarif ./...
go run ./cmd/isumlint -prune-allows ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

# The registry is hammered from the worker pool in production; run its
# concurrency test explicitly so a future -race exclusion of ./... can't
# silently drop it.
echo "== telemetry race test =="
go test -race -run 'TestRegistryUnderForEach' ./internal/telemetry

echo "== telemetry smoke run =="
metrics_out=$(mktemp)
trap 'rm -f "$metrics_out"' EXIT
# -cons exercises the hash-consed path so its counters
# (workload/templates/*) appear in the export.
go run ./cmd/isum -benchmark tpch -n 60 -k 8 -cons -trace -metrics-out "$metrics_out" >/dev/null
# -names-from closes the code/export loop: every literal metric name
# registered by internal/cost must actually appear in the smoke export.
go run ./scripts/metricscheck \
    -require cost/whatif/calls \
    -require core/greedy/rounds \
    -require core/greedy/exact_benefits \
    -require workload/templates/consed \
    -require workload/templates/deduped \
    -names-from internal/cost \
    "$metrics_out"

echo "== debug-server smoke =="
# Live observability plane (DESIGN.md §13): start a hash-consed
# compression with -debug-addr on a kernel-chosen port, recover the
# address from the "debug server listening" log line, scrape /healthz
# and /metrics mid-run, validate the exposition with metricscheck, and
# assert the process still exits cleanly afterwards.
dbg_dir=$(mktemp -d)
trap 'rm -rf "$dbg_dir"; rm -f "$metrics_out"' EXIT
go build -o "$dbg_dir/" ./cmd/isum ./scripts/metricscheck
"$dbg_dir/isum" -benchmark scalem -n 20000 -k 12 -cons \
    -debug-addr 127.0.0.1:0 -progress \
    >/dev/null 2>"$dbg_dir/stderr.log" &
dbg_pid=$!
dbg_addr=""
for _ in $(seq 1 100); do
    dbg_addr=$(sed -n 's/.*msg="debug server listening" addr=\([0-9.:]*\).*/\1/p' "$dbg_dir/stderr.log" | head -n1)
    [ -n "$dbg_addr" ] && break
    kill -0 "$dbg_pid" 2>/dev/null || { echo "isum exited before the debug server came up" >&2; cat "$dbg_dir/stderr.log" >&2; exit 1; }
    sleep 0.1
done
if [ -z "$dbg_addr" ]; then
    echo "never saw the debug-server listen line" >&2; cat "$dbg_dir/stderr.log" >&2; exit 1
fi
# Mid-run scrapes race the pipeline: a counter registers on first use, so
# retry until the required families have appeared (or the run ends, in
# which case the loop fails fast and we report the last error).
scrape_ok=""
for _ in $(seq 1 200); do
    if "$dbg_dir/metricscheck" \
        -healthz "http://$dbg_addr/healthz" \
        -scrape "http://$dbg_addr/metrics" \
        -require cost/whatif/calls \
        >/dev/null 2>"$dbg_dir/scrape.err"; then
        scrape_ok=1
        break
    fi
    kill -0 "$dbg_pid" 2>/dev/null || break
    sleep 0.05
done
if [ -z "$scrape_ok" ]; then
    echo "mid-run scrape never passed metricscheck:" >&2
    cat "$dbg_dir/scrape.err" >&2
    exit 1
fi
wait "$dbg_pid" || { rc=$?; echo "isum exited $rc under the debug server" >&2; cat "$dbg_dir/stderr.log" >&2; exit "$rc"; }
grep -q 'msg=progress' "$dbg_dir/stderr.log" || {
    echo "-progress produced no progress lines" >&2; cat "$dbg_dir/stderr.log" >&2; exit 1
}

echo "== failure-model smoke =="
fm_dir=$(mktemp -d)
trap 'rm -rf "$fm_dir" "$dbg_dir"; rm -f "$metrics_out"' EXIT
go build -o "$fm_dir/" ./cmd/isum ./cmd/tune

# Chaos determinism (DESIGN.md §9): a seeded fault-injected run with
# enough retries must produce output byte-identical to the fault-free run.
"$fm_dir/isum" -benchmark tpch -n 100 -k 10 -out "$fm_dir/plain.json" >/dev/null
"$fm_dir/isum" -benchmark tpch -n 100 -k 10 \
    -retries 5 -chaos 'seed=42,errors=0.3' -out "$fm_dir/chaos.json" >/dev/null
cmp "$fm_dir/plain.json" "$fm_dir/chaos.json"

# Anytime partials: an unmeetable deadline exits with the partial code (3).
rc=0
"$fm_dir/isum" -benchmark tpch -n 100 -k 10 -timeout 1ns >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "expected partial exit code 3 under -timeout 1ns, got $rc" >&2
    exit 1
fi

# Tuning under chaos: the recommendation must match the fault-free run
# exactly; only the elapsed-time figure may differ.
strip_elapsed() { sed -E 's/ in [0-9.]+(ns|us|µs|ms|s|m)+ / /'; }
"$fm_dir/tune" -benchmark tpch -in "$fm_dir/plain.json" -max-indexes 5 \
    | strip_elapsed >"$fm_dir/tune_plain.txt"
"$fm_dir/tune" -benchmark tpch -in "$fm_dir/plain.json" -max-indexes 5 \
    -retries 6 -chaos 'seed=7,errors=0.1' \
    | strip_elapsed >"$fm_dir/tune_chaos.txt"
cmp "$fm_dir/tune_plain.txt" "$fm_dir/tune_chaos.txt"

echo "== what-if elision smoke =="
# Elision telemetry end to end (DESIGN.md §16): all three cost/elide/*
# counters must report positive values from a real tune. A duplicate-heavy
# workload — the same two statements repeated 60 times — tuned at
# -parallelism 4 forces concurrent identical plan computations, and the
# injected what-if latency keeps each computation in flight long enough
# for its duplicates to pile onto the singleflight (without it a
# single-core runner finishes each plan before the next duplicate
# starts, and the waits counter legitimately reads zero).
{
    echo '['
    for _ in $(seq 1 60); do
        echo '  {"sql": "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_shipdate >= '\''1995-03-01'\'' AND l_quantity < 24", "cost": 1},'
        echo '  {"sql": "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderdate >= '\''1995-03-01'\'' AND o_totalprice > 1000", "cost": 1},'
    done
    echo '  {"sql": "SELECT c_custkey FROM customer WHERE c_acctbal > 100", "cost": 1}'
    echo ']'
} >"$fm_dir/dup.json"
"$fm_dir/tune" -benchmark tpch -in "$fm_dir/dup.json" -max-indexes 2 \
    -parallelism 4 -chaos 'seed=1,latency=1,delay=200us' \
    -metrics-out "$fm_dir/elide_metrics.json" >/dev/null
go run ./scripts/metricscheck \
    -require cost/elide/hits \
    -require cost/elide/bound_prunes \
    -require cost/elide/singleflight_waits \
    "$fm_dir/elide_metrics.json"

echo "== durability smoke =="
# Crash recovery end to end (DESIGN.md §14). Baseline: an uninterrupted
# durable session, with its metrics export validated against every
# literal durable/* name in the code.
du_dir=$(mktemp -d)
trap 'rm -rf "$du_dir" "$fm_dir" "$dbg_dir"; rm -f "$metrics_out"' EXIT
go build -o "$du_dir/" ./cmd/isum ./cmd/inspect ./scripts/metricscheck
"$du_dir/isum" -benchmark tpch -n 473 -k 8 -wal-dir "$du_dir/wA" -snapshot-every 3 \
    -metrics-out "$du_dir/durable_metrics.json" -out "$du_dir/a.json" >/dev/null 2>&1
"$du_dir/metricscheck" \
    -require durable/wal/appended \
    -require durable/snapshot/written \
    -names-from internal/durable \
    "$du_dir/durable_metrics.json"

# Real SIGKILL against a second session. Wherever the kill lands (mid-run
# or after completion), the recovery report must be clean and
# deterministic — two inspect runs print byte-identical reports — and a
# restart with the same -wal-dir resumes after the recovered prefix and
# converges on the baseline output.
"$du_dir/isum" -benchmark tpch -n 473 -k 8 -wal-dir "$du_dir/wB" -snapshot-every 3 \
    -out "$du_dir/b_partial.json" >/dev/null 2>&1 &
du_pid=$!
sleep 0.15
kill -9 "$du_pid" 2>/dev/null || true
wait "$du_pid" 2>/dev/null || true
"$du_dir/inspect" -benchmark tpch -k 8 -wal-dir "$du_dir/wB" 2>/dev/null >"$du_dir/rep1.txt"
"$du_dir/inspect" -benchmark tpch -k 8 -wal-dir "$du_dir/wB" 2>/dev/null >"$du_dir/rep2.txt"
cmp "$du_dir/rep1.txt" "$du_dir/rep2.txt"
grep -q 'recovered state' "$du_dir/rep1.txt"
"$du_dir/isum" -benchmark tpch -n 473 -k 8 -wal-dir "$du_dir/wB" -snapshot-every 3 \
    -out "$du_dir/b.json" >/dev/null 2>&1
cmp "$du_dir/a.json" "$du_dir/b.json"

# Deterministic torn tail: with snapshots off the whole session lives in
# the WAL; truncating the segment mid-record forces recovery to detect
# the torn record by checksum, skip it, replay the good prefix, and
# repair the tail on the next open — which then converges again.
"$du_dir/isum" -benchmark tpch -n 473 -k 8 -wal-dir "$du_dir/wC" -snapshot-every 0 \
    -out /dev/null >/dev/null 2>&1
seg=$(ls "$du_dir/wC"/wal-*.log | sort | tail -n1)
truncate -s $(($(wc -c <"$seg") - 7)) "$seg"
"$du_dir/inspect" -benchmark tpch -k 8 -wal-dir "$du_dir/wC" 2>/dev/null >"$du_dir/rep3.txt"
grep -q '1 corrupt skipped' "$du_dir/rep3.txt"
"$du_dir/isum" -benchmark tpch -n 473 -k 8 -wal-dir "$du_dir/wC" -snapshot-every 3 \
    -out "$du_dir/c.json" >/dev/null 2>&1
cmp "$du_dir/a.json" "$du_dir/c.json"

echo "== fuzz smoke =="
go test -fuzz 'FuzzSplitStatements' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/workload
go test -fuzz 'FuzzParse' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/sqlparser
go test -fuzz 'FuzzSparseVecOps' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/features
go test -fuzz 'FuzzSummaryBound' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/features
go test -fuzz 'FuzzCostBounds' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/cost
go test -fuzz 'FuzzCompiledPlan' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/cost
go test -fuzz 'FuzzWALReplay' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/durable
go test -fuzz 'FuzzSnapshotDecode' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/durable

if [ "${1:-}" = "--no-bench" ]; then
    echo "CI OK (benchmarks skipped)"
    exit 0
fi

echo "== lint benchmark =="
# Analyzer wall time over the whole module (load + type-check + all nine
# analyzers, cold per iteration). Single-threaded by nature, so it runs
# before the multi-core gate below.
lint_out=$(mktemp)
trap 'rm -f "$lint_out" "$metrics_out"; rm -rf "$fm_dir" "$dbg_dir" "$du_dir"' EXIT
go test -bench '^BenchmarkLintModule$' -benchmem \
    -benchtime "${LINT_BENCHTIME:-1x}" -run '^$' ./internal/analysis | tee "$lint_out"
go run ./scripts/benchjson <"$lint_out" >BENCH_lint.json
echo "wrote BENCH_lint.json"

echo "== what-if elision benchmark =="
# The elide=off/elide=on pair runs the advisor at Parallelism 1 on
# fresh optimizers, so the recorded call_reductions figure (fraction of
# what-if optimizer calls elision avoids; target >= 0.30) is meaningful
# on any runner and records before the multi-core gate below.
whatif_out=$(mktemp)
trap 'rm -f "$whatif_out" "$lint_out" "$metrics_out"; rm -rf "$fm_dir" "$dbg_dir" "$du_dir"' EXIT
go test -bench '^BenchmarkTuneElided$' -benchmem \
    -benchtime "${WHATIF_BENCHTIME:-1x}" -run '^$' . | tee "$whatif_out"
go run ./scripts/benchjson <"$whatif_out" >BENCH_whatif.json
echo "wrote BENCH_whatif.json"

# The recorded parallel numbers are only meaningful on a multi-core
# runner: at GOMAXPROCS=1 every parallelism=max variant silently
# degenerates to the serial path and the speedup figures
# read ~1.0x. Refuse to record that unless explicitly overridden (set
# ALLOW_SINGLE_CORE_BENCH=1 to record single-core numbers; benchjson
# stamps the report's gomaxprocs and note so they cannot be mistaken for
# multi-core results).
maxprocs=$(go run ./scripts/printmaxprocs)
if [ "$maxprocs" -lt 2 ] && [ -z "${ALLOW_SINGLE_CORE_BENCH:-}" ]; then
    echo "benchmark step requires GOMAXPROCS >= 2 (got $maxprocs);" >&2
    echo "set ALLOW_SINGLE_CORE_BENCH=1 to record single-core numbers anyway" >&2
    exit 1
fi

echo "== parallel benchmarks =="
bench_out=$(mktemp)
trap 'rm -f "$bench_out" "$whatif_out" "$lint_out" "$metrics_out"; rm -rf "$fm_dir" "$dbg_dir" "$du_dir"' EXIT
go test -bench '^(BenchmarkCompress|BenchmarkTune)$' -benchmem \
    -benchtime "${BENCHTIME:-3x}" -run '^$' . | tee "$bench_out"
go run ./scripts/benchjson <"$bench_out" >BENCH_parallel.json
echo "wrote BENCH_parallel.json"

echo "== hash-consing benchmark =="
# One iteration by default: the cons=off baseline runs the greedy loop
# over all 10^5 per-query states and takes tens of seconds per op.
cons_out=$(mktemp)
trap 'rm -f "$bench_out" "$cons_out" "$whatif_out" "$lint_out" "$metrics_out"; rm -rf "$fm_dir" "$dbg_dir" "$du_dir"' EXIT
go test -bench '^BenchmarkCompressConsed$' -benchmem \
    -benchtime "${CONS_BENCHTIME:-1x}" -run '^$' -timeout 30m . | tee "$cons_out"
go run ./scripts/benchjson <"$cons_out" >BENCH_cons.json
echo "wrote BENCH_cons.json"

echo "== vector benchmarks =="
vec_out=$(mktemp)
trap 'rm -f "$bench_out" "$cons_out" "$vec_out" "$whatif_out" "$lint_out" "$metrics_out"; rm -rf "$fm_dir" "$dbg_dir" "$du_dir"' EXIT
go test -bench '^(BenchmarkJaccard|BenchmarkSummaryDelta)$' -benchmem \
    -benchtime "${BENCHTIME:-3x}" -run '^$' \
    ./internal/features ./internal/core | tee "$vec_out"
go run ./scripts/benchjson <"$vec_out" >BENCH_vectors.json
echo "wrote BENCH_vectors.json"

echo "CI OK"
