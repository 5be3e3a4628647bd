#!/usr/bin/env bash
# CI gate: formatting, vet, build, race-enabled tests, smokes, the
# end-to-end benchmark's deterministic pins, then the micro-benchmarks
# recorded to BENCH_*.json. The race detector is the correctness gate for
# the concurrent pipeline.
#
# Usage: scripts/ci.sh [--no-bench]
#   BENCHTIME overrides the benchmark duration (default 3x iterations).
#   FUZZTIME overrides the fuzz smoke duration (default 10s).
set -euo pipefail
cd "$(dirname "$0")/.."

# Every step writes its temporary files under one directory, removed on exit.
ci_tmp=$(mktemp -d)
trap 'rm -rf "$ci_tmp"' EXIT

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
# plus the three dataflow ones (alloc, locksafety, errhygiene —
# DESIGN.md §15). The baseline makes CI fail on NEW
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

# The workload loader parses a log on the worker pool (DESIGN.md §19);
# repeat its serial-reference oracle under -race so scheduling varies.
# Under -race the oracle uses small logs, so this takes seconds.
echo "== loader race test =="
go test -race -count=10 -run 'TestLoadMatchesSerialReference' ./internal/workload

echo "== telemetry smoke run =="
metrics_out="$ci_tmp/metrics.json"
# -cons exercises the hash-consed path so its counters
# (workload/templates/*) appear in the export.
go run ./cmd/isum -benchmark tpch -n 60 -k 8 -cons -trace -metrics-out "$metrics_out" >/dev/null
# -names-from closes the code/export loop: every literal metric name
# registered by internal/cost must actually appear in the smoke export.
go run ./scripts/metricscheck \
    -require cost/whatif/calls \
    -require core/greedy/rounds \
    -require core/greedy/exact_benefits \
    -require core/greedy/touched \
    -require workload/templates/consed \
    -require workload/templates/deduped \
    -names-from internal/cost \
    "$metrics_out"

echo "== failure-model smoke =="
fm_dir="$ci_tmp/fm"
mkdir "$fm_dir"
go build -o "$fm_dir/" ./cmd/isum ./cmd/tune

# Anytime partials: an unmeetable deadline exits with the partial code (3).
rc=0
"$fm_dir/isum" -benchmark tpch -n 100 -k 10 -timeout 1ns >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "expected partial exit code 3 under -timeout 1ns, got $rc" >&2
    exit 1
fi

echo "== what-if elision smoke =="
# Elision telemetry end to end (DESIGN.md §16): both cost/elide/*
# counters must report positive values from a real tune. The workload is
# duplicate-heavy — the same two statements repeated 60 times — so the
# atomic-cost memo answers most probes (cost/elide/hits), and the bounds
# prune candidates before any costing (cost/elide/bound_prunes); at
# -parallelism 4 workers cost the same texts concurrently.
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
    -parallelism 4 \
    -metrics-out "$fm_dir/elide_metrics.json" >/dev/null
go run ./scripts/metricscheck \
    -require cost/elide/hits \
    -require cost/elide/bound_prunes \
    "$fm_dir/elide_metrics.json"

echo "== fuzz smoke =="
go test -fuzz 'FuzzSplitStatements' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/workload
go test -fuzz 'FuzzLoadTemplates' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/workload
go test -fuzz 'FuzzParse' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/sqlparser
go test -fuzz 'FuzzSparseVecOps' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/features
go test -fuzz 'FuzzSummaryBound' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/features
go test -fuzz 'FuzzCostBounds' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/cost
go test -fuzz 'FuzzCompiledPlan' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/cost
go test -fuzz 'FuzzSkippedUpdateIsNoop' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/core
go test -fuzz 'FuzzCompressMetamorphic' -fuzztime "${FUZZTIME:-10s}" -run '^$' ./internal/core

echo "== end-to-end benchmark pins =="
# e2ebench is a module of its own, so `go test ./...` skips it: run its
# smoke test, then one short seed-1 run per workload. The selections are
# deterministic, so the digest of every recommendation and the mean
# what-if call count must equal the pins exactly; times are not gated. A
# change that moves a pin on purpose updates it here and says why.
(cd e2ebench && go test .)
e2e_pin() {
    local workload=$1 want_digest=$2 want_calls=$3 out digest calls
    out=$(bash e2ebench/run.sh -workload "$workload" -seed 1 -seconds 1 -trace 0)
    digest=$(awk '$1 == "digest:" { print $2 }' <<<"$out")
    calls=$(awk '$1 == "whatif_calls" { print $2 }' <<<"$out")
    if [ "$digest" != "$want_digest" ] || [ "$calls" != "$want_calls" ]; then
        echo "$workload: digest $digest whatif_calls $calls, want $want_digest $want_calls" >&2
        exit 1
    fi
    echo "$workload: digest $digest whatif_calls $calls"
}
e2e_pin tpch-2200 ceeb5400778e82e9 40525.125000
e2e_pin scalem-10k 345856537ec4f6e5 4249.500000
e2e_pin tpcds-fig3-full 80b5ebbe30bb9f55 34250.812500

if [ "${1:-}" = "--no-bench" ]; then
    echo "CI OK (benchmarks skipped)"
    exit 0
fi

echo "== lint benchmark =="
# Analyzer wall time over the whole module (load + type-check + all eight
# analyzers, cold per iteration). Single-threaded by nature, so it runs
# before the multi-core gate below.
lint_out="$ci_tmp/lint.txt"
go test -bench '^BenchmarkLintModule$' -benchmem \
    -benchtime "${LINT_BENCHTIME:-1x}" -run '^$' ./internal/analysis | tee "$lint_out"
go run ./scripts/benchjson <"$lint_out" >BENCH_lint.json
echo "wrote BENCH_lint.json"

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
bench_out="$ci_tmp/bench.txt"
go test -bench '^(BenchmarkCompress|BenchmarkTune)$' -benchmem \
    -benchtime "${BENCHTIME:-3x}" -run '^$' . | tee "$bench_out"
go run ./scripts/benchjson <"$bench_out" >BENCH_parallel.json
echo "wrote BENCH_parallel.json"

echo "== hash-consing benchmark =="
# One iteration by default: the cons=off baseline runs the greedy loop
# over all 10^5 per-query states and takes tens of seconds per op.
cons_out="$ci_tmp/cons.txt"
go test -bench '^BenchmarkCompressConsed$' -benchmem \
    -benchtime "${CONS_BENCHTIME:-1x}" -run '^$' -timeout 30m . | tee "$cons_out"
go run ./scripts/benchjson <"$cons_out" >BENCH_cons.json
echo "wrote BENCH_cons.json"

echo "== vector benchmarks =="
vec_out="$ci_tmp/vec.txt"
go test -bench '^(BenchmarkJaccard|BenchmarkSummaryDelta)$' -benchmem \
    -benchtime "${BENCHTIME:-3x}" -run '^$' \
    ./internal/features ./internal/core | tee "$vec_out"
go run ./scripts/benchjson <"$vec_out" >BENCH_vectors.json
echo "wrote BENCH_vectors.json"

echo "CI OK"
