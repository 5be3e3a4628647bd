package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"isum/internal/index"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the pipeline sees, reported with
// tracing off. BENCHMARK.json gives their direction and bound.
var endToEnd = []metricDef{
	{"recommend_s", "s"},
	{"improvement_pct", "%"},
	{"whatif_calls", "count"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. README.md lists the end-to-end
// metric and workload each should move.
var perLayer = []metricDef{
	{"workload.load_s", "s"},
	{"workload.load_alloc_mb", "MB"},
	{"workload.queries", "count"},
	{"workload.templates", "count"},
	{"workload.log_bytes", "bytes"},
	{"core.compress_s", "s"},
	{"core.compress_alloc_mb", "MB"},
	{"core.rounds", "count"},
	{"core.build_states_s", "s"},
	{"core.feature_nnz", "count"},
	{"core.greedy_weigh_s", "s"},
	{"advisor.tune_s", "s"},
	{"advisor.tune_alloc_mb", "MB"},
	{"advisor.configs_explored", "count"},
	{"advisor.rounds", "count"},
	{"advisor.indexes", "count"},
	{"cost.calls", "count"},
	{"cost.plans", "count"},
	{"cost.cache_hits", "count"},
	{"cost.busy_s", "s"},
	{"cost.elided", "count"},
	{"cost.bound_prunes", "count"},
	{"cost.singleflight_waits", "count"},
	{"cost.elide_ratio", "ratio"},
	{"cost.plan_us", "us"},
	{"eval.s", "s"},
	{"eval.calls", "count"},
	{"proc.gc_cycles", "count"},
	{"proc.peak_rss_mb", "MB"},
	{"trace.overhead_s", "s"},
}

// runConfig is one invocation of the benchmark.
type runConfig struct {
	spec   spec
	seed   int64
	window time.Duration // measured window
	trace  bool
	// parallelism bounds the pipeline's workers; 0 (GOMAXPROCS) is what
	// users get. Tests set 1 to compare against the serial path.
	parallelism int
	spansTo     string // traced run's span file; empty: not written
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's result plus the digest of its outputs: one hash over
// each log's selected queries, weight bits and recommended indexes.
type report struct {
	result result
	digest string
}

// samples holds a run's measurements: per metric, per log, one value per
// execution.
type samples map[string][][]float64

func (s samples) add(name string, log, logs int, v float64) {
	if s[name] == nil {
		s[name] = make([][]float64, logs)
	}
	s[name][log] = append(s[name][log], v)
}

// value is the mean over logs of each log's median: medians keep one slow
// execution from moving the figure, and the mean weighs every log alike.
// Counts and per-layer figures use it.
func (s samples) value(name string) (float64, bool) {
	var sum float64
	n := 0
	for _, vs := range s[name] {
		if len(vs) > 0 {
			sum += median(vs)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// all returns every sample of a metric, across logs.
func (s samples) all(name string) []float64 {
	var xs []float64
	for _, vs := range s[name] {
		xs = append(xs, vs...)
	}
	return xs
}

// pooled is the median of every sample of a metric, across logs; the
// end-to-end time uses it. A run cycles through its logs, so each log
// weighs alike. A log gets only one to three timed executions in a run,
// so a mean of per-log medians would move with every execution the host
// slowed (stolen CPU, busy neighbours); a median over the whole run moves
// only when most of the run was slowed.
func (s samples) pooled(name string) (float64, bool) {
	xs := s.all(name)
	if len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// bench is the state of one run.
type bench struct {
	rc        runConfig
	logs      []*queryLog
	tr        *tracer // nil unless tracing
	s         samples
	out       io.Writer
	attempted int
	failed    int
	// The first successful execution of each log fixes its digest,
	// recommendation and what-if call count; every later one must match.
	digests []string
	configs []*index.Configuration
	calls   []int64
}

func (b *bench) fail(log int, err error) {
	b.failed++
	fmt.Fprintf(os.Stderr, "e2ebench: %s log %d: %v\n", b.rc.spec.name, log, err)
}

// execute runs the pipeline once on log j and checks its output. It
// returns the wall time from log bytes to recommendation, the bytes
// allocated meanwhile, and whether the output passed every check.
func (b *bench) execute(ctx context.Context, j int, traced bool) (time.Duration, uint64, bool) {
	var tr *tracer
	if traced {
		tr = b.tr
		tr.startExec(j)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //lint:allow determinism benchmark timing; outputs are checked by digest, never by the clock
	rec, err := recommend(ctx, b.logs[j], b.rc.spec.k, b.rc.parallelism, tr)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	b.attempted++
	if err == nil && b.digests[j] == "" {
		b.digests[j], b.configs[j], b.calls[j] = rec.digest, rec.config, rec.calls
	}
	switch {
	case err != nil:
	case rec.digest != b.digests[j]:
		err = fmt.Errorf("output digest %s differs from the log's first execution (%s)", rec.digest, b.digests[j])
	case rec.calls != b.calls[j]:
		err = fmt.Errorf("%d what-if calls, the log's first execution made %d", rec.calls, b.calls[j])
	}
	if err != nil {
		b.fail(j, err)
		return 0, 0, false
	}
	return took, after.TotalAlloc - before.TotalAlloc, true
}

// run sets up the workload's logs, measures executions for the window,
// evaluates the recommendations, and returns the checked result. Human-
// readable lines go to out.
func run(ctx context.Context, rc runConfig, out io.Writer) (*report, error) {
	sp := rc.spec
	logs := make([]*queryLog, sp.logs)
	setups := make([]float64, sp.logs)
	for j := range logs {
		lg, took, err := setUp(ctx, sp, rc.seed+int64(j)*logSeedStride)
		if err != nil {
			return nil, fmt.Errorf("set-up of log %d: %w", j, err)
		}
		logs[j], setups[j] = lg, took.Seconds()
	}
	b := &bench{
		rc: rc, logs: logs, s: samples{}, out: out,
		digests: make([]string, len(logs)),
		configs: make([]*index.Configuration, len(logs)),
		calls:   make([]int64, len(logs)),
	}
	if rc.trace {
		b.tr = newTracer()
	}
	printProperties(out, rc, logs)

	// One untimed execution first, so that no timed one pays the process's
	// cold start (heap growth, first-touch page faults).
	b.execute(ctx, 0, false)
	measured := time.Now() //lint:allow determinism the measured window is wall-clock by definition
	for i := 0; i < len(logs) || time.Since(measured) < rc.window; i++ {
		j := i % len(logs)
		if !rc.trace {
			if took, alloc, ok := b.execute(ctx, j, false); ok {
				b.s.add("recommend_s", j, len(logs), took.Seconds())
				b.s.add("alloc_mb", j, len(logs), float64(alloc)/1e6)
			}
			continue
		}
		// Pair each traced execution with an untraced one of the same log,
		// alternating which goes first; their difference is the tracing
		// overhead.
		tracedFirst := (i/len(logs))%2 == 1
		for _, traced := range []bool{tracedFirst, !tracedFirst} {
			if took, _, ok := b.execute(ctx, j, traced); ok {
				name := "recommend_s"
				if traced {
					name = "trace.recommend_s"
				}
				b.s.add(name, j, len(logs), took.Seconds())
			}
		}
	}
	for j, lg := range logs {
		if b.configs[j] == nil {
			continue // every execution of this log failed
		}
		b.s.add("whatif_calls", j, len(logs), float64(b.calls[j]))
		b.tr.startExec(j)
		b.attempted++
		pct, err := evaluate(ctx, lg, b.configs[j], rc.parallelism, b.tr)
		if err != nil {
			b.fail(j, err)
			continue
		}
		b.s.add("improvement_pct", j, len(logs), pct)
	}
	if rc.trace && sp.k > 0 {
		for j, lg := range logs {
			b.tr.startExec(j)
			b.attempted++
			if err := buildStates(ctx, lg, rc.parallelism, b.tr); err != nil {
				b.fail(j, err)
			}
		}
	}
	if rc.trace && sp.compareK > 0 {
		b.printHeadline(ctx)
	}

	h := sha256.New()
	for j, d := range b.digests {
		fmt.Fprintf(out, "log %d: seed=%d templates=%d log_bytes=%d digest=%s whatif_calls=%d\n",
			j, logs[j].seed, logs[j].templates, len(logs[j].data), d, b.calls[j])
		h.Write([]byte(d))
	}
	rep := &report{
		result: result{
			Correct:   b.failed == 0,
			Attempted: b.attempted,
			Failed:    b.failed,
			Metrics:   map[string]metric{},
		},
		digest: hex.EncodeToString(h.Sum(nil)[:8]),
	}
	fmt.Fprintf(out, "digest: %s (%d checked operations, %d failed)\n", rep.digest, b.attempted, b.failed)

	if all := b.s.all("recommend_s"); len(all) > 0 {
		sort.Float64s(all)
		fmt.Fprintf(out, "recommend_s samples: n=%d min=%.4f median=%.4f max=%.4f s\n",
			len(all), all[0], median(all), all[len(all)-1])
	}
	values, err := b.metrics(setups)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
		if rc.spansTo != "" {
			if err := b.tr.write(rc.spansTo); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.result.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprint(out, metricLine(d.name, v, d.unit))
	}
	return rep, nil
}

// metricLine is the human-readable line reporting one metric.
func metricLine(name string, v float64, unit string) string {
	return fmt.Sprintf("%-28s %16.6f %s\n", name, v, unit)
}

// printProperties prints the properties the workload's behaviour depends
// on: size, template count and duplication, log bytes, k, seed, and the
// machine the run measures.
func printProperties(out io.Writer, rc runConfig, logs []*queryLog) {
	var templates, bytes float64
	for _, lg := range logs {
		templates += float64(lg.templates)
		bytes += float64(len(lg.data))
	}
	templates /= float64(len(logs))
	bytes /= float64(len(logs))
	fmt.Fprintf(out, "workload %s: n=%d templates=%.1f duplication=%.2fx log_bytes=%.0f k=%d logs=%d seed=%d gomaxprocs=%d cpus=%d arch=%s/%s go=%s\n",
		rc.spec.name, rc.spec.n, templates, float64(rc.spec.n)/templates, bytes, rc.spec.k, len(logs), rc.seed,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
}

// printHeadline prints the paper's headline figures for a no-compression
// workload: the compressed pipeline's time as a share of the full tune's,
// and the improvement it gives up. Both are derived, from one compressed
// execution per log, and not gated: a faster or better full tune would
// read as a worse ratio. Only the traced run prints them, so that the
// untraced runs, which the gates read, end soon after their window.
func (b *bench) printHeadline(ctx context.Context) {
	var compTimes []float64
	var compPct float64
	for j, lg := range b.logs {
		b.attempted++
		start := time.Now() //lint:allow determinism derived headline timing only
		rec, err := recommend(ctx, lg, b.rc.spec.compareK, b.rc.parallelism, nil)
		took := time.Since(start)
		var pct float64
		if err == nil {
			pct, err = evaluate(ctx, lg, rec.config, b.rc.parallelism, nil)
		}
		if err != nil {
			b.fail(j, fmt.Errorf("compressed reference: %w", err))
			continue
		}
		compTimes = append(compTimes, took.Seconds())
		compPct += pct
	}
	full, okT := b.s.pooled("recommend_s")
	fullPct, okP := b.s.value("improvement_pct")
	if len(compTimes) == 0 || !okT || !okP {
		return
	}
	compTime := median(compTimes)
	compPct /= float64(len(compTimes))
	fmt.Fprintf(b.out, "derived (not gated): k=%d compressed recommend %.4f s / full %.4f s = %.3f; improvement %.3f%% vs full %.3f%%, gap %.3f points\n",
		b.rc.spec.compareK, compTime, full, compTime/full, compPct, fullPct, fullPct-compPct)
}

// metrics computes every metric the run measured.
func (b *bench) metrics(setups []float64) (map[string]float64, error) {
	v := map[string]float64{"setup_s": median(setups)}
	if x, ok := b.s.pooled("recommend_s"); ok {
		v["recommend_s"] = x
	}
	for _, name := range []string{"alloc_mb", "whatif_calls", "improvement_pct"} {
		if x, ok := b.s.value(name); ok {
			v[name] = x
		}
	}
	if b.tr == nil {
		return v, nil
	}

	logs := len(b.logs)
	for j, lg := range b.logs {
		b.s.add("workload.queries", j, logs, float64(lg.queries))
		b.s.add("workload.templates", j, logs, float64(lg.templates))
		b.s.add("workload.log_bytes", j, logs, float64(len(lg.data)))
	}
	self := b.tr.selfTimes()
	for i, sp := range b.tr.spans {
		add := func(name string, x float64) { b.s.add(name, sp.Log, logs, x) }
		val := sp.Values
		switch sp.Name {
		case "recommend":
			add("proc.gc_cycles", val["gc_cycles"])
		case "workload.Load":
			add("workload.load_s", self[i].Seconds())
			add("workload.load_alloc_mb", val["alloc_mb"])
		case "core.CompressContext":
			add("core.compress_s", self[i].Seconds())
			add("core.compress_alloc_mb", val["alloc_mb"])
			add("core.rounds", val["rounds"])
		case "core.BuildStatesContext":
			add("core.build_states_s", self[i].Seconds())
			add("core.feature_nnz", val["feature_nnz"])
		case "advisor.TuneContext":
			add("advisor.tune_s", self[i].Seconds())
			add("advisor.tune_alloc_mb", val["alloc_mb"])
			for _, k := range []string{"configs_explored", "rounds", "indexes"} {
				add("advisor."+k, val[k])
			}
			for _, k := range []string{"calls", "plans", "cache_hits", "busy_s", "elided", "bound_prunes", "singleflight_waits"} {
				add("cost."+k, val[k])
			}
		case "advisor.EvaluateImprovementContext":
			add("eval.s", self[i].Seconds())
			add("eval.calls", val["calls"])
		}
	}
	for _, d := range perLayer {
		if x, ok := b.s.value(d.name); ok {
			v[d.name] = x
		}
	}
	if b.rc.spec.k == 0 {
		// The no-compression path spends nothing in core.
		for _, name := range []string{"core.compress_s", "core.compress_alloc_mb", "core.rounds", "core.build_states_s", "core.feature_nnz"} {
			v[name] = 0
		}
	}
	v["core.greedy_weigh_s"] = v["core.compress_s"] - v["core.build_states_s"]
	v["cost.elide_ratio"] = ratio(v["cost.elided"], v["cost.elided"]+v["cost.calls"])
	v["cost.plan_us"] = ratio(v["cost.busy_s"]*1e6, v["cost.plans"])
	traced, okT := b.s.pooled("trace.recommend_s")
	untraced, okU := b.s.pooled("recommend_s")
	if okT && okU {
		v["trace.overhead_s"] = traced - untraced
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	v["proc.peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	return v, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
