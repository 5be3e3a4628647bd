// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 8) over the repository's substrates: the benchmark
// generators, the what-if optimizer, the DTA/DEXTER-style advisors, ISUM
// and the baseline compressors. See DESIGN.md §3 for the experiment index
// and EXPERIMENTS.md for recorded results.
package experiments

import (
	"context"
	"fmt"
	"math"

	"isum/internal/advisor"
	"isum/internal/benchmarks"
	"isum/internal/compress"
	"isum/internal/core"
	"isum/internal/cost"
	"isum/internal/index"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

// Config scopes an experiment run.
type Config struct {
	// Scale is the benchmark scale factor (the paper uses 10). It affects
	// only catalog statistics, not runtime.
	Scale float64
	// Seed drives workload parameter generation.
	Seed int64
	// Fast shrinks workload sizes (used by tests and quick runs); the full
	// sizes are the paper's Table 2 values.
	Fast bool
	// Parallelism bounds worker goroutines in compression, cost filling,
	// tuning and evaluation (0 = GOMAXPROCS, 1 = serial). Building a
	// workload parses on every core whatever the setting (DESIGN.md §19).
	// Experiment outputs are identical at any setting; this only trades
	// wall-clock for cores.
	Parallelism int
	// Telemetry, when non-nil, collects pipeline metrics and phase spans
	// across every experiment: optimizers are constructed against it and
	// Run appends a per-figure phase breakdown (elapsed time plus counter
	// deltas — what-if calls, elided calls, greedy rounds) next to
	// each figure's tables. Figure results themselves are identical with
	// or without it.
	Telemetry *telemetry.Registry
	// Ctx, when non-nil, bounds the whole run (DESIGN.md §9): runners
	// observe cancellation inside compression, tuning, and evaluation and
	// abort with the context's error, so a -timeout run stops promptly
	// instead of finishing the figure sweep.
	Ctx context.Context //lint:allow ctx optional run-scoped config knob; Context() threads it into every runner call
}

// Context returns the run's context (Background when none was set).
func (c Config) Context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// FastConfig returns a configuration sized for minutes, not hours.
func FastConfig() Config { return Config{Scale: 10, Seed: 1, Fast: true} }

// WorkloadSize returns the number of query instances for a benchmark under
// this config (Table 2 sizes, shrunk 10–20× in Fast mode).
func (c Config) WorkloadSize(name string) int {
	full := map[string]int{"TPC-H": 2200, "TPC-DS": 9100, "DSB": 520, "Real-M": 473}
	fast := map[string]int{"TPC-H": 110, "TPC-DS": 182, "DSB": 104, "Real-M": 95}
	if c.Fast {
		return fast[name]
	}
	return full[name]
}

// Env lazily builds and caches benchmark workloads with filled costs.
type Env struct {
	Cfg Config

	gens    map[string]*benchmarks.Generator
	wls     map[string]*workload.Workload
	opts    map[string]*cost.Optimizer
	studies map[string]*perQueryStudy
}

// NewEnv returns an empty environment.
func NewEnv(cfg Config) *Env {
	return &Env{
		Cfg:     cfg,
		gens:    map[string]*benchmarks.Generator{},
		wls:     map[string]*workload.Workload{},
		opts:    map[string]*cost.Optimizer{},
		studies: map[string]*perQueryStudy{},
	}
}

// freshOptimizer returns a new optimizer over a generator's catalog,
// registered against the environment's telemetry (if any) so per-figure
// breakdowns attribute its what-if calls.
func (e *Env) freshOptimizer(g *benchmarks.Generator) *cost.Optimizer {
	return cost.NewOptimizerWithTelemetry(g.Cat, cost.DefaultParams(), e.Cfg.Telemetry)
}

// Generator returns (building on first use) the named benchmark generator.
func (e *Env) Generator(name string) (*benchmarks.Generator, error) {
	if g, ok := e.gens[name]; ok {
		return g, nil
	}
	var g *benchmarks.Generator
	switch name {
	case "TPC-H":
		g = benchmarks.TPCH(e.Cfg.Scale)
	case "TPC-DS":
		g = benchmarks.TPCDS(e.Cfg.Scale)
	case "DSB":
		g = benchmarks.DSB(e.Cfg.Scale)
	case "Real-M":
		g = benchmarks.RealM(e.Cfg.Seed + 40)
	default:
		return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	e.gens[name] = g
	return g, nil
}

// Workload returns (building on first use) the named benchmark workload at
// the configured size, with optimizer-estimated costs filled — the paper's
// input-workload contract.
func (e *Env) Workload(name string) (*workload.Workload, *cost.Optimizer, error) {
	if w, ok := e.wls[name]; ok {
		return w, e.opts[name], nil
	}
	g, err := e.Generator(name)
	if err != nil {
		return nil, nil, err
	}
	w, err := g.Workload(e.Cfg.WorkloadSize(name), e.Cfg.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: building %s workload: %w", name, err)
	}
	o := e.freshOptimizer(g)
	if err := o.FillCostsCtx(e.Cfg.Context(), w, e.Cfg.Parallelism); err != nil {
		return nil, nil, fmt.Errorf("experiments: costing %s workload: %w", name, err)
	}
	e.wls[name] = w
	e.opts[name] = o
	return w, o, nil
}

// AdvisorOptions returns the default DTA-style tuning constraints used
// across experiments unless a figure varies them: up to 30 indexes (the
// paper observes negligible improvement past 30) within 3× database
// storage (DTA's default budget).
func (e *Env) AdvisorOptions(name string) (advisor.Options, error) {
	opts := advisor.DefaultOptions()
	g, err := e.Generator(name)
	if err != nil {
		return opts, err
	}
	opts.MaxIndexes = 30
	opts.StorageBudget = 3 * g.Cat.TotalSizeBytes()
	opts.Parallelism = e.Cfg.Parallelism
	opts.Telemetry = e.Cfg.Telemetry
	return opts, nil
}

// advisorTune tunes a (compressed) workload and returns the configuration.
// A run cut short by ctx aborts with the context's error — experiments
// want full figures or a clean stop, not silently partial data points.
func advisorTune(ctx context.Context, o *cost.Optimizer, w *workload.Workload, aopts advisor.Options) (*index.Configuration, error) {
	res, err := advisor.New(o, aopts).TuneContext(ctx, w)
	if err != nil {
		return nil, err
	}
	if res.Partial {
		return nil, ctxError(ctx)
	}
	return res.Config, nil
}

// ctxError returns ctx's error, defaulting to DeadlineExceeded when the
// context has not (yet) recorded one — used when a Partial result proves
// the run was cut short.
func ctxError(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}

// evaluate returns the improvement % (and before/after costs) of cfg on
// w, costing at the run's parallelism.
func (e *Env) evaluate(ctx context.Context, o *cost.Optimizer, w *workload.Workload, cfg *index.Configuration) (pct, base, final float64, err error) {
	return advisor.EvaluateImprovementContext(ctx, o, w, cfg, e.Cfg.Parallelism)
}

// RunPipeline compresses w to k queries with comp, tunes the compressed
// workload, and returns the improvement % on the full workload — the
// paper's evaluation metric. Tuning and evaluation run at
// aopts.Parallelism. Cancellation of ctx aborts with its error.
func RunPipeline(ctx context.Context, o *cost.Optimizer, w *workload.Workload, comp compress.Compressor, k int, aopts advisor.Options) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	res, err := comp.CompressContext(ctx, w, k)
	if err != nil {
		return 0, err
	}
	if res.Partial {
		return 0, ctxError(ctx)
	}
	cw := w.WeightedSubset(res.Indices, res.Weights)
	cfg, err := advisorTune(ctx, o, cw, aopts)
	if err != nil {
		return 0, err
	}
	pct, _, _, err := advisor.EvaluateImprovementContext(ctx, o, w, cfg, aopts.Parallelism)
	return pct, err
}

// coreOptions returns opts set to compress at the run's parallelism.
func (e *Env) coreOptions(opts core.Options) core.Options {
	opts.Parallelism = e.Cfg.Parallelism
	return opts
}

// standardCompressors is StandardCompressors for the run: ISUM and ISUM-S
// compress at the run's parallelism.
func (e *Env) standardCompressors() []compress.Compressor {
	comps := StandardCompressors(e.Cfg.Seed)
	for i, c := range comps {
		if cc, ok := c.(*core.Compressor); ok {
			comps[i] = core.New(e.coreOptions(cc.Options()))
		}
	}
	return comps
}

// StandardCompressors returns the Fig. 9 comparison set: the four baselines
// plus ISUM and ISUM-S.
func StandardCompressors(seed int64) []compress.Compressor {
	return []compress.Compressor{
		&compress.Uniform{Seed: seed},
		&compress.CostTopK{},
		&compress.Stratified{Seed: seed},
		&compress.GSUM{},
		core.New(core.DefaultOptions()),
		core.New(core.ISUMSOptions()),
	}
}

// KSweep returns the compressed-size sweep {2, 4, ..., ≤ 2√n} the paper
// uses in Fig. 9a, capped at maxPoints entries (from the top) in Fast mode.
func (c Config) KSweep(n int) []int {
	limit := int(2 * math.Sqrt(float64(n)))
	var ks []int
	for k := 2; k <= limit; k *= 2 {
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		ks = []int{2}
	}
	if c.Fast && len(ks) > 4 {
		ks = ks[len(ks)-4:]
	}
	return ks
}

// Pearson returns the Pearson correlation coefficient of two series.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Median returns the median of a series (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64{}, xs...)
	for i := range cp {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	if len(cp)%2 == 1 {
		return cp[len(cp)/2]
	}
	return (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
}
