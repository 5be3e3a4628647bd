// Package advisor implements index advisors over the what-if optimizer:
// a DTA-style advisor following the candidate-generation / candidate-
// selection / configuration-enumeration architecture of Fig. 1 [14], with
// index merging [16], index-count and storage-budget constraints, and
// weighted workloads; and a deliberately simpler DEXTER-style advisor [2]
// used to assess generalisation (Section 8.3).
package advisor

import (
	"context"
	"sort"
	"time"

	"isum/internal/cost"
	"isum/internal/faults"
	"isum/internal/index"
	"isum/internal/parallel"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

// Mode selects the advisor flavour.
type Mode int

const (
	// DTA is the full advisor: multi-column candidates, covering indexes,
	// merging, greedy enumeration against the whole workload.
	DTA Mode = iota
	// Dexter is the simplified advisor: single/two-column candidates from
	// filters and joins only, per-query selection with a minimum-improvement
	// threshold, no merging.
	Dexter
)

// Options configure a tuning run.
type Options struct {
	// Mode selects DTA- or DEXTER-style behaviour.
	Mode Mode
	// MaxIndexes is the configuration-size constraint m (0 = unlimited).
	MaxIndexes int
	// StorageBudget bounds the total index size in bytes (0 = unlimited).
	// The paper's Fig. 10 expresses it as a multiple of the database size.
	StorageBudget int64
	// MaxKeyColumns caps index key width (default 3).
	MaxKeyColumns int
	// MaxIncludeColumns caps INCLUDE width for covering variants (default 8).
	MaxIncludeColumns int
	// EnableIncludes generates covering variants (default true for DTA).
	EnableIncludes bool
	// EnableMerging adds merged candidates (default true for DTA).
	EnableMerging bool
	// MinImprovement is the per-query fractional improvement a candidate
	// must achieve during candidate selection (DEXTER exposes this; the
	// paper sets it to 5%).
	MinImprovement float64
	// CandidatesPerQuery caps how many winning candidates each query
	// contributes (default 8).
	CandidatesPerQuery int
	// TimeBudget makes tuning anytime (DTA's -A mode [12], discussed in
	// Sections 1 and 10): candidate selection processes queries until the
	// budget is exhausted, and enumeration stops adding indexes past it.
	// Zero means no budget. The result is always a valid (possibly
	// truncated) recommendation.
	TimeBudget time.Duration
	// Parallelism bounds the worker goroutines used for per-query what-if
	// calls during candidate selection, enumeration probing, and workload
	// costing. 0 uses GOMAXPROCS; 1 forces the serial reference path. The
	// recommended configuration is identical at any setting: per-query
	// results are merged and weighted sums reduced in input order (see
	// DESIGN.md, "Concurrency model").
	Parallelism int
	// Telemetry receives the advisor's metrics and phase spans (candidate
	// selection, merging, per-round enumeration — see DESIGN.md §8). nil,
	// the default, disables instrumentation; recommendations are identical
	// either way. Pass the optimizer's registry (or construct the
	// optimizer with NewOptimizerWithTelemetry on a shared one) to see
	// what-if call deltas attributed to each tuning phase.
	Telemetry *telemetry.Registry
}

// DefaultOptions returns the standard DTA-style configuration.
func DefaultOptions() Options {
	return Options{
		Mode:               DTA,
		MaxKeyColumns:      3,
		MaxIncludeColumns:  8,
		EnableIncludes:     true,
		EnableMerging:      true,
		CandidatesPerQuery: 8,
	}
}

// DexterOptions returns the DEXTER-style configuration with the paper's 5%
// minimum-improvement setting.
func DexterOptions() Options {
	return Options{
		Mode:               Dexter,
		MaxKeyColumns:      2,
		EnableIncludes:     false,
		EnableMerging:      false,
		MinImprovement:     0.05,
		CandidatesPerQuery: 4,
	}
}

// Result reports a tuning run.
type Result struct {
	Config          *index.Configuration
	InitialCost     float64 // weighted workload cost before tuning
	FinalCost       float64 // weighted workload cost with Config
	OptimizerCalls  int64
	ConfigsExplored int64
	Elapsed         time.Duration

	// Partial marks an anytime result: the TimeBudget (or the caller's
	// context) expired mid-run and Config holds the best configuration
	// found so far — every index in it was a completed greedy choice, and
	// Initial/FinalCost are real workload costs. False means the run
	// finished.
	Partial bool
	// Rounds is the number of enumeration rounds that completed with an
	// index added to the configuration.
	Rounds int
}

// ImprovementPercent is the tuner-reported improvement on its input.
func (r *Result) ImprovementPercent() float64 {
	if r.InitialCost <= 0 {
		return 0
	}
	return (r.InitialCost - r.FinalCost) / r.InitialCost * 100
}

// Advisor tunes workloads.
type Advisor struct {
	o    *cost.Optimizer
	opts Options
}

// New returns an advisor over the optimizer. Zero-valued option fields are
// defaulted.
func New(o *cost.Optimizer, opts Options) *Advisor {
	if opts.MaxKeyColumns == 0 {
		opts.MaxKeyColumns = 3
	}
	if opts.MaxIncludeColumns == 0 {
		opts.MaxIncludeColumns = 8
	}
	if opts.CandidatesPerQuery == 0 {
		opts.CandidatesPerQuery = 8
	}
	return &Advisor{o: o, opts: opts}
}

// Tune runs the advisor on the workload and returns the recommended
// configuration. Query weights are honoured: the enumeration maximises the
// weighted improvement, which is how a compressed workload steers tuning.
func (a *Advisor) Tune(w *workload.Workload) *Result {
	res, err := a.TuneContext(context.Background(), w)
	if err != nil {
		panic(err)
	}
	return res
}

// TuneContext is Tune with the anytime contract (DESIGN.md §9): when ctx
// is cancelled or its deadline expires — Options.TimeBudget is folded into
// ctx as a deadline — candidate selection keeps the queries already
// processed and enumeration stops at its next round boundary, returning
// the configuration built so far as a valid Result with Partial set. The
// Initial/FinalCost of a Partial result are computed on a detached
// context, so they are always real workload costs. The error is reserved
// for a worker panic contained by the pool; a what-if call cannot fail,
// and cancellation is not an error.
func (a *Advisor) TuneContext(ctx context.Context, w *workload.Workload) (*Result, error) {
	start := time.Now() //lint:allow determinism Result.Elapsed timing only; recommendations never read the clock
	reg := a.opts.Telemetry
	root := reg.Start("advisor/tune")
	defer root.End()
	if reg != nil {
		root.SetAttr("queries", len(w.Queries))
		if a.opts.Mode == Dexter {
			root.SetAttr("mode", "dexter")
		} else {
			root.SetAttr("mode", "dta")
		}
	}

	if a.opts.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(a.opts.TimeBudget))
		defer cancel()
	}
	callsBefore := a.o.Calls()
	res := &Result{}
	initial, err := a.costDetachedOnCancel(ctx, res, w, nil)
	if err != nil {
		return nil, err
	}
	res.InitialCost = initial

	sc := reg.Start("advisor/candidates")
	candidates, err := a.selectCandidates(ctx, w, res)
	sc.SetAttr("pooled", len(candidates))
	sc.End()
	if err != nil {
		return nil, err
	}
	if a.opts.EnableMerging {
		sm := reg.Start("advisor/merge")
		candidates = a.addMerged(candidates)
		sm.SetAttr("with-merged", len(candidates))
		sm.End()
	}
	se := reg.Start("advisor/enumerate")
	cfg, err := a.enumerate(ctx, w, candidates, res)
	if err != nil {
		se.End()
		return nil, err
	}
	se.SetAttr("indexes", cfg.Len())
	se.End()

	res.Config = cfg
	final, err := a.costDetachedOnCancel(ctx, res, w, cfg)
	if err != nil {
		return nil, err
	}
	res.FinalCost = final
	res.OptimizerCalls = a.o.Calls() - callsBefore
	res.Elapsed = time.Since(start)
	return res, nil
}

// costDetachedOnCancel computes the weighted workload cost under ctx;
// when ctx is (or becomes) cancelled it marks res Partial and recomputes
// on a detached context, so anytime results always carry real costs.
func (a *Advisor) costDetachedOnCancel(ctx context.Context, res *Result, w *workload.Workload, cfg *index.Configuration) (float64, error) {
	if res.Partial || ctx.Err() != nil {
		res.Partial = true
		ctx = context.Background() //lint:allow ctx deliberate detach: recost the partial result after cancellation (DESIGN.md §9)
	}
	c, err := a.o.WorkloadCostCtx(ctx, w, cfg, a.opts.Parallelism)
	if err == nil {
		return c, nil
	}
	if !faults.IsCancellation(err) {
		return 0, err
	}
	res.Partial = true
	//lint:allow ctx deliberate detach: recost the partial result after cancellation (DESIGN.md §9)
	return a.o.WorkloadCostCtx(context.Background(), w, cfg, a.opts.Parallelism)
}

// scored pairs a candidate index with its standalone benefit.
type scored struct {
	ix      index.Index
	benefit float64
}

// queryCandidates is one query's contribution to candidate selection: its
// winning candidates and how many configurations it probed.
type queryCandidates struct {
	local    []scored
	explored int64
}

// selectCandidates runs per-query candidate selection: each query's
// syntactic candidates are what-if costed in isolation and the winners
// (positive improvement above the threshold) are pooled.
//
// Queries fan out across Options.Parallelism workers; per-query results
// are merged serially in input order, so the pooled benefits (ordered
// float sums) and the final ranking match the serial path exactly. When
// ctx is cancelled (the TimeBudget deadline), workers stop picking up
// queries, and a query already started finishes its probes, so the
// anytime pool holds only fully-processed queries and res is marked
// Partial. A contained worker panic aborts selection with the error.
func (a *Advisor) selectCandidates(ctx context.Context, w *workload.Workload, res *Result) ([]scored, error) {
	// probed is bumped from worker closures — counters are atomics, so
	// this is the one advisor metric safely updated off the span path.
	probed := a.opts.Telemetry.Counter("advisor/candidates/probed")
	perQuery, mapErr := parallel.Map(ctx, parallel.Workers(a.opts.Parallelism), len(w.Queries),
		func(i int) *queryCandidates {
			return a.candidatesFor(w.Queries[i], probed)
		})
	if mapErr != nil {
		if !faults.IsCancellation(mapErr) {
			return nil, mapErr
		}
		res.Partial = true
	}

	pool := map[string]*scored{}
	for _, qc := range perQuery {
		if qc == nil {
			continue
		}
		res.ConfigsExplored += qc.explored
		for _, s := range qc.local {
			id := s.ix.ID()
			if cur, ok := pool[id]; ok {
				cur.benefit += s.benefit
			} else {
				sc := s
				pool[id] = &sc
			}
		}
	}
	out := make([]scored, 0, len(pool))
	for _, s := range pool {
		out = append(out, *s)
	}
	sortScored(out)
	return out, nil
}

// candidatesFor costs each of q's syntactic candidates alone, as a view
// of the empty configuration plus the candidate, and keeps the best
// CandidatesPerQuery winners. It returns nil when q has no positive base
// cost.
//
// The base cost is served from the optimizer's atomic memo, which the
// initial workload costing populates, and a candidate is dropped without
// costing when the query's structural floor on its table proves even a
// perfect index fails the improvement threshold (DESIGN.md §16): the
// true gain is at most base − floor, so a pruned candidate is exactly one
// costing would drop. Pruned candidates still count as probed/explored.
func (a *Advisor) candidatesFor(q *workload.Query, probed *telemetry.Counter) *queryCandidates {
	base, ok := a.o.QueryBounds(q).BaseCost()
	if ok {
		a.o.CountElidedCalls(1)
	} else {
		base = a.o.Cost(q, nil)
	}
	if base <= 0 {
		return nil
	}
	wt := queryWeight(q)
	var empty *index.Configuration
	qc := &queryCandidates{}
	for _, ix := range a.syntacticCandidatesForMode(q) {
		capGain := base - a.o.FloorCost(q, ix.Table)
		if capGain <= 0 || capGain < a.opts.MinImprovement*base {
			qc.explored++
			probed.Inc()
			a.o.CountBoundPrune()
			a.o.CountElidedCalls(1)
			continue
		}
		c := a.o.Cost(q, empty.Probe(index.NewMember(ix)))
		qc.explored++
		probed.Inc()
		gain := base - c
		if gain <= 0 || gain < a.opts.MinImprovement*base {
			continue
		}
		qc.local = append(qc.local, scored{ix: ix, benefit: wt * gain})
	}
	sortScored(qc.local)
	if len(qc.local) > a.opts.CandidatesPerQuery {
		qc.local = qc.local[:a.opts.CandidatesPerQuery]
	}
	return qc
}

// sortScored orders candidates by descending benefit, ties by index ID:
// syntactic generation follows map iteration order, so a benefit-only
// sort would truncate equal-gain candidates nondeterministically.
func sortScored(s []scored) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].benefit != s[j].benefit {
			return s[i].benefit > s[j].benefit
		}
		return s[i].ix.ID() < s[j].ix.ID()
	})
}

func (a *Advisor) syntacticCandidatesForMode(q *workload.Query) []index.Index {
	if a.opts.Mode == Dexter {
		return a.dexterCandidates(q)
	}
	return a.syntacticCandidates(q)
}

// addMerged extends the pool with pairwise merges of same-table candidates
// that share a leading key: keys of the first followed by the unseen keys of
// the second, includes unioned — the index-merging optimisation [16].
func (a *Advisor) addMerged(cands []scored) []scored {
	seen := map[string]bool{}
	for _, c := range cands {
		seen[c.ix.ID()] = true
	}
	byTable := map[string][]scored{}
	for _, c := range cands {
		byTable[c.ix.Table] = append(byTable[c.ix.Table], c)
	}
	tables := make([]string, 0, len(byTable))
	for t := range byTable {
		tables = append(tables, t)
	}
	// Deterministic merge order: map iteration would append merged
	// candidates in a different order each run, and the enumeration
	// argmax breaks ties by position.
	sort.Strings(tables)
	out := cands
	for _, t := range tables {
		list := byTable[t]
		for i := 0; i < len(list); i++ {
			for j := 0; j < len(list); j++ {
				if i == j {
					continue
				}
				A, B := list[i].ix, list[j].ix
				if A.LeadingKey() == "" || !equalFold(A.LeadingKey(), B.LeadingKey()) {
					continue
				}
				merged := mergeIndexes(A, B, a.opts.MaxKeyColumns, a.opts.MaxIncludeColumns)
				if merged == nil {
					continue
				}
				id := merged.ID()
				if !seen[id] {
					seen[id] = true
					out = append(out, scored{ix: *merged, benefit: (list[i].benefit + list[j].benefit) / 2})
				}
			}
		}
	}
	return out
}

// mergeIndexes merges B into A; returns nil when the result exceeds limits.
func mergeIndexes(A, B index.Index, maxKeys, maxIncludes int) *index.Index {
	keys := append([]string{}, A.Keys...)
	have := map[string]bool{}
	for _, k := range keys {
		have[lower(k)] = true
	}
	for _, k := range B.Keys {
		if !have[lower(k)] {
			keys = append(keys, k)
			have[lower(k)] = true
		}
	}
	if len(keys) > maxKeys {
		return nil
	}
	var includes []string
	for _, c := range append(append([]string{}, A.Includes...), B.Includes...) {
		if !have[lower(c)] {
			have[lower(c)] = true
			includes = append(includes, c)
		}
	}
	if len(includes) > maxIncludes {
		return nil
	}
	m := index.New(A.Table, keys...).WithIncludes(includes...)
	return &m
}

// dexterCandidates builds the simplified DEXTER candidate set: single
// columns from filters and joins, plus filter+filter pairs.
func (a *Advisor) dexterCandidates(q *workload.Query) []index.Index {
	var out []index.Index
	seen := map[string]bool{}
	emit := func(ix index.Index) {
		if !seen[ix.ID()] {
			seen[ix.ID()] = true
			out = append(out, ix)
		}
	}
	for _, tr := range sortedRoles(rolesForQuery(q)) {
		t, r := tr.table, tr.roles
		eq := colsOf(r.eqFilters)
		rng := colsOf(r.rngFilters)
		for _, c := range eq {
			emit(index.New(t, c))
		}
		for _, c := range rng {
			emit(index.New(t, c))
		}
		for _, j := range r.joins {
			emit(index.New(t, j))
		}
		all := append(append([]string{}, eq...), rng...)
		if len(all) >= 2 && a.opts.MaxKeyColumns >= 2 {
			emit(index.New(t, all[0], all[1]))
		}
	}
	return out
}

// EvaluateImprovement computes the paper's evaluation metric (Section 8):
// the unweighted improvement % on workload w when using cfg, along with the
// before/after costs. Per-query what-if calls fan out across every core.
func EvaluateImprovement(o *cost.Optimizer, w *workload.Workload, cfg *index.Configuration) (pct, base, final float64) {
	pct, base, final, err := EvaluateImprovementContext(context.Background(), o, w, cfg, 0)
	if err != nil {
		panic(err)
	}
	return pct, base, final
}

// EvaluateImprovementContext is EvaluateImprovement with an explicit
// parallelism (0 = GOMAXPROCS, 1 = serial) and cancellation: an
// interrupted evaluation, or one whose worker panicked, returns the error
// (there is no meaningful partial improvement metric). The before/after
// sums are reduced in input order, so the result is bit-identical at any
// parallelism.
func EvaluateImprovementContext(ctx context.Context, o *cost.Optimizer, w *workload.Workload, cfg *index.Configuration, parallelism int) (pct, base, final float64, err error) {
	type pair struct{ base, final float64 }
	pairs, err := parallel.Map(ctx, parallel.Workers(parallelism), len(w.Queries), func(i int) pair {
		q := w.Queries[i]
		return pair{o.Cost(q, nil), o.Cost(q, cfg)}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for _, p := range pairs {
		base += p.base
		final += p.final
	}
	if base <= 0 {
		return 0, base, final, nil
	}
	return (base - final) / base * 100, base, final, nil
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

func equalFold(a, b string) bool { return lower(a) == lower(b) }
