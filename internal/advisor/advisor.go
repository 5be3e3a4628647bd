// Package advisor implements index advisors over the what-if optimizer:
// a DTA-style advisor following the candidate-generation / candidate-
// selection / configuration-enumeration architecture of Fig. 1 [14], with
// index merging [16], index-count and storage-budget constraints, and
// weighted workloads; and a deliberately simpler DEXTER-style advisor [2]
// used to assess generalisation (Section 8.3).
package advisor

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"isum/internal/cost"
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
	// Progress, when non-nil, receives streaming progress events while
	// tuning runs (DESIGN.md §13): per candidate-selection stride
	// ("advisor/candidates", emitted from worker goroutines — the
	// function must be safe for concurrent use) and per enumeration
	// round ("advisor/enumerate", with the configuration size and the
	// cumulative weighted gain). Observational only: recommendations
	// are identical with or without a sink, and nil costs a pointer
	// check per emission site.
	Progress telemetry.ProgressFunc
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
// for real failures (a contained worker panic, or an injected what-if
// failure that survived the retry policy); cancellation is not an error.
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
	if !isCancel(err) {
		return 0, err
	}
	res.Partial = true
	//lint:allow ctx deliberate detach: recost the partial result after cancellation (DESIGN.md §9)
	return a.o.WorkloadCostCtx(context.Background(), w, cfg, a.opts.Parallelism)
}

// isCancel reports whether err stems from context cancellation or deadline
// expiry — the anytime outcomes, as opposed to real failures.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// scored pairs a candidate index with its standalone benefit.
type scored struct {
	ix      index.Index
	benefit float64
}

// queryCandidates is one query's contribution to candidate selection: its
// winning candidates, how many configurations it probed, and the first
// real what-if failure it hit (nil otherwise).
type queryCandidates struct {
	local    []scored
	explored int64
	err      error
}

// selectCandidates runs per-query candidate selection: each query's
// syntactic candidates are what-if costed in isolation and the winners
// (positive improvement above the threshold) are pooled.
//
// Queries fan out across Options.Parallelism workers; per-query results
// are merged serially in input order, so the pooled benefits (ordered
// float sums) and the final ranking match the serial path exactly. When
// ctx is cancelled (the TimeBudget deadline), workers stop picking up
// queries and a query interrupted mid-probe is dropped whole, so the
// anytime pool holds only fully-processed queries and res is marked
// Partial. A real what-if failure (retries exhausted) or a contained
// panic aborts selection with the error.
//
// With the optimizer's elision layer on (cost.Optimizer.SetElision), the
// per-query base cost is served from the optimizer's atomic memo
// (populated by the initial workload costing), and a candidate is
// dropped without costing when the query's structural floor on the
// candidate's table proves even a perfect index fails the improvement
// threshold: the true gain is at most base − floor, so a pruned
// candidate is exactly one the reference path would drop after costing.
// Pruned candidates still count as probed/explored.
func (a *Advisor) selectCandidates(ctx context.Context, w *workload.Workload, res *Result) ([]scored, error) {
	// probed is bumped from worker closures — counters are atomics, so
	// this is the one advisor metric safely updated off the span path.
	probed := a.opts.Telemetry.Counter("advisor/candidates/probed")
	progress := a.opts.Progress
	elide := a.o.ElisionEnabled()
	// Each candidate is probed alone: a view of the empty configuration
	// plus the candidate, which copies nothing.
	var empty *index.Configuration
	var processed atomic.Int64 // progress counter; workers emit, so Progress must be concurrency-safe
	perQuery, mapErr := parallel.Map(ctx, parallel.Workers(a.opts.Parallelism), len(w.Queries),
		func(i int) *queryCandidates {
			if progress != nil {
				defer func() {
					progress(telemetry.ProgressEvent{
						Phase: "advisor/candidates",
						Done:  int(processed.Add(1)), Total: len(w.Queries),
					})
				}()
			}
			q := w.Queries[i]
			var base float64
			baseKnown := false
			if elide {
				if b, ok := a.o.QueryBounds(q).BaseCost(); ok {
					base, baseKnown = b, true
					a.o.CountElidedCalls(1)
				}
			}
			if !baseKnown {
				var err error
				base, err = a.o.CostContext(ctx, q, nil)
				if err != nil {
					if isCancel(err) {
						return nil // anytime mode: keep what we have
					}
					return &queryCandidates{err: err}
				}
			}
			if base <= 0 {
				return nil
			}
			wt := q.Weight
			if wt <= 0 {
				wt = 1
			}
			qc := &queryCandidates{}
			for _, ix := range a.syntacticCandidatesForMode(q) {
				if elide {
					capGain := base - a.o.FloorCost(q, ix.Table)
					if capGain <= 0 || capGain < a.opts.MinImprovement*base {
						qc.explored++
						probed.Inc()
						a.o.CountBoundPrune()
						a.o.CountElidedCalls(1)
						continue
					}
				}
				c, err := a.o.CostContext(ctx, q, empty.Probe(index.NewMember(ix)))
				if err != nil {
					if isCancel(err) {
						return nil // drop the half-probed query
					}
					return &queryCandidates{err: err}
				}
				qc.explored++
				probed.Inc()
				gain := base - c
				if gain <= 0 || gain < a.opts.MinImprovement*base {
					continue
				}
				qc.local = append(qc.local, scored{ix: ix, benefit: wt * gain})
			}
			// Tie-break by index ID: syntactic generation follows map
			// iteration order, so a benefit-only sort would truncate
			// equal-gain candidates nondeterministically.
			sort.Slice(qc.local, func(i, j int) bool {
				if qc.local[i].benefit != qc.local[j].benefit {
					return qc.local[i].benefit > qc.local[j].benefit
				}
				return qc.local[i].ix.ID() < qc.local[j].ix.ID()
			})
			if len(qc.local) > a.opts.CandidatesPerQuery {
				qc.local = qc.local[:a.opts.CandidatesPerQuery]
			}
			return qc
		})
	if mapErr != nil {
		if !isCancel(mapErr) {
			return nil, mapErr
		}
		res.Partial = true
	}

	pool := map[string]*scored{}
	for _, qc := range perQuery {
		if qc == nil {
			continue
		}
		if qc.err != nil {
			return nil, qc.err
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].benefit != out[j].benefit {
			return out[i].benefit > out[j].benefit
		}
		return out[i].ix.ID() < out[j].ix.ID()
	})
	return out, nil
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

// enumerate greedily builds the configuration: at each step the candidate
// with the largest weighted workload improvement is added, until the
// count/storage constraints bind, no candidate improves the workload, or
// ctx is cancelled (the anytime path: res is marked Partial and the
// configuration built so far is returned — a round interrupted mid-probe
// is discarded whole, so every index in the result was a completed greedy
// choice). A real what-if failure or contained panic returns the error.
//
// Probing a candidate only re-costs the queries that reference the
// candidate's table — indexes cannot change other queries' plans — which is
// the same table-pruning commercial advisors use to bound what-if calls.
//
// With the optimizer's elision layer on, three further elisions apply
// (DESIGN.md §16), none of which can change the chosen index, the
// per-round cost updates, or ConfigsExplored:
//
//   - memo-exact: when the current configuration has no index on a
//     query's tables, the trial configuration's relevant set is exactly
//     the candidate, and the memoized atomic cost is bitwise the value a
//     real call would return;
//   - lower-bound skip: a query whose union lower bound already meets its
//     current cost cannot contribute gain, so its call is skipped;
//   - candidate pruning: a serial pre-pass in candidate order compares
//     each candidate's optimistic gain cap (Σ current − lower over its
//     table's queries) against the best pessimistic gain (via upper
//     bounds) of an earlier unpruned candidate. cap ≤ that floor proves
//     the earlier candidate's true gain is at least this one's, and the
//     argmax breaks ties toward the earlier position, so the pruned
//     candidate could never be chosen. Pruned probes report zero gain and
//     still count as explored, exactly as their costed probes would.
func (a *Advisor) enumerate(ctx context.Context, w *workload.Workload, cands []scored, res *Result) (*index.Configuration, error) {
	cfg := index.NewConfiguration()
	var used int64
	remaining := append([]scored{}, cands...)
	workers := parallel.Workers(a.opts.Parallelism)
	elide := a.o.ElisionEnabled()

	// Per remaining candidate, spliced alongside it: the index with its
	// canonical ID, which probes add to the configuration as a view, and
	// its size against the storage budget.
	mems := make([]index.Member, len(remaining))
	sizes := make([]int64, len(remaining))
	for i, c := range remaining {
		mems[i] = index.NewMember(c.ix)
		sizes[i] = c.ix.SizeBytes(a.o.Catalog())
	}

	// Per-query weights, shared by the probe loop and the elision bounds.
	wts := make([]float64, len(w.Queries))
	for i, q := range w.Queries {
		wts[i] = q.Weight
		if wts[i] <= 0 {
			wts[i] = 1
		}
	}

	// Current weighted per-query costs and a table → query-index map.
	type qcost struct {
		v   float64
		err error
	}
	baseCosts, mapErr := parallel.Map(ctx, workers, len(w.Queries), func(i int) qcost {
		q := w.Queries[i]
		wt := wts[i]
		if elide {
			if b, ok := a.o.QueryBounds(q).BaseCost(); ok {
				a.o.CountElidedCalls(1)
				return qcost{wt * b, nil}
			}
		}
		c, err := a.o.CostContext(ctx, q, cfg)
		return qcost{wt * c, err}
	})
	if mapErr != nil {
		if isCancel(mapErr) {
			res.Partial = true
			return cfg, nil
		}
		return nil, mapErr
	}
	curCost := make([]float64, len(baseCosts))
	for i, r := range baseCosts {
		if r.err != nil {
			if isCancel(r.err) {
				res.Partial = true
				return cfg, nil
			}
			return nil, r.err
		}
		curCost[i] = r.v
	}
	queriesByTable := map[string][]int{}
	for i, q := range w.Queries {
		if q.Info != nil {
			for _, t := range q.Info.Tables {
				queriesByTable[t] = append(queriesByTable[t], i)
			}
		}
	}

	// Elision set-up: one what-if call per query against the union of
	// every candidate primes a lower bound valid for every configuration
	// this enumeration can probe (all are subsets of the union); interned
	// candidate IDs and per-query bound handles keep the in-round lookups
	// allocation-free.
	var (
		bounds  []*cost.QueryBounds
		lbW     []float64 // weighted lower bound per query; −Inf when unknown
		candIDs []int32   // interned identity per remaining candidate
		cfgRel  []int     // per query: # configuration indexes on its tables
	)
	// Cross-round probe memo. A probe's cost depends only on the trial
	// configuration's indexes on the query's tables (the optimizer plans
	// with those members only — the same relevance invariant that lets the
	// probe loop re-cost only queriesByTable[cand.Table]), so the value
	// for (candidate, query) holds verbatim across rounds until a chosen
	// index lands on one of the query's tables. qVer tracks that: bumped
	// per query when its relevant set changes, it invalidates stale
	// entries without a sweep. Each candidate's map is touched only by
	// its own probe goroutine within a round, and rounds are separated by
	// the parallel.Map join, so the memo needs no locking.
	type probeMemo struct {
		ver int
		c   float64 // weighted trial cost, exactly as the real call computed it
	}
	var (
		candMemo []map[int]probeMemo // per remaining candidate: query → memoized probe
		qVer     []int               // per query: relevant-set version
		relQs    [][]int             // per remaining candidate: structurally relevant queries
	)
	if elide {
		union := index.NewConfiguration()
		for _, c := range remaining {
			union.Add(c.ix)
		}
		primed, mapErr := parallel.Map(ctx, workers, len(w.Queries), func(i int) error {
			return a.o.PrimeUnionBound(ctx, w.Queries[i], union)
		})
		if mapErr != nil {
			if isCancel(mapErr) {
				res.Partial = true
				return cfg, nil
			}
			return nil, mapErr
		}
		for _, err := range primed {
			if err != nil {
				if isCancel(err) {
					res.Partial = true
					return cfg, nil
				}
				return nil, err
			}
		}
		bounds = make([]*cost.QueryBounds, len(w.Queries))
		lbW = make([]float64, len(w.Queries))
		cfgRel = make([]int, len(w.Queries))
		for i, q := range w.Queries {
			bounds[i] = a.o.QueryBounds(q)
			if lb, ok := bounds[i].Lower(); ok {
				lbW[i] = wts[i] * lb
			} else {
				lbW[i] = math.Inf(-1)
			}
		}
		candIDs = make([]int32, len(remaining))
		for i := range remaining {
			candIDs[i] = a.o.InternIndexID(mems[i].ID)
		}
		candMemo = make([]map[int]probeMemo, len(remaining))
		qVer = make([]int, len(w.Queries))
		// Structural relevance: a candidate whose index the planner can
		// never consult for a query (cost.IndexRelevant) leaves that
		// query's cost bitwise unchanged, so the probe loop walks only the
		// relevant queries and the skipped pairs count as elided calls.
		relQs = make([][]int, len(remaining))
		for i := range remaining {
			all := queriesByTable[lower(remaining[i].ix.Table)]
			rel := make([]int, 0, len(all))
			for _, qi := range all {
				if cost.IndexRelevant(w.Queries[qi], remaining[i].ix) {
					rel = append(rel, qi)
				}
			}
			relQs[i] = rel
		}
	}

	// probe is one candidate's evaluation against the current
	// configuration; skipped candidates (over the storage budget) stay nil
	// in newCosts and count no exploration.
	type probe struct {
		gain     float64
		newCosts map[int]float64
		err      error
	}
	reg := a.opts.Telemetry
	roundsCtr := reg.Counter("advisor/enumerate/rounds")
	var gainSum float64
	for {
		if a.opts.MaxIndexes > 0 && cfg.Len() >= a.opts.MaxIndexes {
			break
		}
		if ctx.Err() != nil {
			res.Partial = true
			break // anytime mode: return the configuration built so far
		}
		rsp := reg.Start("advisor/enumerate/round")
		roundsCtr.Inc()
		// Bound-based candidate pruning: a serial scan in candidate order.
		// bStar is the best pessimistic gain of an earlier unpruned,
		// unskipped candidate — a gain some earlier probe is guaranteed to
		// reach — and capByTable caps any candidate-on-t's gain from
		// above. cap ≤ bStar means this candidate cannot out-gain that
		// earlier witness, and the argmax prefers the earlier position on
		// ties, so its probe is elided wholesale.
		var pruned []bool
		if elide {
			pruned = make([]bool, len(remaining))
			bStar := 0.0
			for i := range remaining {
				cand := remaining[i]
				if a.opts.StorageBudget > 0 && used+sizes[i] > a.opts.StorageBudget {
					continue // skipped, not probed: no witness, no prune
				}
				// The candidate's gain accrues only on its structurally
				// relevant queries (irrelevant ones are bitwise
				// unchanged), so the optimistic cap sums over those.
				var gcap float64
				for _, qi := range relQs[i] {
					if d := curCost[qi] - lbW[qi]; d > 0 {
						gcap += d
					}
				}
				if gcap <= bStar {
					pruned[i] = true
					a.o.CountBoundPrune()
					a.o.CountElidedCalls(int64(len(queriesByTable[lower(cand.ix.Table)])))
					continue
				}
				var pess float64
				for _, qi := range relQs[i] {
					if ub, ok := bounds[qi].UpperWith(candIDs[i]); ok {
						if d := curCost[qi] - wts[qi]*ub; d > 0 {
							pess += d
						}
					}
				}
				if pess > bStar {
					bStar = pess
				}
			}
		}
		// Probe every remaining candidate in parallel: each probe re-costs
		// only the queries on the candidate's table against a
		// cfg+candidate view, reading cfg/curCost/queriesByTable without
		// mutation. The argmax below reduces serially in candidate order,
		// so the chosen index matches the serial scan exactly.
		probes, mapErr := parallel.Map(ctx, workers, len(remaining), func(i int) probe {
			cand := remaining[i]
			if a.opts.StorageBudget > 0 && used+sizes[i] > a.opts.StorageBudget {
				return probe{}
			}
			p := probe{newCosts: map[int]float64{}}
			if pruned != nil && pruned[i] {
				// Elided probe: provably not the argmax; zero gain keeps it
				// out of contention while still counting as explored.
				return p
			}
			trial := cfg.Probe(mems[i])
			qis := queriesByTable[lower(cand.ix.Table)]
			if elide {
				// Structurally irrelevant pairs cost bitwise the current
				// value: no gain, no call.
				a.o.CountElidedCalls(int64(len(qis) - len(relQs[i])))
				qis = relQs[i]
			}
			for _, qi := range qis {
				q := w.Queries[qi]
				wt := wts[qi]
				if elide {
					if lbW[qi] >= curCost[qi] {
						// The optimistic bound already meets the current
						// cost: this query cannot contribute gain.
						a.o.CountElidedCalls(1)
						continue
					}
					if cfgRel[qi] == 0 {
						if c0, ok := bounds[qi].AtomicCost(candIDs[i]); ok {
							a.o.CountElidedCalls(1)
							c0 *= wt
							if c0 < curCost[qi] {
								p.gain += curCost[qi] - c0
								p.newCosts[qi] = c0
							}
							continue
						}
					}
					if e, ok := candMemo[i][qi]; ok && e.ver == qVer[qi] {
						// Repeat probe: the query's relevant index set is
						// unchanged since this pair was last costed, so the
						// memoized value is the call's value verbatim.
						a.o.CountElidedCalls(1)
						if e.c < curCost[qi] {
							p.gain += curCost[qi] - e.c
							p.newCosts[qi] = e.c
						}
						continue
					}
				}
				c, err := a.o.CostContext(ctx, q, trial)
				if err != nil {
					return probe{err: err}
				}
				c *= wt
				if elide {
					if candMemo[i] == nil {
						candMemo[i] = make(map[int]probeMemo)
					}
					candMemo[i][qi] = probeMemo{ver: qVer[qi], c: c}
				}
				if c < curCost[qi] {
					p.gain += curCost[qi] - c
					p.newCosts[qi] = c
				}
			}
			return p
		})
		if mapErr != nil && !isCancel(mapErr) {
			rsp.End()
			return nil, mapErr
		}
		for _, p := range probes {
			if p.err != nil && !isCancel(p.err) {
				rsp.End()
				return nil, p.err
			}
		}
		if mapErr != nil {
			res.Partial = true
			rsp.SetAttr("outcome", "cancelled")
			rsp.End()
			break // discard the interrupted round's partial probes
		}
		bestIdx := -1
		bestGain := 0.0
		var bestCosts map[int]float64
		for i, p := range probes {
			if p.newCosts == nil {
				continue
			}
			res.ConfigsExplored++
			if p.gain > bestGain+1e-9 {
				bestGain, bestIdx, bestCosts = p.gain, i, p.newCosts
			}
		}
		if bestIdx < 0 {
			rsp.SetAttr("outcome", "no-gain")
			rsp.End()
			break
		}
		chosen := remaining[bestIdx]
		cfg.Add(chosen.ix)
		used += sizes[bestIdx]
		for qi, c := range bestCosts {
			curCost[qi] = c
		}
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		mems = append(mems[:bestIdx], mems[bestIdx+1:]...)
		sizes = append(sizes[:bestIdx], sizes[bestIdx+1:]...)
		if elide {
			candIDs = append(candIDs[:bestIdx], candIDs[bestIdx+1:]...)
			candMemo = append(candMemo[:bestIdx], candMemo[bestIdx+1:]...)
			relQs = append(relQs[:bestIdx], relQs[bestIdx+1:]...)
			for _, qi := range queriesByTable[lower(chosen.ix.Table)] {
				cfgRel[qi]++
				qVer[qi]++
			}
		}
		res.Rounds++
		if a.opts.Progress != nil {
			gainSum += bestGain
			a.opts.Progress(telemetry.ProgressEvent{
				Phase: "advisor/enumerate", Round: res.Rounds,
				Done: cfg.Len(), Total: a.opts.MaxIndexes,
				Benefit: gainSum,
			})
		}
		if reg != nil {
			rsp.SetAttr("chosen", chosen.ix.ID())
			rsp.SetAttr("gain", bestGain)
			rsp.SetAttr("probed", len(probes))
		}
		rsp.End()
	}
	return cfg, nil
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
	return EvaluateImprovementN(o, w, cfg, 0)
}

// EvaluateImprovementN is EvaluateImprovement with an explicit parallelism
// (0 = GOMAXPROCS, 1 = serial). The before/after sums are reduced in input
// order, so the result is bit-identical at any parallelism.
func EvaluateImprovementN(o *cost.Optimizer, w *workload.Workload, cfg *index.Configuration, parallelism int) (pct, base, final float64) {
	pct, base, final, err := EvaluateImprovementContext(context.Background(), o, w, cfg, parallelism)
	if err != nil {
		panic(err)
	}
	return pct, base, final
}

// EvaluateImprovementContext is EvaluateImprovementN with cancellation and
// failure reporting: an interrupted or failed evaluation returns the error
// (there is no meaningful partial improvement metric).
func EvaluateImprovementContext(ctx context.Context, o *cost.Optimizer, w *workload.Workload, cfg *index.Configuration, parallelism int) (pct, base, final float64, err error) {
	type pair struct {
		base, final float64
		err         error
	}
	pairs, err := parallel.Map(ctx, parallel.Workers(parallelism), len(w.Queries), func(i int) pair {
		q := w.Queries[i]
		b, err := o.CostContext(ctx, q, nil)
		if err != nil {
			return pair{err: err}
		}
		f, err := o.CostContext(ctx, q, cfg)
		return pair{base: b, final: f, err: err}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for _, p := range pairs {
		if p.err != nil {
			return 0, 0, 0, p.err
		}
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
