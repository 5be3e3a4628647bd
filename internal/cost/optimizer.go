package cost

import (
	"context"
	"slices"
	"strings"
	"sync"
	"time"

	"isum/internal/catalog"
	"isum/internal/index"
	"isum/internal/parallel"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

// Optimizer estimates query costs against hypothetical index configurations
// — the "what-if" API of Section 2.1. It compiles each query text's plan
// once (DESIGN.md §17), costs every call from that plan, and counts
// invocations so the advisor can report optimizer-call statistics
// (Fig. 2). Costs are not cached: a call is one fold of the compiled plan.
//
// All methods are safe for concurrent use. The compiled plans are sharded
// by query text and the counters are atomics, so parallel callers only
// contend when two queries hash to the same shard.
//
// Failure model (DESIGN.md §9): a what-if call cannot fail. Cost is a
// pure fold of the query's compiled plan, so it takes no context and
// returns no error; callers observe cancellation between calls.
type Optimizer struct {
	cat *catalog.Catalog
	par Params
	reg *telemetry.Registry

	calls     *telemetry.Counter // cost/whatif/calls: invocations
	plans     *telemetry.Counter // cost/whatif/plans: plan computations (one per call)
	costNanos *telemetry.Counter // cost/whatif/cost_nanos (Fig. 2's optimizer share)

	// Elision layer (elide.go, DESIGN.md §16). Each text's memo lives in
	// its compiled plan; elideMu guards the interned index identities.
	elideMu  sync.Mutex
	elideIDs map[string]int32

	elideHits   *telemetry.Counter // cost/elide/hits: what-if calls elided
	elidePrunes *telemetry.Counter // cost/elide/bound_prunes: candidates pruned by bounds

	shards [planShardCount]planShard
}

// NewOptimizer returns a what-if optimizer over the catalog.
func NewOptimizer(cat *catalog.Catalog) *Optimizer {
	return NewOptimizerWithTelemetry(cat, DefaultParams(), nil)
}

// NewOptimizerWithTelemetry returns an optimizer with the given cost-model
// constants and registers its metrics — what-if call/plan counters,
// cumulative cost time and the elision counters — in reg, so a
// pipeline-wide registry attributes what-if work to phases.
// A nil reg gives the optimizer a private registry: the counters behind
// Calls/Plans/CostTime are always live, at the cost of one atomic add
// each, exactly as the pre-telemetry fields were.
//
// Optimizers sharing a registry share these metrics; when per-optimizer
// attribution matters, give each its own registry.
func NewOptimizerWithTelemetry(cat *catalog.Catalog, par Params, reg *telemetry.Registry) *Optimizer {
	if reg == nil {
		reg = telemetry.New()
	}
	o := &Optimizer{
		cat:         cat,
		par:         par,
		reg:         reg,
		elideIDs:    make(map[string]int32),
		calls:       reg.Counter("cost/whatif/calls"),
		plans:       reg.Counter("cost/whatif/plans"),
		costNanos:   reg.Counter("cost/whatif/cost_nanos"),
		elideHits:   reg.Counter("cost/elide/hits"),
		elidePrunes: reg.Counter("cost/elide/bound_prunes"),
	}
	for i := range o.shards {
		o.shards[i].plans = make(map[string]*queryPlan)
	}
	return o
}

// Telemetry returns the registry holding the optimizer's metrics (never
// nil; private unless one was supplied at construction).
func (o *Optimizer) Telemetry() *telemetry.Registry { return o.reg }

// Params returns the optimizer's cost-model constants.
func (o *Optimizer) Params() Params { return o.par }

// Catalog returns the optimizer's catalog.
func (o *Optimizer) Catalog() *catalog.Catalog { return o.cat }

// shardFor picks the plan shard for a query text.
//
//lint:hotpath compiled-plan lookup, on every what-if call
func (o *Optimizer) shardFor(text string) *planShard {
	return &o.shards[hashString(hashSeed, text)&(planShardCount-1)]
}

// planFor returns the query text's compiled plan.
func (o *Optimizer) planFor(text string) *queryPlan {
	return o.shardFor(text).plan(text)
}

// Cost returns the estimated cost of q under the given (hypothetical)
// configuration. A nil configuration means the current design (no secondary
// indexes). Safe for concurrent use; it cannot fail.
func (o *Optimizer) Cost(q *workload.Query, cfg *index.Configuration) float64 {
	return o.costParts(q, cfg).c
}

// costParts is the what-if pipeline behind Cost: count the call, gather
// the configuration's members on the query's tables, fold the text's
// compiled plan, and record atomic costs for the elision memo. It returns
// the cost together with the access+join subtotal the bound derivations
// need. Once the plan holds every atom the call needs, the call allocates
// nothing: the relevant members and their atoms are gathered into stack
// buffers.
func (o *Optimizer) costParts(q *workload.Query, cfg *index.Configuration) planCost {
	start := time.Now() //lint:allow determinism what-if latency metric only; costs are computed from the plan, not the clock
	defer func() {
		o.costNanos.Add(time.Since(start).Nanoseconds())
	}()
	o.calls.Add(1)
	o.plans.Add(1)
	var relBuf [16]*index.Member
	rel := relevantMembers(relBuf[:0], q, cfg)
	p := o.planFor(q.Text)
	v := o.computeCostParts(q, rel, p)
	o.recordParts(&p.bounds, rel, v)
	return v
}

// WorkloadCostCtx returns the weighted cost Σ w(q)·C(q) of the workload
// under the configuration, fanning the per-query what-if calls across
// parallelism workers (0 = GOMAXPROCS, 1 = serial). The weighted sum is
// reduced in input order, so the result is bit-identical at any
// parallelism. A ctx cancellation or a contained worker panic aborts the
// scan and is returned.
func (o *Optimizer) WorkloadCostCtx(ctx context.Context, w *workload.Workload, cfg *index.Configuration, parallelism int) (float64, error) {
	vals, err := parallel.Map(ctx, parallel.Workers(parallelism), len(w.Queries),
		func(i int) float64 {
			q := w.Queries[i]
			wt := q.Weight
			if wt <= 0 {
				wt = 1
			}
			return wt * o.Cost(q, cfg)
		})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, v := range vals {
		total += v
	}
	return total, nil
}

// FillCosts sets each query's Cost field to its cost under the current
// physical design (empty configuration) — producing the "input workload
// with optimizer estimated costs" the paper's problem statement assumes.
// The what-if calls fan out across every core. It panics only where
// FillCostsCtx would return a contained worker panic; ctx-aware callers
// use FillCostsCtx.
func (o *Optimizer) FillCosts(w *workload.Workload) {
	if err := o.FillCostsCtx(context.Background(), w, 0); err != nil {
		panic(err)
	}
}

// FillCostsCtx is FillCosts with an explicit parallelism (0 = GOMAXPROCS,
// 1 = serial) and cancellation. Costs are computed in parallel but
// assigned serially, so workloads that alias the same *Query stay
// race-free. On a non-nil error (cancellation or a contained worker
// panic) no Cost field has been assigned — the workload is left
// untouched rather than partially costed.
func (o *Optimizer) FillCostsCtx(ctx context.Context, w *workload.Workload, parallelism int) error {
	costs, err := parallel.Map(ctx, parallel.Workers(parallelism), len(w.Queries),
		func(i int) float64 { return o.Cost(w.Queries[i], nil) })
	if err != nil {
		return err
	}
	for i, q := range w.Queries {
		q.Cost = costs[i]
	}
	return nil
}

// Calls returns the number of what-if invocations so far.
func (o *Optimizer) Calls() int64 { return o.calls.Value() }

// Plans returns the number of plan computations so far: one per what-if
// call, so it equals Calls. It stays for the end-to-end benchmark's
// trace, which still reads it; ROADMAP item 1's benchmark change removes
// it together with CacheStats.
func (o *Optimizer) Plans() int64 { return o.plans.Value() }

// CostTime returns the cumulative wall time spent inside Cost — the
// "time on optimizer calls" series of Fig. 2a. Under concurrency this is
// summed per call, so it can exceed wall-clock time.
func (o *Optimizer) CostTime() time.Duration {
	return time.Duration(o.costNanos.Value())
}

// CacheStats reports 0 hits and the plan computations as misses: every
// what-if call is computed from its compiled plan, so nothing is answered
// from a result cache. It stays for the end-to-end benchmark's trace,
// which still reads it; ROADMAP item 1's benchmark change removes it and
// the hits column together.
func (o *Optimizer) CacheStats() (hits, misses int64) {
	return 0, o.plans.Value()
}

// ResetCounters zeroes the call counters, timers and elision counters
// (the compiled plans and the elision memo are retained)
// — the multi-run experiment hook, so harness invocations report per-run
// rather than cumulative what-if statistics. When the optimizer shares a
// registry, only its own metrics are reset.
func (o *Optimizer) ResetCounters() {
	o.calls.Reset()
	o.plans.Reset()
	o.costNanos.Reset()
	o.elideHits.Reset()
	o.elidePrunes.Reset()
}

// computeCostParts plans the query under the configuration whose members
// on the query's tables are rel: it folds their access atoms through the
// query's plan skeleton (DESIGN.md §17), keeping the access+join subtotal
// alongside the total for the elision bounds.
func (o *Optimizer) computeCostParts(q *workload.Query, rel []*index.Member, p *queryPlan) planCost {
	if q.Info == nil {
		return planCost{}
	}
	var atomBuf [16]*accessAtom
	s, atoms := p.compiled(o, q, rel, atomBuf[:0])
	var curBuf [16]int32
	cur := curBuf[:]
	if len(atoms) > len(cur) {
		cur = make([]int32, len(atoms))
	}
	return s.eval(o.par, atoms, cur[:len(atoms)])
}

// skeletonFor returns q's plan skeleton, building it if needed. q.Info
// must be non-nil.
func (o *Optimizer) skeletonFor(q *workload.Query) *planSkeleton {
	s, _ := o.planFor(q.Text).compiled(o, q, nil, nil)
	return s
}

// relevantMembers appends to dst the configuration's members on tables
// the query references, sorted by canonical ID. Only those can change the
// query's plan: they are the atoms a call folds, and the key the
// atomic-cost memo sees.
//
//lint:hotpath gathers the members every what-if call folds
func relevantMembers(dst []*index.Member, q *workload.Query, cfg *index.Configuration) []*index.Member {
	if cfg == nil || q.Info == nil {
		return dst
	}
	n := len(dst)
	for _, t := range q.Info.Tables {
		dst = cfg.AppendOnTable(dst, t)
	}
	slices.SortFunc(dst[n:], compareMemberIDs)
	return dst
}

func compareMemberIDs(a, b *index.Member) int { return strings.Compare(a.ID, b.ID) }
