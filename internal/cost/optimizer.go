package cost

import (
	"context"
	"fmt"
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

// Injector is the fault-injection hook of the what-if interface
// (DESIGN.md §9). It is consulted once per plan-computation attempt, so on
// every what-if call. Returning a non-nil error simulates a transient
// what-if failure, which the optimizer's retry policy absorbs; the
// injector may also sleep (latency injection) or panic (crash injection,
// contained by the worker pool). Implementations must be safe for
// concurrent use. internal/faults provides the deterministic seeded
// implementation.
type Injector interface {
	PlanFault(queryText, configFingerprint string, attempt int) error
}

// RetryPolicy bounds the retries around transient what-if failures:
// MaxAttempts tries per plan (1 = no retry) with exponential backoff
// starting at BaseDelay and capped at MaxDelay. The backoff sleep honours
// context cancellation.
type RetryPolicy struct {
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
}

// DefaultRetryPolicy returns the standard policy: 3 attempts with
// 1ms → 2ms → … backoff capped at 50ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

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
// Failure model: with no injector installed the optimizer cannot fail and
// Cost never panics. Under fault injection (SetInjector) transient plan
// failures are retried per the RetryPolicy; CostContext returns an error
// when retries are exhausted or the context is cancelled mid-retry, and
// the faults/ counters (faults/retry/attempts, faults/retry/exhausted,
// faults/cancelled) record the outcomes.
type Optimizer struct {
	cat *catalog.Catalog
	par Params
	reg *telemetry.Registry

	// inj and retry configure the failure model. They are set once during
	// setup (SetInjector/SetRetryPolicy) before concurrent use.
	inj   Injector
	retry RetryPolicy

	calls     *telemetry.Counter // cost/whatif/calls: invocations
	plans     *telemetry.Counter // cost/whatif/plans: plan computations (one per successful call)
	costNanos *telemetry.Counter // cost/whatif/cost_nanos (Fig. 2's optimizer share)

	retryAttempts  *telemetry.Counter // faults/retry/attempts: backoff retries taken
	retryExhausted *telemetry.Counter // faults/retry/exhausted: plans failed after all attempts
	cancelled      *telemetry.Counter // faults/cancelled: plans aborted by ctx

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
// cumulative cost time, the elision counters, and the faults/
// retry/cancellation counters — in reg, so a pipeline-wide registry
// attributes what-if work to phases.
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
		cat:            cat,
		par:            par,
		reg:            reg,
		retry:          DefaultRetryPolicy(),
		elideIDs:       make(map[string]int32),
		calls:          reg.Counter("cost/whatif/calls"),
		plans:          reg.Counter("cost/whatif/plans"),
		costNanos:      reg.Counter("cost/whatif/cost_nanos"),
		retryAttempts:  reg.Counter("faults/retry/attempts"),
		retryExhausted: reg.Counter("faults/retry/exhausted"),
		cancelled:      reg.Counter("faults/cancelled"),
		elideHits:      reg.Counter("cost/elide/hits"),
		elidePrunes:    reg.Counter("cost/elide/bound_prunes"),
	}
	for i := range o.shards {
		o.shards[i].plans = make(map[string]*queryPlan)
	}
	return o
}

// SetInjector installs a fault injector on the what-if interface (nil
// removes it). Call during setup, before the optimizer is used
// concurrently.
func (o *Optimizer) SetInjector(inj Injector) { o.inj = inj }

// SetRetryPolicy replaces the transient-failure retry policy. Call during
// setup, before the optimizer is used concurrently.
func (o *Optimizer) SetRetryPolicy(p RetryPolicy) { o.retry = p }

// RetryPolicy returns the active retry policy.
func (o *Optimizer) RetryPolicy() RetryPolicy { return o.retry }

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
// indexes). Safe for concurrent use.
//
// Cost cannot fail without a fault injector; under injection it panics when
// retries are exhausted (legacy surface — ctx-aware callers use
// CostContext, and the worker pool contains such panics as errors).
func (o *Optimizer) Cost(q *workload.Query, cfg *index.Configuration) float64 {
	c, err := o.CostContext(context.Background(), q, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// CostContext is Cost with cancellation and failure reporting: the ctx
// bounds retry backoff sleeps and aborts pending plan computations, and
// injected what-if failures that survive the retry policy surface as
// errors.
func (o *Optimizer) CostContext(ctx context.Context, q *workload.Query, cfg *index.Configuration) (float64, error) {
	v, err := o.costParts(ctx, q, cfg)
	if err != nil {
		return 0, err
	}
	return v.c, nil
}

// costParts is the what-if pipeline behind CostContext: count the call,
// gather the configuration's members on the query's tables, fetch the
// text's compiled plan, fold it under the injector and retry policy, and
// record atomic costs for the elision memo. It returns the cost together
// with the access+join subtotal the bound derivations need. Once the
// plan holds every atom the call needs, the call allocates nothing: the
// relevant members and their atoms are gathered into stack buffers.
func (o *Optimizer) costParts(ctx context.Context, q *workload.Query, cfg *index.Configuration) (planCost, error) {
	start := time.Now() //lint:allow determinism what-if latency metric only; costs are computed from the plan, not the clock
	defer func() {
		o.costNanos.Add(time.Since(start).Nanoseconds())
	}()
	o.calls.Add(1)
	var relBuf [16]*index.Member
	rel := relevantMembers(relBuf[:0], q, cfg)
	p := o.planFor(q.Text)
	v, err := o.planWithRetry(ctx, q, rel, p)
	if err != nil {
		return planCost{}, err
	}
	o.recordParts(&p.bounds, rel, v)
	return v, nil
}

// planWithRetry runs one plan computation under the injector and retry
// policy: transient injected failures back off exponentially (honouring
// ctx) and retry up to MaxAttempts times.
func (o *Optimizer) planWithRetry(ctx context.Context, q *workload.Query, rel []*index.Member, p *queryPlan) (planCost, error) {
	var fp string
	if o.inj != nil {
		fp = fingerprint(rel)
	}
	attempts := o.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	delay := o.retry.BaseDelay
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			o.cancelled.Inc()
			return planCost{}, err
		}
		if attempt > 0 {
			o.retryAttempts.Inc()
			if delay > 0 {
				t := time.NewTimer(delay)
				select {
				case <-ctx.Done():
					t.Stop()
					o.cancelled.Inc()
					return planCost{}, ctx.Err()
				case <-t.C:
				}
				delay *= 2
				if o.retry.MaxDelay > 0 && delay > o.retry.MaxDelay {
					delay = o.retry.MaxDelay
				}
			}
		}
		if o.inj != nil {
			if err := o.inj.PlanFault(q.Text, fp, attempt); err != nil {
				lastErr = err
				continue
			}
		}
		o.plans.Add(1)
		return o.computeCostParts(q, rel, p), nil
	}
	o.retryExhausted.Inc()
	return planCost{}, fmt.Errorf("cost: what-if plan for query %d failed after %d attempts: %w", q.ID, attempts, lastErr)
}

// WorkloadCostCtx returns the weighted cost Σ w(q)·C(q) of the workload
// under the configuration, fanning the per-query what-if calls across
// parallelism workers (0 = GOMAXPROCS, 1 = serial). The weighted sum is
// reduced in input order, so the result is bit-identical at any
// parallelism. The first what-if failure (retries exhausted) or a ctx
// cancellation aborts the scan and is returned.
func (o *Optimizer) WorkloadCostCtx(ctx context.Context, w *workload.Workload, cfg *index.Configuration, parallelism int) (float64, error) {
	type qc struct {
		v   float64
		err error
	}
	vals, err := parallel.Map(ctx, parallel.Workers(parallelism), len(w.Queries),
		func(i int) qc {
			q := w.Queries[i]
			wt := q.Weight
			if wt <= 0 {
				wt = 1
			}
			c, err := o.CostContext(ctx, q, cfg)
			return qc{wt * c, err}
		})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, r := range vals {
		if r.err != nil {
			return 0, r.err
		}
		total += r.v
	}
	return total, nil
}

// FillCosts sets each query's Cost field to its cost under the current
// physical design (empty configuration) — producing the "input workload
// with optimizer estimated costs" the paper's problem statement assumes.
// The what-if calls fan out across every core. Panics under fault
// injection when retries are exhausted; ctx-aware callers use
// FillCostsCtx.
func (o *Optimizer) FillCosts(w *workload.Workload) {
	if err := o.FillCostsCtx(context.Background(), w, 0); err != nil {
		panic(err)
	}
}

// FillCostsCtx is FillCosts with an explicit parallelism (0 = GOMAXPROCS,
// 1 = serial), cancellation and failure reporting. Costs are computed in
// parallel but assigned serially, so workloads that alias the same *Query
// stay race-free. On a non-nil error no Cost field has been assigned —
// the workload is left untouched rather than partially costed.
func (o *Optimizer) FillCostsCtx(ctx context.Context, w *workload.Workload, parallelism int) error {
	type qc struct {
		v   float64
		err error
	}
	costs, err := parallel.Map(ctx, parallel.Workers(parallelism), len(w.Queries),
		func(i int) qc {
			c, err := o.CostContext(ctx, w.Queries[i], nil)
			return qc{c, err}
		})
	if err != nil {
		return err
	}
	for _, r := range costs {
		if r.err != nil {
			return r.err
		}
	}
	for i, q := range w.Queries {
		q.Cost = costs[i].v
	}
	return nil
}

// Calls returns the number of what-if invocations so far.
func (o *Optimizer) Calls() int64 { return o.calls.Value() }

// Plans returns the number of plan computations so far: one per
// successful what-if call.
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

// FaultStats reports the failure-model counters: backoff retries taken,
// plans that failed after exhausting the retry policy, and plans aborted
// by context cancellation.
func (o *Optimizer) FaultStats() (retries, exhausted, cancelled int64) {
	return o.retryAttempts.Value(), o.retryExhausted.Value(), o.cancelled.Value()
}

// ResetCounters zeroes the call counters, timers, elision counters and
// faults counters (the compiled plans and the elision memo are retained)
// — the multi-run experiment hook, so harness invocations report per-run
// rather than cumulative what-if statistics. When the optimizer shares a
// registry, only its own metrics are reset.
func (o *Optimizer) ResetCounters() {
	o.calls.Reset()
	o.plans.Reset()
	o.costNanos.Reset()
	o.retryAttempts.Reset()
	o.retryExhausted.Reset()
	o.cancelled.Reset()
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
// query's plan: they are the atoms a call folds, and the fingerprint the
// fault injector and the atomic-cost memo see.
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

// fingerprint is the relevant configuration as the fault injector sees
// it: the members' IDs, sorted, joined by ";" ("" for none).
func fingerprint(rel []*index.Member) string {
	var b strings.Builder
	for i, m := range rel {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(m.ID)
	}
	return b.String()
}
