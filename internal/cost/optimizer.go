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
// (DESIGN.md §9). It is consulted once per plan-computation attempt (cache
// misses only — cached costs never refetch). Returning a non-nil error
// simulates a transient what-if failure, which the optimizer's retry
// policy absorbs; the injector may also sleep (latency injection) or panic
// (crash injection, contained by the worker pool). Implementations must be
// safe for concurrent use. internal/faults provides the deterministic
// seeded implementation.
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
// — the "what-if" API of Section 2.1. It caches (query, relevant-config)
// pairs and counts invocations so the advisor can report optimizer-call
// statistics (Fig. 2).
//
// All methods are safe for concurrent use. The cache is sharded by query
// text and the counters are atomics, so parallel callers only contend when
// two queries hash to the same shard. Concurrent identical misses share
// one plan computation (singleflight, costPartsFlight).
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

	calls       *telemetry.Counter // cost/whatif/calls: invocations (hits included)
	plans       *telemetry.Counter // cost/whatif/plans: plan computations (misses)
	costNanos   *telemetry.Counter // cost/whatif/cost_nanos (Fig. 2's optimizer share)
	cacheHits   *telemetry.Counter // cost/cache/hits: calls answered from the cache
	cacheMisses *telemetry.Counter // cost/cache/misses: calls that led a plan computation

	retryAttempts  *telemetry.Counter // faults/retry/attempts: backoff retries taken
	retryExhausted *telemetry.Counter // faults/retry/exhausted: plans failed after all attempts
	cancelled      *telemetry.Counter // faults/cancelled: plans aborted by ctx

	// Elision layer (elide.go, DESIGN.md §16). The memo maps are guarded
	// by elideMu.
	elideMu     sync.Mutex
	elideBounds map[string]*QueryBounds // per query text
	elideIDs    map[string]int32        // interned index identities

	elideHits   *telemetry.Counter // cost/elide/hits: what-if calls elided
	elidePrunes *telemetry.Counter // cost/elide/bound_prunes: candidates pruned by bounds
	elideWaits  *telemetry.Counter // cost/elide/singleflight_waits: duplicate in-flight computations coalesced

	shards [cacheShardCount]cacheShard
}

// NewOptimizer returns a what-if optimizer over the catalog.
func NewOptimizer(cat *catalog.Catalog) *Optimizer {
	return NewOptimizerWithParams(cat, DefaultParams())
}

// NewOptimizerWithParams returns an optimizer with custom cost-model
// constants — the ablation/calibration path.
func NewOptimizerWithParams(cat *catalog.Catalog, par Params) *Optimizer {
	return NewOptimizerWithTelemetry(cat, par, nil)
}

// NewOptimizerWithTelemetry registers the optimizer's metrics — what-if
// call/plan counters, cumulative cost time, cache hits/misses,
// and the faults/ retry/cancellation counters — in reg, so a pipeline-wide
// registry attributes what-if work to phases.
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
		elideBounds:    make(map[string]*QueryBounds),
		elideIDs:       make(map[string]int32),
		calls:          reg.Counter("cost/whatif/calls"),
		plans:          reg.Counter("cost/whatif/plans"),
		costNanos:      reg.Counter("cost/whatif/cost_nanos"),
		cacheHits:      reg.Counter("cost/cache/hits"),
		cacheMisses:    reg.Counter("cost/cache/misses"),
		retryAttempts:  reg.Counter("faults/retry/attempts"),
		retryExhausted: reg.Counter("faults/retry/exhausted"),
		cancelled:      reg.Counter("faults/cancelled"),
		elideHits:      reg.Counter("cost/elide/hits"),
		elidePrunes:    reg.Counter("cost/elide/bound_prunes"),
		elideWaits:     reg.Counter("cost/elide/singleflight_waits"),
	}
	for i := range o.shards {
		o.shards[i].entries = make(map[string]*queryEntry)
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

// shardFor picks the cache shard for a query text.
//
//lint:hotpath what-if cache lookup, on every call
func (o *Optimizer) shardFor(text string) *cacheShard {
	return &o.shards[hashString(hashSeed, text)&(cacheShardCount-1)]
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
// errors. Cache hits always succeed regardless of ctx.
func (o *Optimizer) CostContext(ctx context.Context, q *workload.Query, cfg *index.Configuration) (float64, error) {
	v, err := o.costParts(ctx, q, cfg)
	if err != nil {
		return 0, err
	}
	return v.c, nil
}

// costParts is the full what-if pipeline behind CostContext: counters,
// cache lookup, singleflight, plan computation with retry, cache store,
// and atomic-cost recording for the elision memo. It returns
// the cost together with the access+join subtotal the bound derivations
// need. A cache hit allocates nothing: the relevant members are gathered
// into a stack buffer and the cache is keyed by a hash of their IDs.
func (o *Optimizer) costParts(ctx context.Context, q *workload.Query, cfg *index.Configuration) (cacheVal, error) {
	start := time.Now() //lint:allow determinism what-if latency metric only; costs are computed from the plan, not the clock
	defer func() {
		o.costNanos.Add(time.Since(start).Nanoseconds())
	}()
	o.calls.Add(1)
	var relBuf [16]*index.Member
	rel := relevantMembers(relBuf[:0], q, cfg)
	key := relevantKey(rel)

	sh := o.shardFor(q.Text)
	v, e, ok := sh.lookup(q.Text, key, rel)
	if ok {
		o.cacheHits.Inc()
		return v, nil
	}
	if e == nil {
		e = sh.entry(q.Text)
	}
	return o.costPartsFlight(ctx, q, rel, key, sh, e)
}

// costPartsFlight resolves a cache miss under singleflight: concurrent
// identical (query text, relevant configuration) misses elect one leader
// that computes the plan while the others wait on its pending record, so
// parallel enumeration never computes the same probe twice. Cost values
// are pure functions of (query, configuration), so coalescing is
// invisible; a waiter counts no plan and no miss.
func (o *Optimizer) costPartsFlight(ctx context.Context, q *workload.Query, rel []*index.Member, key uint64, sh *cacheShard, e *queryEntry) (cacheVal, error) {
	for {
		sh.mu.Lock()
		r := e.find(key, rel)
		if r != nil && !r.pending {
			sh.mu.Unlock()
			o.cacheHits.Inc()
			return r.v, nil
		}
		if r != nil {
			if r.done == nil {
				r.done = make(chan struct{})
			}
			done := r.done
			sh.mu.Unlock()
			o.elideWaits.Inc()
			select {
			case <-ctx.Done():
				o.cancelled.Inc()
				return cacheVal{}, ctx.Err()
			case <-done:
			}
			if r.err != nil {
				// The leader failed. Retry as (potentially) a new leader:
				// with the deterministic injector our own attempt sequence
				// fails or succeeds exactly as it would have unshared, so
				// callers observe reference failure semantics.
				continue
			}
			return r.v, nil
		}
		r = &costRec{ids: memberIDs(rel), pending: true}
		e.insert(key, r)
		sh.mu.Unlock()
		o.cacheMisses.Inc()
		return o.runFlight(ctx, q, rel, key, sh, e, r)
	}
}

// runFlight executes a leader plan computation and publishes the result —
// to the cache, to any waiters, and (on success) to the elision memo. A
// failed computation, or a panic out of it (crash injection), withdraws
// the record before releasing the waiters, so they never hang on a dead
// leader and the next caller computes afresh.
func (o *Optimizer) runFlight(ctx context.Context, q *workload.Query, rel []*index.Member, key uint64, sh *cacheShard, e *queryEntry, r *costRec) (v cacheVal, err error) {
	committed := false
	defer func() {
		if !committed {
			o.land(sh, e, key, r, cacheVal{}, fmt.Errorf("cost: what-if plan computation for query %d panicked", q.ID))
		}
	}()
	v, err = o.planWithRetry(ctx, q, rel, e)
	committed = true
	o.land(sh, e, key, r, v, err)
	if err != nil {
		return cacheVal{}, err
	}
	o.recordParts(q, rel, v)
	return v, nil
}

// land ends a pending record's computation with its outcome.
func (o *Optimizer) land(sh *cacheShard, e *queryEntry, key uint64, r *costRec, v cacheVal, err error) {
	sh.mu.Lock()
	if err != nil {
		e.remove(key, r)
	}
	r.v, r.err, r.pending = v, err, false
	done := r.done
	sh.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// planWithRetry runs one plan computation under the injector and retry
// policy: transient injected failures back off exponentially (honouring
// ctx) and retry up to MaxAttempts times.
func (o *Optimizer) planWithRetry(ctx context.Context, q *workload.Query, rel []*index.Member, e *queryEntry) (cacheVal, error) {
	// The injector sees the relevant-configuration fingerprint: the
	// members' IDs, sorted, joined by ";" ("" for none).
	var fingerprint string
	if o.inj != nil {
		fingerprint = strings.Join(memberIDs(rel), ";")
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
			return cacheVal{}, err
		}
		if attempt > 0 {
			o.retryAttempts.Inc()
			if delay > 0 {
				t := time.NewTimer(delay)
				select {
				case <-ctx.Done():
					t.Stop()
					o.cancelled.Inc()
					return cacheVal{}, ctx.Err()
				case <-t.C:
				}
				delay *= 2
				if o.retry.MaxDelay > 0 && delay > o.retry.MaxDelay {
					delay = o.retry.MaxDelay
				}
			}
		}
		if o.inj != nil {
			if err := o.inj.PlanFault(q.Text, fingerprint, attempt); err != nil {
				lastErr = err
				continue
			}
		}
		o.plans.Add(1)
		return o.computeCostParts(q, rel, e), nil
	}
	o.retryExhausted.Inc()
	return cacheVal{}, fmt.Errorf("cost: what-if plan for query %d failed after %d attempts: %w", q.ID, attempts, lastErr)
}

// WorkloadCost returns the weighted cost Σ w(q)·C(q) of the workload under
// the configuration, fanning the per-query what-if calls across every core.
func (o *Optimizer) WorkloadCost(w *workload.Workload, cfg *index.Configuration) float64 {
	return o.WorkloadCostN(w, cfg, 0)
}

// WorkloadCostN is WorkloadCost with an explicit parallelism (0 =
// GOMAXPROCS, 1 = serial). The weighted sum is reduced in input order, so
// the result is bit-identical at any parallelism. Panics under fault
// injection when retries are exhausted; ctx-aware callers use
// WorkloadCostCtx.
func (o *Optimizer) WorkloadCostN(w *workload.Workload, cfg *index.Configuration, parallelism int) float64 {
	c, err := o.WorkloadCostCtx(context.Background(), w, cfg, parallelism)
	if err != nil {
		panic(err)
	}
	return c
}

// WorkloadCostCtx is WorkloadCostN with cancellation and failure
// reporting: the first what-if failure (retries exhausted) or a ctx
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
// The what-if calls fan out across every core.
func (o *Optimizer) FillCosts(w *workload.Workload) {
	o.FillCostsN(w, 0)
}

// FillCostsN is FillCosts with an explicit parallelism (0 = GOMAXPROCS,
// 1 = serial). Costs are computed in parallel but assigned serially, so
// workloads that alias the same *Query stay race-free.
func (o *Optimizer) FillCostsN(w *workload.Workload, parallelism int) {
	if err := o.FillCostsCtx(context.Background(), w, parallelism); err != nil {
		panic(err)
	}
}

// FillCostsCtx is FillCostsN with cancellation and failure reporting. On a
// non-nil error no Cost field has been assigned — the workload is left
// untouched rather than partially costed.
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

// Plans returns the number of cache-miss plan computations so far.
func (o *Optimizer) Plans() int64 { return o.plans.Value() }

// CostTime returns the cumulative wall time spent inside Cost — the
// "time on optimizer calls" series of Fig. 2a. Under concurrency this is
// summed per call, so it can exceed wall-clock time.
func (o *Optimizer) CostTime() time.Duration {
	return time.Duration(o.costNanos.Value())
}

// CacheStats returns the cache counters: hits are calls answered from the
// what-if cache, misses are plan computations.
func (o *Optimizer) CacheStats() (hits, misses int64) {
	return o.cacheHits.Value(), o.cacheMisses.Value()
}

// FaultStats reports the failure-model counters: backoff retries taken,
// plans that failed after exhausting the retry policy, and plans aborted
// by context cancellation.
func (o *Optimizer) FaultStats() (retries, exhausted, cancelled int64) {
	return o.retryAttempts.Value(), o.retryExhausted.Value(), o.cancelled.Value()
}

// ResetCounters zeroes the call counters, timers, cache counters, and
// faults counters (the cache itself is retained) — the multi-run
// experiment hook, so harness invocations report per-run rather than
// cumulative what-if statistics. When the optimizer shares a registry,
// only its own metrics are reset.
func (o *Optimizer) ResetCounters() {
	o.calls.Reset()
	o.plans.Reset()
	o.costNanos.Reset()
	o.retryAttempts.Reset()
	o.retryExhausted.Reset()
	o.cancelled.Reset()
	o.cacheHits.Reset()
	o.cacheMisses.Reset()
	o.elideHits.Reset()
	o.elidePrunes.Reset()
	o.elideWaits.Reset()
}

// computeCostParts plans the query under the configuration whose members
// on the query's tables are rel: it folds their access atoms through the
// query's plan skeleton (DESIGN.md §17), keeping the access+join subtotal
// alongside the total for the elision bounds.
func (o *Optimizer) computeCostParts(q *workload.Query, rel []*index.Member, e *queryEntry) cacheVal {
	if q.Info == nil {
		return cacheVal{}
	}
	s := e.skeleton(o, q)
	var atomBuf [16]*accessAtom
	atoms := e.atomsFor(o, s, rel, atomBuf[:0])
	var curBuf [16]int32
	cur := curBuf[:]
	if len(atoms) > len(cur) {
		cur = make([]int32, len(atoms))
	}
	return s.eval(o.par, atoms, cur[:len(atoms)])
}

// skeletonFor returns q's plan skeleton from the cache, building it if
// needed. q.Info must be non-nil.
func (o *Optimizer) skeletonFor(q *workload.Query) *planSkeleton {
	return o.shardFor(q.Text).entry(q.Text).skeleton(o, q)
}

// relevantMembers appends to dst the configuration's members on tables
// the query references, sorted by canonical ID. Only those can change the
// query's plan, so cache entries are reused across configurations that
// differ only on irrelevant tables — the same trick commercial advisors
// use to suppress redundant what-if calls.
//
//lint:hotpath what-if cache key, built on every call
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
