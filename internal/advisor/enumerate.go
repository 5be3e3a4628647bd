package advisor

import (
	"context"
	"math"

	"isum/internal/cost"
	"isum/internal/faults"
	"isum/internal/index"
	"isum/internal/parallel"
	"isum/internal/workload"
)

// enumerate greedily builds the configuration: at each step the candidate
// with the largest weighted workload improvement is added, until the
// count/storage constraints bind, no candidate improves the workload, or
// ctx is cancelled (the anytime path: res is marked Partial and the
// configuration built so far is returned — a round the pool cut short is
// discarded whole, so every index in the result was a completed greedy
// choice). A contained worker panic returns the error.
//
// After setup, each round runs three steps over one enumeration value:
// prune rules out the candidates the cost bounds prove cannot win, probe
// measures every other candidate's gain on the worker pool, and commit
// adds the winner. The argmax reduces the probes serially in candidate
// order with a 1e-9 margin, so the chosen index is the serial scan's at
// any parallelism. None of the elisions in prune and probe (DESIGN.md
// §16) can change the chosen index, the per-round cost updates, or
// ConfigsExplored.
func (a *Advisor) enumerate(ctx context.Context, w *workload.Workload, cands []scored, res *Result) (*index.Configuration, error) {
	e := &enumeration{a: a, w: w, cfg: index.NewConfiguration()}
	if err := e.setup(ctx, cands); err != nil {
		if faults.IsCancellation(err) {
			res.Partial = true
			return e.cfg, nil
		}
		return nil, err
	}
	workers := parallel.Workers(a.opts.Parallelism)
	reg := a.opts.Telemetry
	roundsCtr := reg.Counter("advisor/enumerate/rounds")
	for a.opts.MaxIndexes <= 0 || e.cfg.Len() < a.opts.MaxIndexes {
		if ctx.Err() != nil {
			res.Partial = true
			break // anytime mode: return the configuration built so far
		}
		rsp := reg.Start("advisor/enumerate/round")
		roundsCtr.Inc()
		e.prune()
		probes, mapErr := parallel.Map(ctx, workers, len(e.cands), e.probe)
		if mapErr != nil && !faults.IsCancellation(mapErr) {
			rsp.End()
			return nil, mapErr
		}
		if mapErr != nil {
			res.Partial = true
			rsp.SetAttr("outcome", "cancelled")
			rsp.End()
			break // discard the interrupted round's partial probes
		}
		best, bestGain := -1, 0.0
		for i, p := range probes {
			if p.newCosts == nil {
				continue
			}
			res.ConfigsExplored++
			if p.gain > bestGain+1e-9 {
				best, bestGain = i, p.gain
			}
		}
		if best < 0 {
			rsp.SetAttr("outcome", "no-gain")
			rsp.End()
			break
		}
		chosen := e.commit(best, probes[best].newCosts)
		res.Rounds++
		if reg != nil {
			rsp.SetAttr("chosen", chosen.ID)
			rsp.SetAttr("gain", bestGain)
			rsp.SetAttr("probed", len(probes))
		}
		rsp.End()
	}
	return e.cfg, nil
}

// enumeration is one greedy enumeration's working state: the configuration
// built so far, the per-query costs under it and their elision bounds, and
// the candidates not yet chosen.
type enumeration struct {
	a       *Advisor
	w       *workload.Workload
	cfg     *index.Configuration
	used    int64 // cfg's size against the storage budget
	cands   []enumCand
	wts     []float64 // per query: weight, ≤ 0 counting as 1
	curCost []float64 // per query: weighted cost under cfg
	lbW     []float64 // per query: weighted union lower bound; −Inf when unknown
	bounds  []*cost.QueryBounds
	// Per query: how many cfg indexes lie on its tables, and the version
	// of that relevant set. Commit bumps both for the chosen index's
	// table's queries; the version stamps the cross-round probe memo.
	cfgRel, qVer []int
}

// enumCand is one remaining candidate and what the rounds keep about it.
type enumCand struct {
	index.Member       // the index with its canonical ID; probes view cfg plus it
	size         int64 // against the storage budget
	id           int32 // interned identity for the bound lookups
	onTable      []int // queries on its table, the only plans it can change
	rel          []int // the onTable queries the planner can consult it for
	// memo is the cross-round probe memo: query → weighted cost, stamped
	// with the query's relevant-set version. A probe's cost depends only
	// on the trial configuration's indexes on the query's tables, so the
	// value holds verbatim until an index lands on one of them. Only this
	// candidate's probe touches the map within a round, and rounds are
	// separated by the pool's join, so it needs no lock.
	memo   map[int]probeMemo
	pruned bool // set by prune for the current round
}

type probeMemo struct {
	ver int
	c   float64 // weighted trial cost, exactly as the real call computed it
}

// probeResult is one candidate's evaluation against the current
// configuration. A candidate over the storage budget has nil newCosts and
// counts no exploration.
type probeResult struct {
	gain     float64
	newCosts map[int]float64 // query → weighted cost with the candidate, where it gains
}

// offer records a query whose weighted cost c under the trial
// configuration undercuts its current cost cur.
func (p *probeResult) offer(qi int, c, cur float64) {
	if c < cur {
		p.gain += cur - c
		p.newCosts[qi] = c
	}
}

// setup costs every query under the empty configuration (from the atomic
// memo when the initial workload costing already holds it) and primes
// each query's lower bound with one what-if call against the union of
// every candidate: every configuration the enumeration can probe is a
// subset of the union, so the bound holds for all of them. Then it builds
// the candidate slice, with each candidate's structurally relevant
// queries: a candidate the planner can never consult for a query
// (cost.IndexRelevant) leaves that query's cost bitwise unchanged.
func (e *enumeration) setup(ctx context.Context, cands []scored) error {
	o, qs := e.a.o, e.w.Queries
	workers := parallel.Workers(e.a.opts.Parallelism)
	e.wts = make([]float64, len(qs))
	for i, q := range qs {
		e.wts[i] = queryWeight(q)
	}
	var err error
	e.curCost, err = parallel.Map(ctx, workers, len(qs), func(i int) float64 {
		if b, ok := o.QueryBounds(qs[i]).BaseCost(); ok {
			o.CountElidedCalls(1)
			return e.wts[i] * b
		}
		return e.wts[i] * o.Cost(qs[i], e.cfg)
	})
	if err != nil {
		return err
	}
	union := index.NewConfiguration()
	for _, c := range cands {
		union.Add(c.ix)
	}
	if err := parallel.ForEach(ctx, workers, len(qs), func(i int) {
		o.PrimeUnionBound(qs[i], union)
	}); err != nil {
		return err
	}
	e.bounds = make([]*cost.QueryBounds, len(qs))
	e.lbW = make([]float64, len(qs))
	e.cfgRel = make([]int, len(qs))
	e.qVer = make([]int, len(qs))
	byTable := map[string][]int{}
	for i, q := range qs {
		e.bounds[i] = o.QueryBounds(q)
		e.lbW[i] = math.Inf(-1)
		if lb, ok := e.bounds[i].Lower(); ok {
			e.lbW[i] = e.wts[i] * lb
		}
		if q.Info != nil {
			for _, t := range q.Info.Tables {
				byTable[t] = append(byTable[t], i)
			}
		}
	}
	e.cands = make([]enumCand, len(cands))
	for i, s := range cands {
		c := enumCand{Member: index.NewMember(s.ix), size: s.ix.SizeBytes(o.Catalog())}
		c.id = o.InternIndexID(c.ID)
		c.onTable = byTable[lower(s.ix.Table)]
		c.rel = make([]int, 0, len(c.onTable))
		for _, qi := range c.onTable {
			if cost.IndexRelevant(qs[qi], s.ix) {
				c.rel = append(c.rel, qi)
			}
		}
		e.cands[i] = c
	}
	return nil
}

// fits reports whether c can join the configuration within the storage
// budget; a candidate that cannot is neither pruned nor probed.
func (e *enumeration) fits(c *enumCand) bool {
	b := e.a.opts.StorageBudget
	return b <= 0 || e.used+c.size <= b
}

// prune is the round's serial bound pass in candidate order. bStar is the
// best pessimistic gain (via upper bounds) of an earlier unpruned
// candidate, a gain some earlier probe is guaranteed to reach, and a
// candidate's optimistic cap sums current − lower bound over its relevant
// queries. cap ≤ bStar proves the earlier candidate's true gain is at
// least this one's, and the argmax breaks ties toward the earlier
// position, so this candidate could never be chosen: its probe is elided
// whole, and it still counts as explored, exactly as its costed probe
// would.
func (e *enumeration) prune() {
	o := e.a.o
	bStar := 0.0
	for i := range e.cands {
		c := &e.cands[i]
		c.pruned = false
		if !e.fits(c) {
			continue // not probed: no witness, no prune
		}
		var gcap float64
		for _, qi := range c.rel {
			if d := e.curCost[qi] - e.lbW[qi]; d > 0 {
				gcap += d
			}
		}
		if gcap <= bStar {
			c.pruned = true
			o.CountBoundPrune()
			o.CountElidedCalls(int64(len(c.onTable)))
			continue
		}
		var pess float64
		for _, qi := range c.rel {
			if ub, ok := e.bounds[qi].UpperWith(c.id); ok {
				if d := e.curCost[qi] - e.wts[qi]*ub; d > 0 {
					pess += d
				}
			}
		}
		if pess > bStar {
			bStar = pess
		}
	}
}

// probe evaluates candidate i against a view of the configuration plus
// the candidate, reading the enumeration without mutating it except for
// the candidate's own memo. Each relevant query's trial cost comes from
// the first source that has it: a lower bound that already meets the
// current cost (no gain possible), the atomic memo (exact while no
// configuration index lies on the query's tables), the cross-round memo,
// and last a real what-if call. Every query answered without a call, and
// every structurally irrelevant one, counts as one elided call.
func (e *enumeration) probe(i int) probeResult {
	c := &e.cands[i]
	if !e.fits(c) {
		return probeResult{}
	}
	p := probeResult{newCosts: map[int]float64{}}
	if c.pruned {
		return p // provably not the argmax: zero gain, still explored
	}
	o := e.a.o
	trial := e.cfg.Probe(c.Member)
	o.CountElidedCalls(int64(len(c.onTable) - len(c.rel)))
	for _, qi := range c.rel {
		cur := e.curCost[qi]
		if e.lbW[qi] >= cur {
			o.CountElidedCalls(1)
			continue
		}
		if e.cfgRel[qi] == 0 {
			if v, ok := e.bounds[qi].AtomicCost(c.id); ok {
				o.CountElidedCalls(1)
				p.offer(qi, v*e.wts[qi], cur)
				continue
			}
		}
		if m, ok := c.memo[qi]; ok && m.ver == e.qVer[qi] {
			o.CountElidedCalls(1)
			p.offer(qi, m.c, cur)
			continue
		}
		v := o.Cost(e.w.Queries[qi], trial) * e.wts[qi]
		if c.memo == nil {
			c.memo = make(map[int]probeMemo)
		}
		c.memo[qi] = probeMemo{ver: e.qVer[qi], c: v}
		p.offer(qi, v, cur)
	}
	return p
}

// commit adds candidate i to the configuration, takes its probe's cost
// updates, bumps the relevant-set counters of the queries on its table,
// and drops it from the candidates. It returns the chosen candidate.
func (e *enumeration) commit(i int, newCosts map[int]float64) enumCand {
	c := e.cands[i]
	e.cfg.Add(c.Index)
	e.used += c.size
	for qi, v := range newCosts {
		e.curCost[qi] = v
	}
	for _, qi := range c.onTable {
		e.cfgRel[qi]++
		e.qVer[qi]++
	}
	e.cands = append(e.cands[:i], e.cands[i+1:]...)
	return c
}

// queryWeight is q's weight in the tuning objective; a weight ≤ 0 counts
// as 1.
func queryWeight(q *workload.Query) float64 {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}
