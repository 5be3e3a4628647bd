package cost

import (
	"math/bits"
	"sync"

	"isum/internal/index"
	"isum/internal/workload"
)

// planShardCount is the number of compiled-plan shards. Shards are picked
// by a hash of the query text, so concurrent what-if calls contend only
// when they hit the same shard; 32 keeps contention negligible far past
// the worker counts the pipeline spawns. Must be a power of two.
const planShardCount = 32

// planCost is one what-if result: the total plan cost (the value Cost
// returns) and the access+join subtotal the elision layer's bounds are
// derived from (elide.go). The subtotal is monotone non-increasing in the
// configuration; the total is not (tail operators may flip between
// stream/hash/sort strategies).
type planCost struct {
	c  float64
	aj float64
}

// planShard is one lock-striped slice of the compiled plans.
type planShard struct {
	mu sync.RWMutex
	// plans is keyed by query text, so copies of a Query (e.g. weighted
	// compressed-workload entries) share one compiled plan.
	plans map[string]*queryPlan
}

// queryPlan is the compiled plan of one query text (DESIGN.md §17): the
// skeleton, built on the text's first what-if call, and the access atom
// of every index costed against the text so far. Costs themselves are
// not kept: every call folds the atoms through the skeleton afresh. The
// text's elision memo (elide.go) rides along, under its own lock.
type queryPlan struct {
	mu    sync.Mutex // guards skel and atoms
	skel  *planSkeleton
	atoms map[string]*accessAtom // by canonical index ID

	bounds QueryBounds
}

// plan returns the query text's compiled plan, creating an empty one on
// the text's first call.
func (sh *planShard) plan(text string) *queryPlan {
	sh.mu.RLock()
	p := sh.plans[text]
	sh.mu.RUnlock()
	if p != nil {
		return p
	}
	sh.mu.Lock()
	if p = sh.plans[text]; p == nil {
		p = &queryPlan{}
		sh.plans[text] = p
	}
	sh.mu.Unlock()
	return p
}

// compiled returns the query's plan skeleton and appends to dst the
// access atoms of rel's members the planner can use, building the
// skeleton and the atoms the text has not needed before.
func (p *queryPlan) compiled(o *Optimizer, q *workload.Query, rel []*index.Member, dst []*accessAtom) (*planSkeleton, []*accessAtom) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.skel == nil {
		p.skel = buildSkeleton(o.cat, o.par, q.Info)
	}
	for _, m := range rel {
		a, ok := p.atoms[m.ID]
		if !ok {
			if p.atoms == nil {
				p.atoms = make(map[string]*accessAtom)
			}
			a = p.skel.buildAtom(o.par, m)
			p.atoms[m.ID] = a
		}
		if a != uselessAtom {
			dst = append(dst, a)
		}
	}
	return p.skel, dst
}

// hashSeed starts every shard hash.
const hashSeed = 14695981039346656037

// hashString folds s into h eight bytes at a time. The hash only picks
// plan shards, so it needs to spread, not to resist attack.
//
//lint:hotpath shard pick, on every what-if call
func hashString(h uint64, s string) uint64 {
	const m = 0x9E3779B97F4A7C15
	for ; len(s) >= 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = bits.RotateLeft64((h^w)*m, 29)
	}
	for i := 0; i < len(s); i++ {
		h = bits.RotateLeft64((h^uint64(s[i]))*m, 29)
	}
	return h ^ h>>32
}
