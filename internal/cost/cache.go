package cost

import (
	"math/bits"
	"sync"

	"isum/internal/index"
	"isum/internal/workload"
)

// cacheShardCount is the number of what-if cache shards. Shards are picked
// by a hash of the query text, so concurrent Cost calls contend only when
// they hit the same shard; 32 keeps contention negligible far past the
// worker counts the pipeline spawns. Must be a power of two.
const cacheShardCount = 32

// cacheVal is one cached what-if result: the total plan cost (the value
// Cost returns) and the access+join subtotal the elision layer's bounds
// are derived from (elide.go). The subtotal is monotone non-increasing in
// the configuration; the total is not (tail operators may flip between
// stream/hash/sort strategies).
type cacheVal struct {
	c  float64
	aj float64
}

// cacheShard is one lock-striped slice of the what-if cache.
type cacheShard struct {
	mu sync.RWMutex
	// entries is keyed by query text, so copies of a Query (e.g. weighted
	// compressed-workload entries) share cost entries and compiled plans.
	entries map[string]*queryEntry
}

// queryEntry is the cache's record of one query text: the costs computed
// or in flight so far, and the compiled plan new costs are computed from
// (DESIGN.md §17) — the skeleton, built on the text's first plan
// computation, and the access atom of every index costed against the text
// so far.
type queryEntry struct {
	costs map[uint64]*costRec // by relevantKey; guarded by the shard's mu

	mu    sync.Mutex // guards skel and atoms
	skel  *planSkeleton
	atoms map[string]*accessAtom // by canonical index ID
}

// costRec is one relevant configuration's cost, identified by its
// members' IDs. The key is a hash, so a lookup checks the IDs; a
// configuration whose key another one already holds is simply not cached.
// The shard's mu guards every field but ids, which never changes.
//
// A record is stored as soon as its plan computation starts, pending
// until the computation ends: concurrent identical misses wait for it
// instead of computing it again (singleflight). The first waiter makes
// done; the computation publishes v or err before closing it.
type costRec struct {
	ids     []string
	v       cacheVal
	pending bool
	done    chan struct{}
	err     error
}

// lookup returns the cached cost of the query text under the relevant
// members rel (key = relevantKey(rel)), and the text's entry (nil before
// the text's first call).
//
//lint:hotpath what-if cache hit
func (sh *cacheShard) lookup(text string, key uint64, rel []*index.Member) (cacheVal, *queryEntry, bool) {
	sh.mu.RLock()
	e := sh.entries[text]
	var v cacheVal
	ok := false
	if e != nil {
		if r := e.find(key, rel); r != nil && !r.pending {
			v, ok = r.v, true
		}
	}
	sh.mu.RUnlock()
	return v, e, ok
}

// find returns the record of rel's configuration, nil if none. The caller
// holds the shard's mu.
//
//lint:hotpath what-if cache hit
func (e *queryEntry) find(key uint64, rel []*index.Member) *costRec {
	if r := e.costs[key]; r != nil && sameIDs(r.ids, rel) {
		return r
	}
	return nil
}

// insert stores r unless its key is taken. The caller holds the shard's
// mu.
func (e *queryEntry) insert(key uint64, r *costRec) {
	if _, taken := e.costs[key]; !taken {
		e.costs[key] = r
	}
}

// remove drops r if it is stored. The caller holds the shard's mu.
func (e *queryEntry) remove(key uint64, r *costRec) {
	if e.costs[key] == r {
		delete(e.costs, key)
	}
}

// entry returns the query text's entry, creating it if needed.
func (sh *cacheShard) entry(text string) *queryEntry {
	sh.mu.Lock()
	e := sh.entries[text]
	if e == nil {
		e = &queryEntry{costs: make(map[uint64]*costRec)}
		sh.entries[text] = e
	}
	sh.mu.Unlock()
	return e
}

// skeleton returns the query's plan skeleton, building it on first use.
func (e *queryEntry) skeleton(o *Optimizer, q *workload.Query) *planSkeleton {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.skel == nil {
		e.skel = buildSkeleton(o.cat, o.par, q.Info)
	}
	return e.skel
}

// atomsFor appends to dst the access atoms of rel's members the planner
// can use, building the ones not seen before.
func (e *queryEntry) atomsFor(o *Optimizer, s *planSkeleton, rel []*index.Member, dst []*accessAtom) []*accessAtom {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range rel {
		a, ok := e.atoms[m.ID]
		if !ok {
			if e.atoms == nil {
				e.atoms = make(map[string]*accessAtom)
			}
			a = s.buildAtom(o.par, m)
			e.atoms[m.ID] = a
		}
		if a != uselessAtom {
			dst = append(dst, a)
		}
	}
	return dst
}

// hashSeed starts every cache hash.
const hashSeed = 14695981039346656037

// hashString folds s into h eight bytes at a time. The hashes only pick
// shards and cache slots — every slot checks the identities it holds — so
// they need to spread, not to resist attack.
//
//lint:hotpath what-if cache key, built on every call
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

// relevantKey hashes the relevant members' IDs, in order, into the cache
// key; the +1 after each ID keeps lists whose IDs concatenate alike
// apart.
//
//lint:hotpath what-if cache key, built on every call
func relevantKey(rel []*index.Member) uint64 {
	h := uint64(hashSeed)
	for _, m := range rel {
		h = hashString(h, m.ID) + 1
	}
	return h
}

// sameIDs reports whether ids are exactly the IDs of rel, in order.
//
//lint:hotpath what-if cache hit
func sameIDs(ids []string, rel []*index.Member) bool {
	if len(ids) != len(rel) {
		return false
	}
	for i, m := range rel {
		if ids[i] != m.ID {
			return false
		}
	}
	return true
}

// memberIDs returns rel's IDs, nil for none.
func memberIDs(rel []*index.Member) []string {
	if len(rel) == 0 {
		return nil
	}
	ids := make([]string, len(rel))
	for i, m := range rel {
		ids[i] = m.ID
	}
	return ids
}
