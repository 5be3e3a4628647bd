package core

import (
	"slices"

	"isum/internal/features"
)

// postings is a feature-ID → state index over the states' original
// vectors, in CSR form: the states whose OrigVec carries ID f are
// states[start[f]:start[f+1]], ascending by state position. One index is
// built per compression and serves both post-pick update loops, the
// greedy sweep and recalibrate's W_u sweep (DESIGN.md §20).
//
// Updates only delete entries from a vector, and a feature reset restores
// a clone of OrigVec, so a state's current IDs are always a subset of its
// OrigVec IDs: the lists stay a superset of the states that can share an
// ID with a pick. A state outside them is left bit for bit unchanged by
// the update, so visiting only the listed states changes nothing.
//
// Not safe for concurrent use: touched reuses per-index scratch.
type postings struct {
	start  []int32 // len F+1 over the interner's feature space
	states []int32 // concatenated lists, each ascending

	stamp []int32 // per state: the touched call that last collected it
	call  int32
	buf   []int32 // touched's result storage, reused across calls
}

// buildPostings indexes every state's OrigVec.
func buildPostings(states []*QueryState) *postings {
	f := featureSpace(states)
	p := &postings{start: make([]int32, f+1), stamp: make([]int32, len(states))}
	for _, s := range states {
		s.OrigVec.Each(func(id uint32, _ float64) { p.start[id+1]++ })
	}
	for i := 1; i <= f; i++ {
		p.start[i] += p.start[i-1]
	}
	p.states = make([]int32, p.start[f])
	next := slices.Clone(p.start[:f])
	for i, s := range states {
		s.OrigVec.Each(func(id uint32, _ float64) {
			p.states[next[id]] = int32(i)
			next[id]++
		})
	}
	return p
}

// touched returns, ascending, the positions of the states listed under
// any of v's IDs for which keep reports true. The slice is valid until
// the next call.
func (p *postings) touched(v features.SparseVec, keep func(i int32) bool) []int32 {
	p.call++
	out := p.buf[:0]
	v.Each(func(id uint32, _ float64) {
		for _, i := range p.states[p.start[id]:p.start[id+1]] {
			if p.stamp[i] != p.call {
				p.stamp[i] = p.call
				if keep(i) {
					out = append(out, i)
				}
			}
		}
	})
	slices.Sort(out)
	p.buf = out
	return out
}
