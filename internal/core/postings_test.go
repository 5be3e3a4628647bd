package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"isum/internal/features"
)

// entryBits lists a vector's IDs and weight bits in ascending-ID order.
func entryBits(v features.SparseVec) ([]uint32, []uint64) {
	var ids []uint32
	var ws []uint64
	v.Each(func(id uint32, w float64) {
		ids = append(ids, id)
		ws = append(ws, math.Float64bits(w))
	})
	return ids, ws
}

// fuzzUpdatePair decodes fuzz bytes into a pick and a state vector over
// 16 candidate feature keys. Each slot takes two bytes: a role (neither,
// pick, state) and a weight, which is an explicit zero for a quarter of
// the byte values. Slot shared is held back from both vectors; the
// returned positive control adds it to both with positive weights. The
// state's utility is the next byte over 255, +0 included.
func fuzzUpdatePair(data []byte) (pick, state, pickCtl, stateCtl features.SparseVec, util float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	const slots = 16
	shared := int(next()) % slots
	key := func(j int) string { return fmt.Sprintf("t.c%02d", j) }
	p, s := mapVec{}, mapVec{}
	for j := 0; j < slots; j++ {
		role, b := next()%3, next()
		w := 0.0
		if b >= 64 {
			w = float64(b) / 255
		}
		switch {
		case j == shared:
		case role == 1:
			p[key(j)] = w
		case role == 2:
			s[key(j)] = w
		}
	}
	util = float64(next()) / 255
	pc, sc := mapVec{key(shared): 0.5}, mapVec{key(shared): 0.75}
	for k, w := range p {
		pc[k] = w
	}
	for k, w := range s {
		sc[k] = w
	}
	_, vs := internMaps(pc, sc, p, s)
	return vs[2], vs[3], vs[0], vs[1], util
}

// internMaps builds one dictionary over the vectors' keys, as a state
// build does, and converts each vector under it.
func internMaps(ms ...mapVec) (*features.Interner, []features.SparseVec) {
	batch := make([][]features.Feature, len(ms))
	for i, m := range ms {
		batch[i] = m.pairs()
	}
	in := features.NewInterner(batch)
	vs := make([]features.SparseVec, len(ms))
	for i, fs := range batch {
		vs[i] = in.FromFeatures(fs)
	}
	return in, vs
}

// FuzzSkippedUpdateIsNoop checks the lemma the posting-list sweeps rest
// on (DESIGN.md §20): a pick that shares no feature ID with a state
// leaves it bit for bit unchanged — IDs, weight bits and utility bits —
// and reports no summary delta and no emptying, under every update
// strategy with delta tracking on and off. Explicit zero weights and
// empty vectors are in the domain. As a positive control, a pick sharing
// one positive-weight ID must change the state under feature-remove.
func FuzzSkippedUpdateIsNoop(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 200, 2, 90, 1, 10, 2, 255, 0, 0, 1, 128, 2, 64, 1, 63, 2, 1, 1, 77, 2, 250, 0, 9, 1, 99, 2, 180, 1, 250, 2, 30, 0, 0, 128})
	f.Add([]byte{0, 2, 0, 2, 0, 2, 0, 1, 0, 1, 0, 2, 200, 1, 200, 0, 0, 2, 100, 1, 255, 2, 255, 1, 128, 2, 0, 1, 70, 2, 70, 1, 80, 2, 90, 255})
	strategies := []UpdateStrategy{UpdateFeatureRemove, UpdateWeightSubtract, UpdateUtilityOnly, UpdateNone}
	f.Fuzz(func(t *testing.T, data []byte) {
		pick, state, pickCtl, stateCtl, util := fuzzUpdatePair(data)
		wantIDs, wantWs := entryBits(state)
		sel := &QueryState{Vec: pick, Utility: 0.5}
		for _, strategy := range strategies {
			for _, track := range []bool{false, true} {
				q := &QueryState{Vec: state.Clone(), Utility: util}
				r := applyUpdateWithDelta(sel, q, strategy, track)
				ids, ws := entryBits(q.Vec)
				if !slices.Equal(ids, wantIDs) || !slices.Equal(ws, wantWs) {
					t.Fatalf("strategy %d track %v: vector %v %x, want %v %x", strategy, track, ids, ws, wantIDs, wantWs)
				}
				if math.Float64bits(q.Utility) != math.Float64bits(util) {
					t.Fatalf("strategy %d track %v: utility %v, want %v", strategy, track, q.Utility, util)
				}
				if r.hasDelta || r.emptied {
					t.Fatalf("strategy %d track %v: hasDelta %v emptied %v, want neither", strategy, track, r.hasDelta, r.emptied)
				}
			}
		}

		q := &QueryState{Vec: stateCtl.Clone(), Utility: util}
		applyUpdateWithDelta(&QueryState{Vec: pickCtl}, q, UpdateFeatureRemove, true)
		if q.Vec.Len() != stateCtl.Len()-1 {
			t.Fatalf("control: feature-remove left %d of %d entries, want the shared one removed", q.Vec.Len(), stateCtl.Len())
		}
	})
}

// TestPostingsTouched pins the index's collection: the ascending,
// duplicate-free union of the lists under a vector's IDs, filtered by
// keep, on a hand-built universe.
func TestPostingsTouched(t *testing.T) {
	in, vs := internMaps(
		mapVec{"a.x": 1, "a.y": 0.5},
		mapVec{"a.y": 1},
		mapVec{"b.z": 1},
		mapVec{"a.x": 0, "b.z": 0.25},
		mapVec{},
	)
	states := make([]*QueryState, len(vs))
	for i, sv := range vs {
		states[i] = &QueryState{Index: i, Vec: sv.Clone(), OrigVec: sv, Interner: in}
	}
	idx := buildPostings(states)
	all := func(int32) bool { return true }
	for _, tc := range []struct {
		vec  mapVec
		keep func(int32) bool
		want []int32
	}{
		{mapVec{"a.x": 1}, all, []int32{0, 3}},
		{mapVec{"a.y": 1, "b.z": 1}, all, []int32{0, 1, 2, 3}},
		{mapVec{"a.x": 1, "a.y": 1}, func(i int32) bool { return i != 0 }, []int32{1, 3}},
		{mapVec{}, all, nil},
	} {
		got := idx.touched(in.FromFeatures(tc.vec.pairs()), tc.keep)
		if !slices.Equal(got, tc.want) {
			t.Errorf("touched(%v) = %v, want %v", tc.vec, got, tc.want)
		}
	}
}

// TestWeighLeavesOrigVecIntact checks that recalibrate's W_u sweep
// clones a vector before it removes features from it: every state's
// OrigVec, which the posting index and feature resets are built from,
// reads the same after selection and weighing as before.
func TestWeighLeavesOrigVecIntact(t *testing.T) {
	w := generatorWorkload(t, "tpch", 300)
	for _, weighing := range []WeighStrategy{WeighTemplateRecalibrated, WeighRecalibrated} {
		opts := DefaultOptions()
		opts.Weighing = weighing
		c := New(opts)
		states, _, err := c.buildUniverse(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		type entries struct {
			ids []uint32
			ws  []uint64
		}
		before := make([]entries, len(states))
		for i, s := range states {
			before[i].ids, before[i].ws = entryBits(s.OrigVec)
		}
		idx := buildPostings(states)
		res := &Result{}
		if err := c.selectGreedy(context.Background(), states, idx, 30, res); err != nil {
			t.Fatal(err)
		}
		c.weigh(states, idx, res)
		for i, s := range states {
			ids, ws := entryBits(s.OrigVec)
			if !slices.Equal(ids, before[i].ids) || !slices.Equal(ws, before[i].ws) {
				t.Fatalf("weighing %d: state %d OrigVec changed: %v %x, was %v %x", weighing, i, ids, ws, before[i].ids, before[i].ws)
			}
		}
	}
}
