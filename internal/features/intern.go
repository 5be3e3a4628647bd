package features

import "sort"

// Interner is the feature dictionary of one state build: it maps feature
// keys ("table.column") to dense uint32 IDs. NewInterner builds it once,
// from the sorted union of a batch's keys, and a key's ID is its rank in
// that union. IDs are therefore lexicographic, whatever order the batch
// was extracted in, and ascending-ID iteration is key order: a canonical
// order over features, which is what lets SparseVec's merge-join kernels
// produce bit-identical sums across runs without any per-call sorting
// (DESIGN.md §11). Since Extractor.Features returns pairs ascending by
// key, FromFeatures writes ascending IDs without a sort.
//
// An Interner is never mutated after NewInterner returns, so it is safe
// for concurrent use.
type Interner struct {
	ids  map[string]uint32
	keys []string
}

// NewInterner returns the dictionary of the union of batch's keys.
func NewInterner(batch [][]Feature) *Interner {
	in := &Interner{ids: map[string]uint32{}}
	for _, fs := range batch {
		for _, f := range fs {
			if _, ok := in.ids[f.Key]; !ok {
				in.ids[f.Key] = 0
				in.keys = append(in.keys, f.Key)
			}
		}
	}
	sort.Strings(in.keys)
	for id, k := range in.keys {
		in.ids[k] = uint32(id)
	}
	if m := vtel.Load(); m != nil {
		m.internSize.Set(float64(len(in.keys)))
	}
	return in
}

// FromFeatures converts pairs ascending by key, as Extractor.Features
// returns them, into a SparseVec. IDs are key ranks, so they come out
// ascending. A key missing from the dictionary, or pairs out of key
// order, is a programming error and panics.
func (in *Interner) FromFeatures(fs []Feature) SparseVec {
	if len(fs) == 0 {
		return SparseVec{}
	}
	ids := make([]uint32, len(fs))
	ws := make([]float64, len(fs))
	for i, f := range fs {
		id, ok := in.ids[f.Key]
		if !ok {
			panic("features: key not interned: " + f.Key)
		}
		if i > 0 && id <= ids[i-1] {
			panic("features: pairs not ascending by key at " + f.Key)
		}
		ids[i], ws[i] = id, f.W
	}
	return SparseVec{ids: ids, ws: ws}
}

// Key returns the key for an ID issued by this interner.
func (in *Interner) Key(id uint32) string { return in.keys[id] }

// Len returns the number of interned keys; valid IDs are [0, Len).
func (in *Interner) Len() int { return len(in.keys) }
