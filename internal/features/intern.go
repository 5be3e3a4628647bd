package features

import "sort"

// Interner is a workload-scoped dictionary mapping feature keys
// ("table.column") to dense uint32 IDs. It is built once during feature
// extraction and shared by every SparseVec derived from the workload
// (core threads it through Options and QueryState). IDs are assigned in
// batches: each AddVectors call sorts its unseen keys lexicographically
// before appending, so a dictionary built in one batch (the common
// case) numbers keys in lexicographic order, and rebuilding
// it from the same workload reproduces the same IDs. Ascending-ID
// iteration is therefore a canonical order over features, which is what
// lets SparseVec's merge-join kernels produce bit-identical sums across
// runs without any per-call sorting (DESIGN.md §11).
//
// Concurrency: lookups (ID, Key, Len, FromMap) are safe for concurrent
// use once the table is built; AddVectors mutates the table and must
// not race with anything else. Sharing one Interner across repeated
// compressions (Options.Interner, the incremental pool) keeps IDs stable
// but makes those compressions mutually unsafe to run concurrently.
type Interner struct {
	ids  map[string]uint32
	keys []string
}

// NewInterner returns an empty dictionary.
func NewInterner() *Interner {
	return &Interner{ids: map[string]uint32{}}
}

// AddVectors interns the union of the vectors' keys as one batch.
func (in *Interner) AddVectors(vecs []Vector) {
	var fresh []string
	seen := map[string]bool{}
	for _, v := range vecs {
		for k := range v {
			if _, ok := in.ids[k]; !ok && !seen[k] {
				seen[k] = true
				fresh = append(fresh, k)
			}
		}
	}
	in.appendSorted(fresh)
}

// appendSorted canonicalises a batch of unseen keys — lexicographic
// sort, so batch IDs are independent of collection order — and appends
// them to the table.
func (in *Interner) appendSorted(fresh []string) {
	sort.Strings(fresh)
	for _, k := range fresh {
		in.ids[k] = uint32(len(in.keys))
		in.keys = append(in.keys, k)
	}
	if m := vtel.Load(); m != nil {
		m.internSize.Set(float64(len(in.keys)))
	}
}

// ID returns the key's ID and whether the key is interned.
func (in *Interner) ID(key string) (uint32, bool) {
	id, ok := in.ids[key]
	return id, ok
}

// Key returns the key for an ID issued by this interner.
func (in *Interner) Key(id uint32) string { return in.keys[id] }

// Len returns the number of interned keys; valid IDs are [0, Len).
func (in *Interner) Len() int { return len(in.keys) }
