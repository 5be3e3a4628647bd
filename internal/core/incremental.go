package core

import (
	"context"

	"isum/internal/catalog"
	"isum/internal/features"
	"isum/internal/workload"
)

// Incremental maintains a bounded compressed pool over a query stream — the
// future-work direction of Section 10, where the tuner consumes queries
// incrementally (e.g. under a time budget) and ISUM cannot pre-process the
// whole input.
//
// On each Observe call, the new arrivals join the current pool of weighted
// representatives and the union is recompressed to the pool size. Carried
// representatives keep their accumulated weights, so their utilities keep
// reflecting the workload mass they stand for. Tuning Pool() at any time
// approximates tuning everything observed so far.
type Incremental struct {
	comp *Compressor
	k    int
	cat  *catalog.Catalog
	pool *workload.Workload
	seen int
}

// NewIncremental returns an incremental compressor keeping at most k
// representatives.
func NewIncremental(cat *catalog.Catalog, opts Options, k int) *Incremental {
	if k < 1 {
		k = 1
	}
	if opts.Interner == nil {
		// One dictionary across every recompression: carried representatives
		// keep stable feature IDs, and the intern table only grows by each
		// batch's genuinely new columns.
		opts.Interner = features.NewInterner()
	}
	return &Incremental{
		comp: New(opts),
		k:    k,
		cat:  cat,
		pool: &workload.Workload{Catalog: cat},
	}
}

// Observe folds a batch of queries (with costs filled) into the pool and
// returns the compression result of the recompression step.
func (ic *Incremental) Observe(batch []*workload.Query) *Result {
	res, err := ic.ObserveContext(context.Background(), batch)
	if err != nil {
		panic(err)
	}
	return res
}

// ObserveContext is Observe with the anytime contract (DESIGN.md §9):
// when ctx is cancelled or its deadline expires mid-recompression, the
// best-so-far selection over pool ∪ batch becomes the new pool — a valid
// weighted compressed workload, never an error — and the returned Result
// has Partial set. When cancellation strikes before any selection was
// made, the previous pool is kept unchanged (the batch still counts as
// seen: it was observed, merely not folded into a new selection). The
// error is reserved for real failures (contained worker panics), which
// leave the pool and seen count untouched.
func (ic *Incremental) ObserveContext(ctx context.Context, batch []*workload.Query) (*Result, error) {
	cand := &workload.Workload{Catalog: ic.cat}
	cand.Queries = append(cand.Queries, ic.pool.Queries...)
	cand.Queries = append(cand.Queries, batch...)
	res, err := ic.comp.CompressContext(ctx, cand, ic.k)
	if err != nil {
		return nil, err
	}
	ic.seen += len(batch)
	if res.Partial && len(res.Indices) == 0 {
		return res, nil
	}
	ic.pool = cand.WeightedSubset(res.Indices, res.Weights)
	return res, nil
}

// Pool returns the current compressed workload (copies are returned by
// construction; callers may weigh or tune it freely).
func (ic *Incremental) Pool() *workload.Workload { return ic.pool }

// Seen returns the number of queries observed so far.
func (ic *Incremental) Seen() int { return ic.seen }
