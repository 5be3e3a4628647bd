// Package compress provides the workload-compression baselines the paper
// evaluates against (Section 8): uniform sampling, cost top-k, stratified
// template sampling, GSUM [20], and k-medoid clustering [11]. Each
// implements Compressor, whose compression method is core.Compressor's
// CompressContext with its contract, so ISUM satisfies it too and the
// experiments run every algorithm through one call.
package compress

import (
	"context"

	"isum/internal/core"
	"isum/internal/workload"
)

// Compressor selects k queries (with weights) from a workload.
type Compressor interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// CompressContext selects up to k queries from w under core's
	// contract (DESIGN.md §9). Cancellation is not an error: when ctx
	// stops a run early, the selections made so far come back as a valid
	// Result with Partial set; a baseline whose selection is one pass
	// finishes instead. The error means invalid input — a query whose
	// cost is NaN, ±Inf or negative, naming the lowest such position — or
	// a contained worker panic.
	CompressContext(ctx context.Context, w *workload.Workload, k int) (*core.Result, error)
}

// uniformWeights returns 1/n weights.
func uniformWeights(n int) []float64 {
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = 1.0 / float64(n)
	}
	return out
}

// clampK bounds k to [0, n].
func clampK(k, n int) int {
	if k < 0 {
		return 0
	}
	if k > n {
		return n
	}
	return k
}
