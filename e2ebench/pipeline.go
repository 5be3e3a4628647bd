package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"isum/internal/advisor"
	"isum/internal/core"
	"isum/internal/cost"
	"isum/internal/index"
)

// maxIndexes is the advisor's configuration-size limit, as the paper's
// experiments set it (experiments.Env.AdvisorOptions).
const maxIndexes = 30

// recommendation is the checked output of one execution.
type recommendation struct {
	config *index.Configuration
	digest string
	calls  int64 // advisor.Result.OptimizerCalls
}

func coreOptions(parallelism int) core.Options {
	opts := core.DefaultOptions()
	opts.Parallelism = parallelism
	return opts
}

func advisorOptions(lg *queryLog, parallelism int) advisor.Options {
	opts := advisor.DefaultOptions()
	opts.MaxIndexes = maxIndexes
	opts.StorageBudget = lg.budget
	opts.Parallelism = parallelism
	return opts
}

// recommend turns the log's bytes into an index recommendation with fresh
// state — a new compressor and a new what-if optimizer, as every tuning
// session starts — and checks the output. k = 0 tunes the full workload.
func recommend(ctx context.Context, lg *queryLog, k, parallelism int, tr *tracer) (*recommendation, error) {
	tr.begin("recommend", nil)
	defer tr.end(nil)

	tr.begin("workload.Load", nil)
	w, err := lg.load()
	tr.end(nil)
	if err != nil {
		return nil, err
	}

	h := sha256.New()
	tuned := w
	if k > 0 {
		tr.begin("core.CompressContext", nil)
		res, err := core.New(coreOptions(parallelism)).CompressContext(ctx, w, k)
		if err != nil {
			tr.end(nil)
			return nil, fmt.Errorf("compress: %w", err)
		}
		tr.end(map[string]float64{"rounds": float64(res.Rounds)})
		if err := checkCompression(res, w.Len(), k); err != nil {
			return nil, err
		}
		var b [16]byte
		for i, q := range res.Indices {
			binary.LittleEndian.PutUint64(b[:8], uint64(q))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(res.Weights[i]))
			h.Write(b[:])
		}
		tuned = w.WeightedSubset(res.Indices, res.Weights)
	}

	o := cost.NewOptimizer(lg.cat)
	tr.begin("advisor.TuneContext", o)
	res, err := advisor.New(o, advisorOptions(lg, parallelism)).TuneContext(ctx, tuned)
	if err != nil {
		tr.end(nil)
		return nil, fmt.Errorf("tune: %w", err)
	}
	tr.end(map[string]float64{
		"configs_explored": float64(res.ConfigsExplored),
		"rounds":           float64(res.Rounds),
		"indexes":          float64(res.Config.Len()),
	})
	if res.Partial {
		return nil, errors.New("tune: partial result")
	}
	if n := res.Config.Len(); n > maxIndexes {
		return nil, fmt.Errorf("tune: %d indexes, limit %d", n, maxIndexes)
	}
	if size := res.Config.SizeBytes(lg.cat); size > lg.budget {
		return nil, fmt.Errorf("tune: configuration needs %d bytes, budget %d", size, lg.budget)
	}
	h.Write([]byte(res.Config.Fingerprint()))
	return &recommendation{
		config: res.Config,
		digest: hex.EncodeToString(h.Sum(nil)[:8]),
		calls:  res.OptimizerCalls,
	}, nil
}

// checkCompression checks a compression of an n-query workload to k: a
// complete result of k distinct in-range selections whose positive weights
// sum to 1.
func checkCompression(res *core.Result, n, k int) error {
	if res.Partial {
		return errors.New("compress: partial result")
	}
	if len(res.Indices) != k || len(res.Weights) != k {
		return fmt.Errorf("compress: %d selections and %d weights, want %d", len(res.Indices), len(res.Weights), k)
	}
	seen := make(map[int]bool, k)
	var sum float64
	for i, q := range res.Indices {
		if q < 0 || q >= n || seen[q] {
			return fmt.Errorf("compress: selection %d is %d: out of range or repeated", i, q)
		}
		seen[q] = true
		if !(res.Weights[i] > 0) {
			return fmt.Errorf("compress: weight %d is %v, want > 0", i, res.Weights[i])
		}
		sum += res.Weights[i]
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("compress: weights sum to %.17g, want 1", sum)
	}
	return nil
}

// evaluate returns the paper's §8 improvement (%) of cfg on the full
// workload, costed by a fresh optimizer.
func evaluate(ctx context.Context, lg *queryLog, cfg *index.Configuration, parallelism int, tr *tracer) (float64, error) {
	w, err := lg.load()
	if err != nil {
		return 0, err
	}
	o := cost.NewOptimizer(lg.cat)
	tr.begin("advisor.EvaluateImprovementContext", o)
	pct, _, _, err := advisor.EvaluateImprovementContext(ctx, o, w, cfg, parallelism)
	tr.end(nil)
	if err != nil {
		return 0, fmt.Errorf("evaluate: %w", err)
	}
	if !(pct > 0) {
		return pct, fmt.Errorf("evaluate: improvement %v%%, want > 0", pct)
	}
	return pct, nil
}

// buildStates times compression's state-building phase on its own, to
// split core.compress_s; it runs outside the pipeline.
func buildStates(ctx context.Context, lg *queryLog, parallelism int, tr *tracer) error {
	w, err := lg.load()
	if err != nil {
		return err
	}
	tr.begin("core.BuildStatesContext", nil)
	states, err := core.BuildStatesContext(ctx, w, coreOptions(parallelism))
	nnz := 0
	for _, s := range states {
		nnz += s.OrigVec.Len()
	}
	tr.end(map[string]float64{"feature_nnz": float64(nnz)})
	return err
}
