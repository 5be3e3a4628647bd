// Package core implements ISUM, the paper's contribution: estimating the
// workload-improvement potential of query subsets via utility + influence
// (Section 4), the all-pairs greedy algorithm (Section 5), the linear-time
// summary-feature algorithm (Section 6), and compressed-workload weighing
// (Section 7).
package core

import (
	"isum/internal/catalog"
	"isum/internal/features"
	"isum/internal/telemetry"
)

// Algorithm selects the greedy driver.
type Algorithm int

const (
	// SummaryFeatures is the O(k·n) algorithm of Section 6 (Algorithm 3) —
	// ISUM's default.
	SummaryFeatures Algorithm = iota
	// AllPairs is the O(k·n²) algorithm of Section 5 (Algorithms 1–2).
	AllPairs
)

// UtilityMode selects how Δ(q), the estimated reduction in cost, is
// computed (Section 4.1).
type UtilityMode int

const (
	// UtilityCostOnly uses Δ(q) = C(q): the query cost as a proxy, shown in
	// Fig. 5a to correlate strongly with actual reductions. Used when
	// statistics are unavailable; pairs with rule-based features (ISUM).
	UtilityCostOnly UtilityMode = iota
	// UtilityCostSelectivity uses Δ(q) = (1 − Sel(q))·C(q) with Sel the
	// average filter/join selectivity (Fig. 5b); pairs with stats-based
	// features (ISUM-S).
	UtilityCostSelectivity
)

// UpdateStrategy selects how unselected queries are updated after each
// greedy selection (Section 4.3, evaluated in Fig. 13).
type UpdateStrategy int

const (
	// UpdateFeatureRemove updates the utility and zeroes the features the
	// selected query covers — the paper's best-performing strategy and the
	// default.
	UpdateFeatureRemove UpdateStrategy = iota
	// UpdateWeightSubtract updates the utility and subtracts the selected
	// query's feature weights.
	UpdateWeightSubtract
	// UpdateUtilityOnly updates only the utility.
	UpdateUtilityOnly
	// UpdateNone performs no updates (ablation baseline).
	UpdateNone
)

// WeighStrategy selects how the selected queries are weighted before being
// handed to the tuner (Section 7, evaluated in Fig. 14).
type WeighStrategy int

const (
	// WeighTemplateRecalibrated applies template-based utility pooling
	// (Algorithm 4) followed by recalibrated benefits (Algorithm 5) — the
	// default.
	WeighTemplateRecalibrated WeighStrategy = iota
	// WeighRecalibrated recomputes benefits of the selected queries against
	// the unselected remainder without template pooling.
	WeighRecalibrated
	// WeighSelectionBenefit reuses the conditional benefits observed during
	// greedy selection.
	WeighSelectionBenefit
	// WeighNone assigns uniform weights.
	WeighNone
)

// Options configure a Compressor.
type Options struct {
	Algorithm Algorithm
	Utility   UtilityMode
	Update    UpdateStrategy
	Weighing  WeighStrategy
	// FeatureMode selects rule-based (ISUM) or stats-based (ISUM-S) column
	// weights.
	FeatureMode features.WeightMode
	// Norm selects the per-query weight normalisation (NormMax default;
	// NormMinMaxPaper is the paper-literal variant — see DESIGN.md §5).
	Norm features.NormMode
	// UseTableWeight multiplies feature weights by table size
	// (ISUM-NoTable disables it; Fig. 10).
	UseTableWeight bool
	// Parallelism bounds the worker goroutines used on the hot paths
	// (feature extraction, benefit scans, post-selection update sweeps).
	// 0 uses GOMAXPROCS; 1 forces the serial reference path. Selection is
	// identical at any setting: benefits are computed in parallel but
	// reduced serially in query order (see DESIGN.md, "Concurrency model").
	Parallelism int
	// ConsTemplates enables template hash-consing (DESIGN.md §12): queries
	// are interned by TemplateID before the greedy loop, so all instances
	// of one template share one feature extraction and one state whose
	// utility is the sum over the instances (Algorithm 4's pooling applied
	// up front). Result.Indices refer to each template's first instance.
	// This collapses template-heavy million-query workloads by orders of
	// magnitude; on workloads with no repeated templates it is the
	// identity. Off by default: consing changes selection granularity from
	// queries to templates, so per-instance selection semantics (and k ≥ n
	// meaning "every query") only hold with it disabled.
	ConsTemplates bool
	// rebuildSummary forces the summary features to be rebuilt from
	// scratch every greedy round (the literal Algorithm 3 reading) instead
	// of being maintained incrementally. A test hook: the in-package
	// oracles use the rebuild as the reference the incremental path, which
	// is algebraically identical and O(rounds) cheaper, is pinned to.
	rebuildSummary bool
	// Telemetry receives the compressor's metrics and phase spans
	// (core/build-states, per-round core/greedy spans with argmax and
	// update timings — see DESIGN.md §8). nil, the default, disables
	// instrumentation: the no-op path is a pointer check and allocates
	// nothing, and compression output is identical either way.
	Telemetry *telemetry.Registry
}

// DefaultOptions returns ISUM's default configuration: summary features,
// rule-based weights, cost-only utility, feature-remove updates, template
// weighing.
func DefaultOptions() Options {
	return Options{
		Algorithm:      SummaryFeatures,
		Utility:        UtilityCostOnly,
		Update:         UpdateFeatureRemove,
		Weighing:       WeighTemplateRecalibrated,
		FeatureMode:    features.RuleBased,
		UseTableWeight: true,
	}
}

// ISUMSOptions returns the ISUM-S variant: statistics-based feature weights
// and selectivity-aware utility.
func ISUMSOptions() Options {
	o := DefaultOptions()
	o.FeatureMode = features.StatsBased
	o.Utility = UtilityCostSelectivity
	return o
}

// NoTableOptions returns the ISUM-NoTable ablation of Fig. 10: stats-based
// weights without the table-size factor.
func NoTableOptions() Options {
	o := ISUMSOptions()
	o.UseTableWeight = false
	return o
}

func (o Options) extractor(cat *catalog.Catalog) *features.Extractor {
	return &features.Extractor{
		Cat:            cat,
		Mode:           o.FeatureMode,
		Norm:           o.Norm,
		UseTableWeight: o.UseTableWeight,
	}
}
