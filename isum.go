// Package isum is a from-scratch reproduction of "ISUM: Efficiently
// Compressing Large and Complex Workloads for Scalable Index Tuning"
// (SIGMOD 2022): a workload-compression library for index tuning, together
// with every substrate the paper depends on — a SQL parser, a statistics
// catalog, a cost-based "what-if" optimizer, DTA- and DEXTER-style index
// advisors, and the TPC-H / TPC-DS / DSB / Real-M evaluation workloads.
//
// This root package is the public façade: it re-exports the library's main
// types and provides one entry point per stage of the common pipeline
//
//	workload  →  Compress  →  Tune  →  Evaluate
//
// Each stage takes a context.Context and returns an error instead of
// panicking: a cancelled Compress or Tune returns its best-so-far result
// with Partial set, and invalid input (a NaN, ±Inf or negative query
// cost) is an error naming the query — see DESIGN.md, "Failure model".
//
// Every stage of the pipeline is parallel by default: feature extraction,
// greedy benefit scans, advisor candidate selection/enumeration, and
// workload costing fan their work across GOMAXPROCS workers over what-if
// plans compiled once per query text. The CompressorOptions.Parallelism and
// AdvisorOptions.Parallelism knobs bound the worker count (0 = GOMAXPROCS,
// 1 = serial); results are identical at any setting — see DESIGN.md,
// "Concurrency model".
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// architecture and the paper-experiment index.
package isum

import (
	"context"
	"io"

	"isum/internal/advisor"
	"isum/internal/benchmarks"
	"isum/internal/catalog"
	"isum/internal/core"
	"isum/internal/cost"
	"isum/internal/faults"
	"isum/internal/index"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

// Re-exported core types. The implementation lives under internal/; these
// aliases are the supported public names.
type (
	// Catalog holds schema metadata and optimizer statistics.
	Catalog = catalog.Catalog
	// Table is one base table with statistics.
	Table = catalog.Table
	// Column is one column with statistics.
	Column = catalog.Column
	// Workload is an analysed SQL workload with costs.
	Workload = workload.Workload
	// Query is one workload query.
	Query = workload.Query
	// Index is a (hypothetical) secondary index definition.
	Index = index.Index
	// Configuration is a set of indexes.
	Configuration = index.Configuration
	// Optimizer is the cost-based what-if optimizer.
	Optimizer = cost.Optimizer
	// Compressor runs ISUM workload compression.
	Compressor = core.Compressor
	// CompressionResult reports selected queries, weights, and timings.
	CompressionResult = core.Result
	// CompressorOptions configure ISUM (algorithm, utility mode, update and
	// weighing strategies, feature weighting).
	CompressorOptions = core.Options
	// Advisor is an index advisor over the what-if optimizer.
	Advisor = advisor.Advisor
	// AdvisorOptions configure a tuning run (mode, index count, storage).
	AdvisorOptions = advisor.Options
	// TuningResult reports a tuning run.
	TuningResult = advisor.Result
	// BenchmarkGenerator produces evaluation workloads (TPC-H, TPC-DS, DSB,
	// Real-M).
	BenchmarkGenerator = benchmarks.Generator
	// IncrementalCompressor maintains a bounded compressed pool over a
	// query stream (Section 10 extension).
	IncrementalCompressor = core.Incremental
	// Plan is the optimizer's per-query access-path explanation.
	Plan = cost.Plan
	// WorkloadReport is the DTA-style per-query improvement drill-down.
	WorkloadReport = advisor.WorkloadReport
	// Telemetry is the metrics registry + phase tracer threaded through the
	// pipeline (CompressorOptions.Telemetry, AdvisorOptions.Telemetry,
	// NewOptimizerWithTelemetry). A nil *Telemetry disables instrumentation
	// at zero cost — see DESIGN.md §8.
	Telemetry = telemetry.Registry
	// TelemetrySpan is one timed phase in the trace tree.
	TelemetrySpan = telemetry.Span
)

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return catalog.New() }

// NewCatalogTable returns an empty table with the given name and row
// count, ready to receive columns and be added to a catalog.
func NewCatalogTable(name string, rows int64) *Table { return catalog.NewTable(name, rows) }

// NewWorkload parses and analyses SQL strings against a catalog. Fill the
// costs with Optimizer.FillCosts or load them from your query store.
func NewWorkload(cat *Catalog, sqls []string) (*Workload, error) {
	return workload.New(cat, sqls)
}

// LoadWorkload reads a JSON query log (text + optimizer-estimated costs,
// the Section 2.2 contract) and analyses it against the catalog.
func LoadWorkload(cat *Catalog, r io.Reader) (*Workload, error) {
	return workload.Load(cat, r)
}

// LoadSQLScript reads a semicolon-separated SQL script (comments allowed)
// and analyses it against the catalog; costs are left zero.
func LoadSQLScript(cat *Catalog, r io.Reader) (*Workload, error) {
	return workload.LoadSQLScript(cat, r)
}

// LoadCatalog reads a catalog (schema + statistics) from its JSON export —
// the "tune with production stats on a test server" workflow.
func LoadCatalog(r io.Reader) (*Catalog, error) { return catalog.LoadJSON(r) }

// LoadConfiguration reads an index configuration from its JSON export.
func LoadConfiguration(r io.Reader) (*Configuration, error) {
	return index.LoadConfigurationJSON(r)
}

// NewOptimizer returns a what-if optimizer over a catalog.
func NewOptimizer(cat *Catalog) *Optimizer { return cost.NewOptimizer(cat) }

// NewTelemetry returns an empty telemetry registry. Pass it to
// NewOptimizerWithTelemetry and the Telemetry fields of
// CompressorOptions/AdvisorOptions, then export with its WriteJSON or
// WriteTrace method.
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewOptimizerWithTelemetry returns a what-if optimizer whose call, plan,
// elision and fault counters register in reg (nil reg behaves like
// NewOptimizer).
func NewOptimizerWithTelemetry(cat *Catalog, reg *Telemetry) *Optimizer {
	return cost.NewOptimizerWithTelemetry(cat, cost.DefaultParams(), reg)
}

// DefaultOptions returns ISUM's default configuration (rule-based weights,
// summary-features algorithm).
func DefaultOptions() CompressorOptions { return core.DefaultOptions() }

// ISUMSOptions returns the statistics-based ISUM-S variant.
func ISUMSOptions() CompressorOptions { return core.ISUMSOptions() }

// NewCompressor returns an ISUM compressor.
func NewCompressor(opts CompressorOptions) *Compressor { return core.New(opts) }

// Compress selects k weighted queries from w using the default ISUM
// configuration and returns the compressed workload ready for tuning.
// On cancellation the workload holds the best-so-far weighted selection
// and the result has Partial set; a query whose cost is NaN, ±Inf or
// negative is an error naming its position.
func Compress(ctx context.Context, w *Workload, k int) (*Workload, *CompressionResult, error) {
	return core.New(core.DefaultOptions()).CompressedWorkloadContext(ctx, w, k)
}

// DefaultAdvisorOptions returns DTA-style tuning options.
func DefaultAdvisorOptions() AdvisorOptions { return advisor.DefaultOptions() }

// DexterAdvisorOptions returns DEXTER-style tuning options.
func DexterAdvisorOptions() AdvisorOptions { return advisor.DexterOptions() }

// Tune runs the advisor on a (typically compressed, weighted) workload.
// On cancellation the result holds the best configuration found so far
// with Partial set.
func Tune(ctx context.Context, o *Optimizer, w *Workload, opts AdvisorOptions) (*TuningResult, error) {
	return advisor.New(o, opts).TuneContext(ctx, w)
}

// Evaluate returns the improvement % of cfg on w — the paper's metric
// (C(W) − C_I(W)) / C(W) × 100 — with the before/after costs. The
// per-query what-if calls fan out across every core; the sums reduce in
// input order, so the result matches a serial evaluation exactly.
// Cancellation and a contained worker panic are errors.
func Evaluate(ctx context.Context, o *Optimizer, w *Workload, cfg *Configuration) (pct, before, after float64, err error) {
	return advisor.EvaluateImprovementContext(ctx, o, w, cfg, 0)
}

// NewIncremental returns an incremental compressor keeping at most k
// weighted representatives across Observe calls.
func NewIncremental(cat *Catalog, opts CompressorOptions, k int) *IncrementalCompressor {
	return core.NewIncremental(cat, opts, k)
}

// Explain returns the optimizer's access-path choices for q under cfg.
func Explain(o *Optimizer, q *Query, cfg *Configuration) *Plan {
	return o.Explain(q, cfg)
}

// Report computes the per-query improvement drill-down of cfg on w — the
// reporting contract commercial advisors expose (Section 10).
func Report(o *Optimizer, w *Workload, cfg *Configuration) *WorkloadReport {
	return advisor.Report(o, w, cfg)
}

// Failure model (DESIGN.md §9). A what-if call cannot fail. Compress and
// Tune implement the anytime contract: on cancellation or deadline expiry
// they return the best-so-far result with Partial set rather than an
// error; the error is reserved for real failures (contained worker panics
// and, in compression, a query whose cost is NaN, ±Inf or negative).

// IsCancellation reports whether err is a context cancellation or deadline
// expiry — the "partial result" outcomes, as opposed to real failures.
func IsCancellation(err error) bool { return faults.IsCancellation(err) }

// TPCH, TPCDS, DSB, and RealM return the paper's evaluation workload
// generators (DESIGN.md §1 documents the synthetic substitutions).
func TPCH(sf float64) *BenchmarkGenerator  { return benchmarks.TPCH(sf) }
func TPCDS(sf float64) *BenchmarkGenerator { return benchmarks.TPCDS(sf) }
func DSB(sf float64) *BenchmarkGenerator   { return benchmarks.DSB(sf) }
func RealM(seed int64) *BenchmarkGenerator { return benchmarks.RealM(seed) }
