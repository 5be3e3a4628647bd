package benchmarks

import "flag"

// Flags is the benchmark-selection CLI surface shared by the pipeline
// binaries (isum, tune, inspect, workloadgen):
//
//	-benchmark=<name>  catalog and generator: tpch, tpcds, dsb, realm, scalem
//	-sf=<factor>       scale factor of the tpch, tpcds and dsb catalogs
//	-seed=<n>          seed of the realm and scalem catalogs and of any
//	                   generated workload
//
// Register the flags, then build the generator with Generator.
type Flags struct {
	Benchmark string
	Scale     float64
	Seed      int64
}

// Register installs the three flags on fs (use flag.CommandLine in main).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Benchmark, "benchmark", "tpch",
		"benchmark catalog and generator: tpch, tpcds, dsb, realm, scalem")
	fs.Float64Var(&f.Scale, "sf", 10,
		"scale factor of the tpch, tpcds and dsb catalogs")
	fs.Int64Var(&f.Seed, "seed", 1,
		"seed of the realm and scalem catalogs and of any generated workload")
}

// Generator returns the generator the flags name (see FromName).
func (f *Flags) Generator() (*Generator, error) {
	return FromName(f.Benchmark, f.Scale, f.Seed)
}
