package benchmarks

import (
	"flag"
	"strings"
	"testing"
)

// parseFlags registers Flags on a fresh flag set and parses args.
func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var f Flags
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

// TestFlagsDefaults: the shared flags keep the names and defaults the
// four pipeline binaries declared before they shared them.
func TestFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var f Flags
	f.Register(fs)
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name+"="+fl.DefValue) })
	if got, want := strings.Join(names, " "), "benchmark=tpch seed=1 sf=10"; got != want {
		t.Errorf("flags %q, want %q", got, want)
	}
	if got := *parseFlags(t); got != (Flags{Benchmark: "tpch", Scale: 10, Seed: 1}) {
		t.Errorf("parsed defaults %+v", got)
	}
}

// TestFlagsHelpText checks, for each benchmark, the help text every
// binary prints: Generator builds the generator -benchmark names, -sf
// scales only the tpch, tpcds and dsb catalogs, and -seed picks only the
// realm and scalem catalogs.
func TestFlagsHelpText(t *testing.T) {
	for _, tc := range []struct {
		bench, name string
		seeded      bool // catalog depends on -seed, not -sf
	}{
		{"tpch", "TPC-H", false},
		{"tpcds", "TPC-DS", false},
		{"dsb", "DSB", false},
		{"realm", "Real-M", true},
		{"scalem", "Scale-M", true},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			size := func(args ...string) int64 {
				t.Helper()
				g, err := parseFlags(t, append([]string{"-benchmark", tc.bench}, args...)...).Generator()
				if err != nil {
					t.Fatal(err)
				}
				if g.Name != tc.name {
					t.Fatalf("generator %q, want %q", g.Name, tc.name)
				}
				return g.Cat.TotalSizeBytes()
			}
			base := size("-sf", "1", "-seed", "1")
			if scaled := size("-sf", "2", "-seed", "1"); (scaled != base) == tc.seeded {
				t.Errorf("-sf 1 → 2 moved the catalog size %d → %d; want a change only for tpch, tpcds and dsb", base, scaled)
			}
			if reseeded := size("-sf", "1", "-seed", "2"); (reseeded != base) != tc.seeded {
				t.Errorf("-seed 1 → 2 moved the catalog size %d → %d; want a change only for realm and scalem", base, reseeded)
			}
		})
	}
}

// TestFlagsUnknownBenchmark: Generator reports a -benchmark it does not
// know, listing the ones it does.
func TestFlagsUnknownBenchmark(t *testing.T) {
	_, err := parseFlags(t, "-benchmark", "oracle").Generator()
	if err == nil || !strings.Contains(err.Error(), `unknown benchmark "oracle"`) {
		t.Fatalf("Generator() error = %v", err)
	}
}
