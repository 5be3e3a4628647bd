package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"isum/internal/benchmarks"
	"isum/internal/clitest"
	"isum/internal/cost"
	"isum/internal/faults"
	"isum/internal/index"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlags pins tune's flag surface: the shared benchmark, telemetry
// and failure-model flags plus its own, and nothing else.
func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, []string{
		"advisor", "benchmark", "catalog", "config-out", "eval", "in",
		"max-indexes", "metrics-out", "parallelism", "pprof-dir", "report",
		"seed", "sf", "storage-mult", "timeout", "trace",
	})
}

// writeFile writes data to name in dir and returns its path.
func writeFile(t *testing.T, dir, name string, write func(*bytes.Buffer) error) string {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tpchLog writes a costed 40-query TPC-H log (sf 10, seed 1) into dir.
func tpchLog(t *testing.T, dir string) string {
	t.Helper()
	g := benchmarks.TPCH(10)
	w, err := g.Workload(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cost.NewOptimizer(g.Cat).FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, dir, "w.json", func(b *bytes.Buffer) error { return w.Save(b) })
}

var (
	recommendedRe = regexp.MustCompile(`^recommended (\d+) indexes in \S+ `)
	evalRe        = regexp.MustCompile(`(?m)^improvement on evaluation workload: ([0-9.]+)%`)
)

// masked is tune's stdout with the elapsed time of its first line masked.
func masked(stdout string) string {
	return recommendedRe.ReplaceAllString(stdout, "recommended $1 indexes in <elapsed> ")
}

// TestRequiresIn: tune without -in fails with ExitFailed and says why.
func TestRequiresIn(t *testing.T) {
	res := clitest.Run(t)
	if res.Code != faults.ExitFailed || !strings.Contains(res.Stderr, "-in is required") {
		t.Fatalf("exit %d, stderr:\n%s", res.Code, res.Stderr)
	}
}

// TestTuneEvaluateAndSave: tune recommends at most -max-indexes indexes
// that improve the evaluation workload, drills into -report queries, and
// -config-out saves the same configuration it printed.
func TestTuneEvaluateAndSave(t *testing.T) {
	dir := t.TempDir()
	in := tpchLog(t, dir)
	cfgOut := filepath.Join(dir, "cfg.json")
	res := clitest.MustRun(t, "-in", in, "-eval", in, "-max-indexes", "5", "-report", "3", "-config-out", cfgOut)

	m := recommendedRe.FindStringSubmatch(res.Stdout)
	if m == nil {
		t.Fatalf("stdout does not start with the recommendation:\n%s", res.Stdout)
	}
	n, _ := strconv.Atoi(m[1])
	if n == 0 || n > 5 {
		t.Errorf("recommended %d indexes, want 1..5", n)
	}
	e := evalRe.FindStringSubmatch(res.Stdout)
	if e == nil {
		t.Fatalf("stdout has no evaluation line:\n%s", res.Stdout)
	}
	if pct, _ := strconv.ParseFloat(e[1], 64); pct <= 0 {
		t.Errorf("improvement on evaluation workload %g%%, want > 0", pct)
	}
	if !strings.Contains(res.Stdout, "top 3 improved queries:") {
		t.Errorf("-report 3 printed no drill-down:\n%s", res.Stdout)
	}

	f, err := os.Open(cfgOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := index.LoadConfigurationJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Len() != n {
		t.Fatalf("-config-out holds %d indexes, stdout recommended %d", cfg.Len(), n)
	}
	for _, ix := range cfg.Indexes() {
		if !strings.Contains(res.Stdout, "  "+ix.String()+"  (") {
			t.Errorf("saved index %s is not in the printed recommendation", ix)
		}
	}
}

// TestExpiredDeadline: a deadline that expires before tuning starts
// exits ExitPartial, prints the empty best-so-far recommendation, and
// -config-out still saves it as a configuration LoadConfigurationJSON
// reads back.
func TestExpiredDeadline(t *testing.T) {
	dir := t.TempDir()
	in := tpchLog(t, dir)
	cfgOut := filepath.Join(dir, "cfg.json")
	res := clitest.Run(t, "-in", in, "-eval", in, "-timeout", "1ns", "-config-out", cfgOut)
	if res.Code != faults.ExitPartial {
		t.Fatalf("exit %d, want %d; stderr:\n%s", res.Code, faults.ExitPartial, res.Stderr)
	}
	if !strings.HasPrefix(res.Stdout, "recommended 0 indexes in ") {
		t.Errorf("stdout does not open with the empty recommendation:\n%s", res.Stdout)
	}
	f, err := os.Open(cfgOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := index.LoadConfigurationJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Len() != 0 {
		t.Errorf("-config-out holds %d indexes, want 0", cfg.Len())
	}
}

// TestAdvisors: both -advisor flavours recommend the same indexes at
// -parallelism 1 and 4; an unknown flavour fails with ExitFailed.
func TestAdvisors(t *testing.T) {
	in := tpchLog(t, t.TempDir())
	for _, mode := range []string{"dta", "dexter"} {
		t.Run(mode, func(t *testing.T) {
			serial := clitest.MustRun(t, "-in", in, "-advisor", mode, "-max-indexes", "6", "-parallelism", "1")
			if !recommendedRe.MatchString(serial.Stdout) {
				t.Fatalf("stdout does not start with the recommendation:\n%s", serial.Stdout)
			}
			par := clitest.MustRun(t, "-in", in, "-advisor", mode, "-max-indexes", "6", "-parallelism", "4")
			if masked(par.Stdout) != masked(serial.Stdout) {
				t.Errorf("-parallelism 4 output\n%s\ndiffers from -parallelism 1\n%s", par.Stdout, serial.Stdout)
			}
		})
	}
	t.Run("unknown", func(t *testing.T) {
		res := clitest.Run(t, "-in", in, "-advisor", "oracle")
		if res.Code != faults.ExitFailed || !strings.Contains(res.Stderr, `unknown advisor \"oracle\"`) {
			t.Fatalf("exit %d, stderr:\n%s", res.Code, res.Stderr)
		}
	})
}

// TestCatalogFile: -catalog with the benchmark catalog's own JSON export
// recommends exactly what the built-in schema does.
func TestCatalogFile(t *testing.T) {
	dir := t.TempDir()
	in := tpchLog(t, dir)
	cat := writeFile(t, dir, "cat.json", func(b *bytes.Buffer) error { return benchmarks.TPCH(10).Cat.SaveJSON(b) })
	builtin := clitest.MustRun(t, "-in", in, "-max-indexes", "6")
	loaded := clitest.MustRun(t, "-in", in, "-max-indexes", "6", "-catalog", cat)
	if masked(loaded.Stdout) != masked(builtin.Stdout) {
		t.Errorf("-catalog output\n%s\ndiffers from the built-in schema's\n%s", loaded.Stdout, builtin.Stdout)
	}
}
