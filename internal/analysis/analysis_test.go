package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expect.txt goldens")

// fixtureCases maps each fixture directory to the import path it is
// loaded under — path-scoped analyzers (concurrency, anytime) key off
// the synthetic paths.
var fixtureCases = []struct {
	dir        string // under testdata/src
	importPath string
}{
	{"determinism/flagged", "fixture/determinism/flagged"},
	{"determinism/allowed", "fixture/determinism/allowed"},
	{"determinism/clean", "fixture/determinism/clean"},
	{"ctx/flagged", "fixture/ctx/flagged"},
	{"ctx/clean", "fixture/ctx/clean"},
	{"concurrency/flagged", "fixture/internal/engine"},
	{"concurrency/clean", "fixture/internal/parallel"},
	{"telemetry/flagged", "fixture/telemetry/flagged"},
	{"telemetry/clean", "fixture/telemetry/clean"},
	{"telemetry/printflagged", "fixture/internal/printer"},
	{"telemetry/printallowed", "fixture/internal/printallowed"},
	{"telemetry/printclean", "fixture/internal/telemetry"},
	{"anytime/flagged", "fixture/internal/core"},
	{"anytime/clean", "fixture/internal/core/clean"},
	{"allow/flagged", "fixture/allow/flagged"},
	{"alloc/flagged", "fixture/alloc/flagged"},
	{"alloc/allowed", "fixture/alloc/allowed"},
	{"alloc/clean", "fixture/alloc/clean"},
	// Loaded under cmd/ so the syntactic bare-go ban stays out of the
	// way of the flow-level goroutine-join findings.
	{"locksafety/flagged", "fixture/cmd/lockflagged"},
	{"locksafety/allowed", "fixture/cmd/lockallowed"},
	{"locksafety/clean", "fixture/cmd/lockclean"},
	// Loaded under internal/ because error hygiene is scoped to it.
	{"errhygiene/flagged", "fixture/internal/errs"},
	{"errhygiene/clean", "fixture/internal/errsclean"},
}

// TestFixtureGoldens runs the full analyzer suite over every fixture
// package and compares the findings against the expect.txt alongside it.
// Clean and allowed fixtures pin an empty expect.txt; flagged fixtures
// pin at least one finding per analyzer they exercise.
func TestFixtureGoldens(t *testing.T) {
	loader := NewLoader("testdata")
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", filepath.FromSlash(tc.dir))
			pkg, err := loader.LoadDir(dir, tc.importPath)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			got := renderFindings(pkg, RunPackage(pkg, Analyzers()))
			goldenPath := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run go test -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// renderFindings formats findings with basenames so goldens are
// machine-independent; an empty set renders as the empty string.
func renderFindings(pkg *Package, fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n",
			filepath.Base(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	return b.String()
}

// TestFlaggedFixturesCoverEveryAnalyzer asserts the acceptance
// criterion directly: each analyzer has at least one fixture finding it
// flags and at least one fixture it passes clean.
func TestFlaggedFixturesCoverEveryAnalyzer(t *testing.T) {
	loader := NewLoader("testdata")
	flagged := map[string]bool{}
	passedClean := map[string]bool{}
	for _, tc := range fixtureCases {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(tc.dir))
		pkg, err := loader.LoadDir(dir, tc.importPath)
		if err != nil {
			t.Fatalf("%s: load: %v", tc.dir, err)
		}
		fs := RunPackage(pkg, Analyzers())
		hit := map[string]bool{}
		for _, f := range fs {
			hit[f.Analyzer] = true
			flagged[f.Analyzer] = true
		}
		for _, a := range Analyzers() {
			if !hit[a.ID] {
				passedClean[a.ID] = true
			}
		}
	}
	for _, a := range Analyzers() {
		if !flagged[a.ID] {
			t.Errorf("analyzer %s has no fixture it flags", a.ID)
		}
		if !passedClean[a.ID] {
			t.Errorf("analyzer %s has no fixture it passes", a.ID)
		}
	}
}

// TestModuleSelfCheck pins the acceptance criterion that isumlint runs
// clean over the real module: every invariant holds or carries a
// reasoned //lint:allow.
func TestModuleSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadModule found only %d packages; loader lost the module", len(pkgs))
	}
	var all []string
	for _, pkg := range pkgs {
		for _, f := range RunPackage(pkg, Analyzers()) {
			all = append(all, f.String())
		}
	}
	if len(all) > 0 {
		t.Errorf("module has %d unallowed findings:\n%s", len(all), strings.Join(all, "\n"))
	}
}

// TestAllowDirectiveParsing covers the directive grammar corners that
// the fixtures do not: end-of-line vs standalone placement and the
// non-directive //lint:allowed prefix.
func TestAllowDirectiveParsing(t *testing.T) {
	loader := NewLoader("testdata")
	dir := filepath.Join("testdata", "src", "determinism", "allowed")
	pkg, err := loader.LoadDir(dir, "fixture/determinism/allowed2")
	if err != nil {
		t.Fatal(err)
	}
	allows, bad := parseAllows(pkg)
	if len(bad) != 0 {
		t.Fatalf("well-formed directives reported bad: %v", bad)
	}
	if len(allows) != 2 {
		t.Fatalf("got %d allow lines, want 2", len(allows))
	}
	for key, ds := range allows {
		for _, d := range ds {
			if d.id != "determinism" {
				t.Errorf("%v: id %q, want determinism", key, d.id)
			}
			if d.reason == "" {
				t.Errorf("%v: empty reason", key)
			}
		}
	}
}
