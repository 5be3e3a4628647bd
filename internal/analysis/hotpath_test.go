package analysis

import (
	"path/filepath"
	"testing"
)

// TestHotpathCoversZeroAllocKernels pins the acceptance criterion that
// every kernel exercised by features.TestKernelZeroAlloc carries the
// //lint:hotpath marker, so the runtime pin and the static pin guard
// the same set. The core greedy inner-loop helpers ride on the same
// check.
func TestHotpathCoversZeroAllocKernels(t *testing.T) {
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
	marked := map[string]map[string]bool{}
	for _, pkg := range pkgs {
		m := map[string]bool{}
		for _, name := range HotpathFuncNames(pkg) {
			m[name] = true
		}
		marked[pkg.Path] = m
	}

	// The TestKernelZeroAlloc set, by "Recv.Name" spelling.
	wantFeatures := []string{
		"SparseVec.WeightedJaccard", "SparseVec.Jaccard", "SummarySimilarity",
		"SparseVec.Sum", "SparseVec.SubClampedScaled", "SparseVec.ZeroShared",
		"SparseVec.AddScaled", "SparseVec.SharedWeights", "UpdateDelta",
		"SparseVec.Release",
	}
	feats := marked["isum/internal/features"]
	if feats == nil {
		t.Fatal("internal/features not loaded")
	}
	for _, name := range wantFeatures {
		if !feats[name] {
			t.Errorf("features kernel %s is exercised by TestKernelZeroAlloc but not marked //lint:hotpath", name)
		}
	}

	wantCore := []string{
		"QueryState.Similarity", "Influence", "BenefitAllPairs", "BenefitSummary",
	}
	core := marked["isum/internal/core"]
	if core == nil {
		t.Fatal("internal/core not loaded")
	}
	for _, name := range wantCore {
		if !core[name] {
			t.Errorf("core inner-loop helper %s is not marked //lint:hotpath", name)
		}
	}

	// The elision bound lookups of cost.TestKernelZeroAlloc — consulted
	// per (candidate, query) in the advisor's greedy inner loop — and the
	// compiled-plan evaluation and cache-hit path it pins alongside them.
	wantCost := []string{
		"QueryBounds.BaseCost", "QueryBounds.AtomicCost",
		"QueryBounds.Lower", "QueryBounds.UpperWith",
		"planSkeleton.eval", "planSkeleton.evalBlock", "pickAccess",
		"relevantMembers", "relevantKey", "hashString", "sameIDs", "Optimizer.shardFor",
		"cacheShard.lookup", "queryEntry.find",
	}
	costPkg := marked["isum/internal/cost"]
	if costPkg == nil {
		t.Fatal("internal/cost not loaded")
	}
	for _, name := range wantCost {
		if !costPkg[name] {
			t.Errorf("cost hot path %s is exercised by TestKernelZeroAlloc but not marked //lint:hotpath", name)
		}
	}
}

// TestHotpathMarkerParsing pins the marker grammar: trailing notes are
// allowed, prefixes that merely share the spelling are not markers.
func TestHotpathMarkerParsing(t *testing.T) {
	cases := map[string]bool{
		"//lint:hotpath":                  true,
		"//lint:hotpath zero-alloc merge": true,
		"//lint:hotpath\tnote":            true,
		"//lint:hotpaths":                 false,
		"// lint:hotpath":                 false,
		"//lint:allow alloc reason":       false,
	}
	for text, want := range cases {
		if got := isHotpathMarker(text); got != want {
			t.Errorf("isHotpathMarker(%q) = %v, want %v", text, got, want)
		}
	}
}
