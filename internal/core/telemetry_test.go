package core

import (
	"math"
	"testing"

	"isum/internal/telemetry"
)

// TestTelemetryDoesNotChangeOutput pins the observability contract: a
// compression run with a live registry selects the same queries with the
// same weights and benefits as the uninstrumented run, for both greedy
// algorithms.
func TestTelemetryDoesNotChangeOutput(t *testing.T) {
	w := testWorkload(t)
	for _, algo := range []Algorithm{SummaryFeatures, AllPairs} {
		plain := DefaultOptions()
		plain.Algorithm = algo
		instr := plain
		instr.Telemetry = telemetry.New()

		base := compress(t, New(plain), w, 5)
		traced := compress(t, New(instr), w, 5)

		if len(base.Indices) != len(traced.Indices) {
			t.Fatalf("algorithm %v: selected %d vs %d queries", algo, len(base.Indices), len(traced.Indices))
		}
		for i := range base.Indices {
			if base.Indices[i] != traced.Indices[i] {
				t.Errorf("algorithm %v: index %d differs: %d vs %d", algo, i, base.Indices[i], traced.Indices[i])
			}
			if math.Abs(base.Weights[i]-traced.Weights[i]) > 1e-12 {
				t.Errorf("algorithm %v: weight %d differs: %v vs %v", algo, i, base.Weights[i], traced.Weights[i])
			}
			if math.Abs(base.SelectionBenefits[i]-traced.SelectionBenefits[i]) > 1e-12 {
				t.Errorf("algorithm %v: benefit %d differs: %v vs %v", algo, i, base.SelectionBenefits[i], traced.SelectionBenefits[i])
			}
		}

		// The instrumented run must actually have recorded its phases.
		reg := instr.Telemetry
		if got := reg.Counter("core/greedy/rounds").Value(); got == 0 {
			t.Errorf("algorithm %v: no greedy rounds recorded", algo)
		}
		if len(reg.Spans()) == 0 {
			t.Errorf("algorithm %v: no spans recorded", algo)
		}
	}
}
