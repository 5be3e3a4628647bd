package benchmarks

import "math/rand"

// ScaleMDefaultTemplates is the template count FromName("scalem") uses —
// the upper end of the paper's template statistics (Table 2) and the
// operating point the million-query scale path collapses workloads to:
// hash-consing a 10⁵–10⁶-query Scale-M workload leaves ~this many
// distinct greedy states.
const ScaleMDefaultTemplates = 2000

// ScaleM synthesises the million-query scale workload source (ROADMAP
// item 3): the Real-M catalog profile — 474 tables with hub/tail skew —
// but with a parameterised template count, so Workload(n, seed) can
// template-expand 10⁵–10⁶ query instances over 10³–10⁴ distinct
// templates. Instances cycle templates round-robin, giving every
// template ≈ n/templates literal-varied duplicates: exactly the
// duplicate-heavy shape production query stores exhibit and the shape
// template hash-consing is built for.
//
// templates < 1 falls back to ScaleMDefaultTemplates. The generator is
// seeded and fully deterministic for a given (seed, templates) pair.
func ScaleM(seed int64, templates int) *Generator {
	if templates < 1 {
		templates = ScaleMDefaultTemplates
	}
	rng := rand.New(rand.NewSource(seed))
	cat, tables := realmCatalog(rng)
	return &Generator{
		Name:      "Scale-M",
		Cat:       cat,
		Templates: realmTemplates(rng, tables, templates),
	}
}
