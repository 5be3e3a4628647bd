//go:build race

package workload_test

// raceEnabled reports whether the race detector is compiled in; the
// 10⁴-query oracle log skips under -race, whose instrumentation slows it
// past a useful test budget.
const raceEnabled = true
