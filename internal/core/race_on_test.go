//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// largest oracle cases skip under -race, whose instrumentation slows
// them past a useful test budget.
const raceEnabled = true
