package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"isum/internal/telemetry"
)

// Runner produces the tables for one paper figure/table. A runner returns
// an error instead of panicking: workload-generation failures, worker
// panics the pool contains, and cancellation of the run context all
// surface here and are threaded to a non-zero exit in cmd/experiments.
type Runner func(*Env) ([]*Table, error)

// Registry maps experiment ids to runners — one entry per table and figure
// in the paper's evaluation.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig2":   Fig2,
		"fig3":   Fig3,
		"fig5":   Fig5,
		"fig6":   Fig6,
		"fig7":   Fig7,
		"fig8":   Fig8,
		"fig9a":  Fig9a,
		"fig9b":  Fig9b,
		"fig10":  Fig10,
		"fig11":  Fig11,
		"fig12":  Fig12,
		"fig13":  Fig13,
		"fig14":  Fig14,
		"fig15":  Fig15,
		"table2": Table2,
		"table3": Table3,
		// Implementation ablations beyond the paper (DESIGN.md §5).
		"extra-norm":        ExtraNormAblation,
		"extra-advisor":     ExtraAdvisorAblation,
		"extra-incremental": ExtraIncremental,
	}
}

// Names returns the registered experiment ids in sorted order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by id and writes its tables to w. With
// Config.Telemetry set, the run is wrapped in an experiments/<id> span and
// a per-figure phase breakdown — elapsed time plus the counter deltas the
// figure caused (what-if calls, elided calls, greedy rounds) — is
// written right after the figure's tables.
func Run(env *Env, id string, w io.Writer) error {
	r, ok := Registry()[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	sp := env.Cfg.Telemetry.Start("experiments/" + id)
	tables, err := r(env)
	sp.End()
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", id, err)
	}
	for _, t := range tables {
		if err := t.Write(w); err != nil {
			return err
		}
	}
	if env.Cfg.Telemetry != nil {
		if err := telemetryBreakdown(id, sp).Write(w); err != nil {
			return err
		}
	}
	return nil
}

// telemetryBreakdown renders one figure's span into the phase-breakdown
// table written next to its results.
func telemetryBreakdown(id string, sp *telemetry.Span) *Table {
	t := &Table{
		Title:   "telemetry " + id,
		Columns: []string{"metric", "value"},
	}
	t.AddRow("elapsed", sp.Duration().Round(time.Microsecond).String())
	deltas := sp.CounterDeltas()
	names := make([]string, 0, len(deltas))
	for name := range deltas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.AddRow(name, deltas[name])
	}
	return t
}
