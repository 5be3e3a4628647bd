package cost

import (
	"fmt"
	"strings"

	"isum/internal/index"
	"isum/internal/workload"
)

// TableAccess describes the access path chosen for one table occurrence.
type TableAccess struct {
	Table string
	// Index is nil for a heap scan.
	Index *index.Index
	// Covering reports whether the index avoided base-table lookups.
	Covering bool
	// SeekSelectivity is the fraction of the index reached by the seek
	// (1 when the index is scanned or unused for seeking).
	SeekSelectivity float64
	// Cost is the access-path cost.
	Cost float64
	// OutRows is the estimated row count after local filters.
	OutRows float64
}

// String renders the access compactly.
func (ta TableAccess) String() string {
	if ta.Index == nil {
		return fmt.Sprintf("scan %s (%.0f rows)", ta.Table, ta.OutRows)
	}
	kind := "seek"
	if ta.SeekSelectivity >= 1 {
		kind = "scan"
	}
	cov := ""
	if ta.Covering {
		cov = ", covering"
	}
	return fmt.Sprintf("%s %s%s -> %s (%.0f rows)", kind, ta.Index, cov, ta.Table, ta.OutRows)
}

// Plan is the optimizer's explanation of one query under a configuration:
// the chosen access paths per block, plus the total cost. (Join order and
// method are chosen during costing but not materialised here.)
type Plan struct {
	Accesses []TableAccess
	Total    float64
}

// IndexesUsed returns the distinct index IDs the plan relies on.
func (p *Plan) IndexesUsed() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range p.Accesses {
		if a.Index != nil && !seen[a.Index.ID()] {
			seen[a.Index.ID()] = true
			out = append(out, a.Index.ID())
		}
	}
	return out
}

// String renders the plan as one line per access.
func (p *Plan) String() string {
	lines := make([]string, len(p.Accesses))
	for i, a := range p.Accesses {
		lines[i] = "  " + a.String()
	}
	return fmt.Sprintf("cost %.1f\n%s", p.Total, strings.Join(lines, "\n"))
}

// Explain returns the access-path choices for q under cfg, read off the
// query's compiled plan (DESIGN.md §17); Total is the what-if cost.
func (o *Optimizer) Explain(q *workload.Query, cfg *index.Configuration) *Plan {
	p := &Plan{}
	if q.Info == nil {
		return p
	}
	s, atoms := o.planFor(q.Text).compiled(o, q, relevantMembers(nil, q, cfg), nil)
	cur := make([]int32, len(atoms))
	for bi := range s.blocks {
		b := &s.blocks[bi]
		// The fold visits occurrences in join order; report them in FROM
		// order.
		accs := make([]TableAccess, b.hi-b.lo)
		for k := b.lo; k < b.hi; k++ {
			oc := &s.occs[k]
			acc, _, a, chosen := pickAccess(oc.scan, k, atoms, cur)
			ta := TableAccess{Table: oc.name, Cost: acc, OutRows: oc.outRows}
			if chosen != nil {
				ix := a.ix
				ta.Index, ta.Covering, ta.SeekSelectivity = &ix, chosen.covering, chosen.seekSel
			}
			accs[oc.pos] = ta
		}
		p.Accesses = append(p.Accesses, accs...)
	}
	p.Total = o.Cost(q, cfg)
	return p
}
