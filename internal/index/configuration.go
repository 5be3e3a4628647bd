package index

import (
	"slices"
	"strings"

	"isum/internal/catalog"
)

// Configuration is a set of indexes — the unit the advisor enumerates over
// and the what-if optimizer costs against. The zero value is an empty
// configuration (base tables only).
//
// Each member's canonical ID (Index.ID) is computed once, on insertion,
// and kept beside it (Member), so the optimizer's per-call cache key never
// re-derives it.
type Configuration struct {
	byID    map[string]Index
	byTable map[string][]Member

	// A probe view (Probe) stores nothing of its own but these: it reads
	// base's members and adds probe, which lives on probeTable.
	view       bool
	base       *Configuration
	probe      Member
	probeTable string
}

// Member is one index of a configuration together with its canonical ID.
type Member struct {
	Index Index
	ID    string
}

// NewMember pairs ix with its canonical ID, for Configuration.Probe.
func NewMember(ix Index) Member { return Member{Index: ix, ID: ix.ID()} }

// NewConfiguration returns a configuration containing the given indexes
// (duplicates by ID collapse).
func NewConfiguration(indexes ...Index) *Configuration {
	c := &Configuration{
		byID:    make(map[string]Index),
		byTable: make(map[string][]Member),
	}
	for _, ix := range indexes {
		c.Add(ix)
	}
	return c
}

// Add inserts an index; returns false if an identical index was present.
// Adding to a probe view first turns it into a configuration of its own.
func (c *Configuration) Add(ix Index) bool {
	c.materialize()
	return c.add(NewMember(ix))
}

func (c *Configuration) add(m Member) bool {
	if _, ok := c.byID[m.ID]; ok {
		return false
	}
	c.byID[m.ID] = m.Index
	tk := strings.ToLower(m.Index.Table)
	c.byTable[tk] = append(c.byTable[tk], m)
	return true
}

// Remove deletes an index by identity; returns whether it was present.
// Removing from a probe view first turns it into a configuration of its
// own.
func (c *Configuration) Remove(ix Index) bool {
	c.materialize()
	id := ix.ID()
	if _, ok := c.byID[id]; !ok {
		return false
	}
	delete(c.byID, id)
	tk := strings.ToLower(ix.Table)
	list := c.byTable[tk]
	for i := range list {
		if list[i].ID == id {
			c.byTable[tk] = append(list[:i], list[i+1:]...)
			break
		}
	}
	return true
}

// materialize turns a probe view into a configuration that owns its
// members; a no-op on anything else.
func (c *Configuration) materialize() {
	if c.view {
		*c = *c.Clone()
	}
}

// Contains reports whether an identical index is present.
func (c *Configuration) Contains(ix Index) bool {
	return c.containsID(ix.ID())
}

func (c *Configuration) containsID(id string) bool {
	if c == nil {
		return false
	}
	if c.view {
		return c.probe.ID == id || c.base.containsID(id)
	}
	_, ok := c.byID[id]
	return ok
}

// Probe returns the configuration c ∪ {m} as a read-only view: it shares
// c's members instead of copying them, so a what-if probe of "the current
// configuration plus one candidate" costs one small allocation however
// large c is. c must not change while the view is in use. When c already
// holds m, Probe returns c itself. A nil c probes the single-index
// configuration {m}.
func (c *Configuration) Probe(m Member) *Configuration {
	if c.containsID(m.ID) {
		return c
	}
	return &Configuration{view: true, base: c, probe: m, probeTable: strings.ToLower(m.Index.Table)}
}

// ForTable returns the members on the named table, in insertion order.
func (c *Configuration) ForTable(table string) []Member {
	var out []Member
	for _, m := range c.AppendOnTable(nil, strings.ToLower(table)) {
		out = append(out, *m)
	}
	return out
}

// AppendOnTable appends pointers to the members on table, which must
// already be lower-cased (as workload.TableUse and workload.Info.Tables
// names are), to dst and returns the extended slice. It is the
// allocation-free accessor the what-if optimizer builds its cache keys
// and plans from; the pointers stay valid until c is next modified.
func (c *Configuration) AppendOnTable(dst []*Member, table string) []*Member {
	if c == nil {
		return dst
	}
	if c.view {
		dst = c.base.AppendOnTable(dst, table)
		if table == c.probeTable {
			dst = append(dst, &c.probe)
		}
		return dst
	}
	list := c.byTable[table]
	for i := range list {
		dst = append(dst, &list[i])
	}
	return dst
}

// Len returns the number of indexes.
func (c *Configuration) Len() int {
	if c == nil {
		return 0
	}
	if c.view {
		return c.base.Len() + 1
	}
	return len(c.byID)
}

// members returns every member, sorted by ID.
func (c *Configuration) members() []Member {
	if c == nil {
		return nil
	}
	var out []Member
	if c.view {
		out = append(c.base.members(), c.probe)
	} else {
		out = make([]Member, 0, len(c.byID))
		for _, list := range c.byTable {
			out = append(out, list...)
		}
	}
	slices.SortFunc(out, func(a, b Member) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Indexes returns all indexes in deterministic (ID-sorted) order.
func (c *Configuration) Indexes() []Index {
	if c == nil {
		return nil
	}
	ms := c.members()
	out := make([]Index, len(ms))
	for i, m := range ms {
		out[i] = m.Index
	}
	return out
}

// Clone returns a deep copy that keeps each table's insertion order.
func (c *Configuration) Clone() *Configuration {
	out := NewConfiguration()
	if c == nil {
		return out
	}
	if c.view {
		out = c.base.Clone()
		out.add(c.probe)
		return out
	}
	for tk, list := range c.byTable {
		out.byTable[tk] = append([]Member(nil), list...)
		for _, m := range list {
			out.byID[m.ID] = m.Index
		}
	}
	return out
}

// Union returns a new configuration containing indexes from both.
func (c *Configuration) Union(other *Configuration) *Configuration {
	out := c.Clone()
	for _, m := range other.members() {
		out.add(m)
	}
	return out
}

// With returns a copy with ix added. What-if probes that only read the
// result should use Probe, which does not copy.
func (c *Configuration) With(ix Index) *Configuration {
	out := c.Clone()
	out.add(NewMember(ix))
	return out
}

// SizeBytes estimates the total on-disk size of the configuration.
func (c *Configuration) SizeBytes(cat *catalog.Catalog) int64 {
	if c == nil {
		return 0
	}
	if c.view {
		return c.base.SizeBytes(cat) + c.probe.Index.SizeBytes(cat)
	}
	var n int64
	for _, ix := range c.byID {
		n += ix.SizeBytes(cat)
	}
	return n
}

// Fingerprint returns a canonical string identifying the configuration,
// suitable as a cache key for what-if costing.
func (c *Configuration) Fingerprint() string {
	ms := c.members()
	if len(ms) == 0 {
		return ""
	}
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return strings.Join(ids, ";")
}
