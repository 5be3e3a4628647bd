package cost

import (
	"testing"

	"isum/internal/index"
)

// TestCacheKeyCollisionIsExact pins that the what-if cache answers only
// for the configuration a record was computed under: the key is a hash of
// the members' IDs, so a configuration whose key collides with a cached
// one must miss, not read the other's cost, and must not evict it.
func TestCacheKeyCollisionIsExact(t *testing.T) {
	a := index.NewMember(index.New("orders", "o_custkey"))
	b := index.NewMember(index.New("orders", "o_orderdate"))
	e := &queryEntry{costs: map[uint64]*costRec{}}
	const key = 42 // both configurations forced onto one key
	e.insert(key, &costRec{ids: memberIDs([]*index.Member{&a}), v: cacheVal{c: 1}})
	if r := e.find(key, []*index.Member{&b}); r != nil {
		t.Fatalf("colliding configuration read cost %v cached for another", r.v.c)
	}
	other := &costRec{ids: memberIDs([]*index.Member{&b}), v: cacheVal{c: 2}}
	e.insert(key, other)
	e.remove(key, other)
	if r := e.find(key, []*index.Member{&a}); r == nil || r.v.c != 1 {
		t.Fatal("a colliding configuration displaced the cached record")
	}
}
