package operators

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"specqp/internal/kg"
)

// TestWorkspaceSlabAccounting pins the free-list invariants everything else
// rests on: a slab is never handed out twice at once, an outgrown slab is
// reusable immediately, a slab the pool did not hand out is never adopted,
// and reclaiming frees every slab at once.
func TestWorkspaceSlabAccounting(t *testing.T) {
	p := new(Workspace).entryPool()
	same := func(a, b []Entry) bool { return &a[:1][0] == &b[:1][0] }

	a, b := p.get(16), p.get(16)
	if same(a, b) {
		t.Fatal("two live slabs share a backing array")
	}
	if c := p.get(20); len(c) != 20 || cap(c) != 32 {
		t.Fatalf("get(20): len %d cap %d, want 20 and 32", len(c), cap(c))
	}
	p.put(a)
	if c := p.get(16); !same(c, a) {
		t.Fatal("an outgrown slab was not reused")
	}
	p.put(make([]Entry, 16))
	if c := p.get(16); same(c, a) || same(c, b) {
		t.Fatal("a live slab was handed out again")
	}
	p.put(a)
	p.put(a) // a second put of the same slab must not free it twice
	if c, d := p.get(16), p.get(16); same(c, d) {
		t.Fatal("a slab put twice was handed out twice")
	}

	p.release()
	var got [][]Entry
	for range 4 {
		got = append(got, p.get(16))
	}
	for i := range got {
		for j := range i {
			if same(got[i], got[j]) {
				t.Fatalf("after release, slabs %d and %d share a backing array", j, i)
			}
		}
	}
	if len(p.classes[4].slabs) != 4 {
		t.Fatalf("class 16 holds %d slabs after reuse, want the 4 it already had", len(p.classes[4].slabs))
	}
}

// workspaceWorld is a store whose scans exercise every pooled structure: a
// three-variable query (interned emit keys), a merge, a dedup scan over a
// variable outside the query, and joins that drain deep.
func workspaceWorld(t *testing.T, seed int64) (*kg.Store, kg.Query, []kg.Pattern) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := kg.NewStore(nil)
	d := st.Dict()
	ty, likes := d.Encode("type"), d.Encode("likes")
	for e := 0; e < 600; e++ {
		s := d.Encode(fmt.Sprintf("e%d", e))
		for range 1 + rng.Intn(3) {
			o := d.Encode(fmt.Sprintf("T%d", rng.Intn(6)))
			if err := st.Add(kg.Triple{S: s, P: ty, O: o, Score: float64(1 + rng.Intn(1000))}); err != nil {
				t.Fatal(err)
			}
		}
		for range rng.Intn(4) {
			o := d.Encode(fmt.Sprintf("e%d", rng.Intn(600)))
			if err := st.Add(kg.Triple{S: s, P: likes, O: o, Score: float64(1 + rng.Intn(1000))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Freeze()
	q := kg.NewQuery(
		kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("t")),
		kg.NewPattern(kg.Var("s"), kg.Const(likes), kg.Var("o")),
	)
	relaxed := []kg.Pattern{
		kg.NewPattern(kg.Var("s"), kg.Const(likes), kg.Var("t")),
		kg.NewPattern(kg.Var("s"), kg.Const(likes), kg.Var("z")), // z outside the query: dedup scan
	}
	return st, q, relaxed
}

// drainTree builds RankJoin(IncrementalMerge(scan, relaxed scans...), scan)
// against c and drains it.
func drainTree(st *kg.Store, q kg.Query, relaxed []kg.Pattern, c *Counter) []Entry {
	vs := kg.NewVarSet(q)
	inputs := []Stream{NewListScan(st, vs, q.Patterns[0], 1, 0, c)}
	for i, p := range relaxed {
		inputs = append(inputs, NewListScan(st, vs, p, 0.6/float64(i+1), 1, c))
	}
	left := NewIncrementalMerge(inputs, c)
	right := NewListScan(st, vs, q.Patterns[1], 1, 0, c)
	jv := JoinVars(PatternBoundVars(vs, q.Patterns[0]), PatternBoundVars(vs, q.Patterns[1]))
	return Drain(NewRankJoin(left, right, jv, c))
}

// TestWorkspaceJoinMatchesUnpooled: operators drawing from a workspace that
// another query already dirtied produce exactly what unpooled operators
// produce — same entries, same order, same object count — so reused slabs
// carry nothing from their last user into a result.
func TestWorkspaceJoinMatchesUnpooled(t *testing.T) {
	ws := new(Workspace)
	for seed := int64(1); seed <= 4; seed++ {
		st, q, relaxed := workspaceWorld(t, seed)
		// Dirty the workspace with the mirrored query first.
		drainTree(st, kg.NewQuery(q.Patterns[1], q.Patterns[0]), relaxed[:1], &Counter{ws: ws})
		ws.reclaim()

		var plain, pooled Counter
		pooled.SetWorkspace(ws)
		want := drainTree(st, q, relaxed, &plain)
		got := drainTree(st, q, relaxed, &pooled)
		ws.reclaim()
		if len(want) < 100 {
			t.Fatalf("seed %d: only %d join results, fixture too small", seed, len(want))
		}
		if plain.Value() != pooled.Value() {
			t.Fatalf("seed %d: %d memory objects pooled, %d unpooled", seed, pooled.Value(), plain.Value())
		}
		if !slices.EqualFunc(got, want, func(a, b Entry) bool {
			return a.Score == b.Score && a.Relaxed == b.Relaxed && slices.Equal(a.Binding, b.Binding)
		}) {
			t.Fatalf("seed %d: pooled drain differs from unpooled (%d vs %d entries)", seed, len(got), len(want))
		}
	}
}
