package operators

import (
	"fmt"
	"testing"

	"specqp/internal/kg"
)

// dupFreeStore builds a store with no duplicate (s,p,o) triples, so scans
// over patterns whose variables are all in the query's variable set qualify
// for the dedup-free fast path.
func dupFreeStore(t testing.TB) *kg.Store {
	t.Helper()
	st := kg.NewStore(nil)
	for i := 0; i < 64; i++ {
		s := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"}[i%8]
		o := []string{"A", "B", "C", "D"}[(i/8)%4]
		p := []string{"type", "likes"}[(i/32)%2]
		if err := st.AddSPO(s, p, o, float64(100-i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	if st.HasDuplicates() {
		t.Fatal("test store unexpectedly has duplicate triples")
	}
	return st
}

// TestListScanNextZeroAllocs is the acceptance-criterion guard: on a
// duplicate-free pattern, the scan's steady state (drain, reset, drain
// again) performs zero heap allocations — the scratch binding, compiled
// binder and slab arena leave nothing to allocate per candidate or per
// emitted entry.
func TestListScanNextZeroAllocs(t *testing.T) {
	st := dupFreeStore(t)
	ty, _ := st.Dict().Lookup("type")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	vs := kg.NewVarSet(kg.NewQuery(pat))
	s := NewListScan(st, vs, pat, 1, 0, nil)
	// First pass sizes the arena slabs.
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		s.Reset()
		for {
			if _, ok := s.Next(); !ok {
				return
			}
		}
	}); allocs != 0 {
		t.Fatalf("steady-state scan: %v allocs per drain, want 0", allocs)
	}
}

// TestListScanDedupPathSteadyAllocs pins the dedup path too: a store with
// duplicate triples needs the seen map, but after the first drain sizes map,
// keyer and arena, resets stay allocation-free (packed keys, reused slabs).
func TestListScanDedupPathSteadyAllocs(t *testing.T) {
	st := kg.NewStore(nil)
	for i := 0; i < 16; i++ {
		if err := st.AddSPO("e", "type", []string{"A", "B"}[i%2], float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	if !st.HasDuplicates() {
		t.Fatal("test store should have duplicate triples")
	}
	ty, _ := st.Dict().Lookup("type")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	vs := kg.NewVarSet(kg.NewQuery(pat))
	s := NewListScan(st, vs, pat, 1, 0, nil)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		s.Reset()
		for {
			if _, ok := s.Next(); !ok {
				return
			}
		}
	}); allocs != 0 {
		t.Fatalf("steady-state dedup scan: %v allocs per drain, want 0", allocs)
	}
}

// TestLiveStoreScanZeroAllocsWithEmptyHead extends the acceptance guard to
// the live-ingest layer: a store that has been mutated through Insert and
// then compacted (empty head attached to the frozen segment) must serve the
// same zero-allocation scan steady state as a store frozen once — the
// snapshot indirection and the head-overlay plumbing cost nothing when the
// head is empty.
func TestLiveStoreScanZeroAllocsWithEmptyHead(t *testing.T) {
	st := dupFreeStore(t)
	// Mutate live with more duplicate-free triples, then compact so the head
	// is empty again.
	d := st.Dict()
	for i := 0; i < 32; i++ {
		s := []string{"f1", "f2", "f3", "f4"}[i%4]
		o := fmt.Sprintf("E%d", i/4)
		if err := st.Insert(kg.Triple{S: d.Encode(s), P: d.Encode("type"), O: d.Encode(o), Score: float64(200 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Compact()
	if st.HeadLen() != 0 {
		t.Fatalf("head holds %d triples after Compact", st.HeadLen())
	}
	if st.HasDuplicates() {
		t.Fatal("live inserts unexpectedly created duplicates")
	}
	ty, _ := st.Dict().Lookup("type")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	if allocs := testing.AllocsPerRun(100, func() {
		if len(st.MatchList(pat)) == 0 {
			t.Fatal("empty match list")
		}
	}); allocs != 0 {
		t.Fatalf("compacted-store MatchList: %v allocs, want 0", allocs)
	}
	vs := kg.NewVarSet(kg.NewQuery(pat))
	s := NewListScan(st, vs, pat, 1, 0, nil)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		s.Reset()
		for {
			if _, ok := s.Next(); !ok {
				return
			}
		}
	}); allocs != 0 {
		t.Fatalf("steady-state scan over compacted live store: %v allocs per drain, want 0", allocs)
	}
}

// TestMutatedStoreScanZeroAllocsAfterCompact extends the empty-head guard to
// full mutability: a store that has absorbed deletes and latest-wins updates
// and then compacted (tombstones GC'd, dead rows dropped) must serve the same
// zero-allocation MatchList and scan steady state — the liveness filtering
// that deletes introduce costs nothing once no tombstone is pending.
func TestMutatedStoreScanZeroAllocsAfterCompact(t *testing.T) {
	st := dupFreeStore(t)
	d := st.Dict()
	for i := 0; i < 32; i++ {
		s := []string{"f1", "f2", "f3", "f4"}[i%4]
		o := fmt.Sprintf("E%d", i/4)
		if err := st.Insert(kg.Triple{S: d.Encode(s), P: d.Encode("type"), O: d.Encode(o), Score: float64(200 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Retract a frozen-segment fact and a head fact, re-score another.
	del := func(s, p, o string) {
		t.Helper()
		if _, err := st.Delete(d.Encode(s), d.Encode("type"), d.Encode(o)); err != nil {
			t.Fatal(err)
		}
	}
	del("e1", "type", "A")
	del("f2", "type", "E3")
	up := kg.Mutation{Op: kg.OpUpdate, Triple: kg.Triple{S: d.Encode("e2"), P: d.Encode("type"), O: d.Encode("B"), Score: 77}}
	if _, _, err := st.Apply(up); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	if st.Tombstones() != 0 || st.HeadLen() != 0 {
		t.Fatalf("Compact left %d tombstones, %d head triples", st.Tombstones(), st.HeadLen())
	}
	if st.HasDuplicates() {
		t.Fatal("mutations unexpectedly created duplicates")
	}
	ty, _ := st.Dict().Lookup("type")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	if allocs := testing.AllocsPerRun(100, func() {
		if len(st.MatchList(pat)) == 0 {
			t.Fatal("empty match list")
		}
	}); allocs != 0 {
		t.Fatalf("post-delete compacted MatchList: %v allocs, want 0", allocs)
	}
	vs := kg.NewVarSet(kg.NewQuery(pat))
	s := NewListScan(st, vs, pat, 1, 0, nil)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		s.Reset()
		for {
			if _, ok := s.Next(); !ok {
				return
			}
		}
	}); allocs != 0 {
		t.Fatalf("steady-state scan over mutated compacted store: %v allocs per drain, want 0", allocs)
	}
}

// TestListScanSkipsDedupMap asserts the fast-path predicate itself: no dedup
// keyer on provably duplicate-free patterns, one as soon as duplicates or
// out-of-varset variables make the seen set necessary.
func TestListScanSkipsDedupMap(t *testing.T) {
	st := dupFreeStore(t)
	ty, _ := st.Dict().Lookup("type")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	vs := kg.NewVarSet(kg.NewQuery(pat))
	if s := NewListScan(st, vs, pat, 1, 0, nil); s.keyer != nil {
		t.Fatal("duplicate-free pattern should not dedup")
	}
	// A pattern variable outside the query's variable set collapses
	// distinct triples onto one binding — dedup must be on.
	fresh := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("zzz_not_in_query"))
	if s := NewListScan(st, vs, fresh, 1, 0, nil); s.keyer == nil {
		t.Fatal("out-of-varset variable requires dedup")
	}
	// Semantics stay correct: the fresh-var scan dedups to distinct subjects.
	es := Drain(NewListScan(st, vs, fresh, 1, 0, nil))
	subjects := map[kg.ID]bool{}
	for _, e := range es {
		if subjects[e.Binding[0]] {
			t.Fatal("fresh-var scan emitted a duplicate binding")
		}
		subjects[e.Binding[0]] = true
	}
}

// TestIncrementalMergeResetSteadyZeroAllocs guards the merge's own state: the
// index heap, the head slots and the dedup set are all reused across Reset,
// so once a first drain has sized them, restarting and draining the merge
// allocates nothing. DrainK over the same merge costs exactly its output
// slice.
func TestIncrementalMergeResetSteadyZeroAllocs(t *testing.T) {
	st := dupFreeStore(t)
	d := st.Dict()
	ty, _ := d.Lookup("type")
	likes, _ := d.Lookup("likes")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	vs := kg.NewVarSet(kg.NewQuery(pat))
	m := NewIncrementalMerge([]Stream{
		NewListScan(st, vs, pat, 1, 0, nil),
		NewListScan(st, vs, kg.NewPattern(kg.Var("s"), kg.Const(likes), kg.Var("o")), 0.8, 1, nil),
		NewListScan(st, vs, kg.NewPattern(kg.Var("s"), kg.Var("p"), kg.Var("o")), 0.5, 1, nil),
	}, nil)
	const k = 1000
	n := len(DrainK(m, k))
	if n == 0 {
		t.Fatal("merge produced nothing")
	}
	count := func(Entry) bool { return true }
	if allocs := testing.AllocsPerRun(50, func() {
		m.Reset()
		if EmitK(m, k, count) != n {
			t.Fatal("drain changed length after Reset")
		}
	}); allocs != 0 {
		t.Fatalf("steady-state merge: %v allocs per Reset+drain, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		m.Reset()
		DrainK(m, k)
	}); allocs != 1 {
		t.Fatalf("steady-state Reset+DrainK: %v allocs, want 1 (the output slice)", allocs)
	}
}

// TestRankJoinAllocsIndependentOfKeys guards the join tables against costing
// an allocation per distinct join key: each side's slab, chain links and
// open-addressed table double when full, so a full drain over 16x more
// distinct keys may add one allocation per structure per doubling
// (log2 16 = 4 doublings, plus one where a size boundary falls) and nothing
// per key.
func TestRankJoinAllocsIndependentOfKeys(t *testing.T) {
	// Left binds keys 0..n-1, right binds n-8..2n-9: every key lands in a
	// table, and exactly eight of them join.
	sides := func(n int) (l, r *sliceStream) {
		ids := func(from int) ([]kg.ID, []float64) {
			out, sc := make([]kg.ID, n), make([]float64, n)
			for i := range out {
				out[i] = kg.ID(from + i)
				sc[i] = 1 - float64(i)/float64(n)
			}
			return out, sc
		}
		lids, lsc := ids(0)
		rids, rsc := ids(n - 8)
		return joinStream(lids, lsc, 1, 0, 0), joinStream(rids, rsc, 1, 0, 0)
	}
	count := func(Entry) bool { return true }
	allocs := func(n int) float64 {
		l, r := sides(n)
		return testing.AllocsPerRun(20, func() {
			l.Reset()
			r.Reset()
			if got := EmitK(NewRankJoin(l, r, []int{0}, nil), n, count); got != 8 {
				t.Fatalf("%d keys: %d results, want 8", n, got)
			}
		})
	}
	const small, big = 256, 16 * 256
	a, b := allocs(small), allocs(big)
	// Growing structures: two sides x (slab, links, table).
	const perDoubling, doublings = 6, 4 + 1
	if b-a > perDoubling*doublings {
		t.Fatalf("drain over %d keys: %v allocs, over %d keys: %v — %v more, want <= %d",
			small, a, big, b, b-a, perDoubling*doublings)
	}
	t.Logf("allocs per drain: %v at %d keys, %v at %d keys", a, small, b, big)
}
