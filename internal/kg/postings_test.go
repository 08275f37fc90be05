package kg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// randomStore builds a store with duplicate-heavy random triples so every
// posting family has multi-entry buckets and duplicate (s,p,o) keys.
func randomStore(t testing.TB, seed int64, n int) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := NewStore(nil)
	for st.Dict().Len() < 12 {
		st.Dict().Encode(fmt.Sprintf("term%d", st.Dict().Len()))
	}
	for i := 0; i < n; i++ {
		tr := Triple{
			S:     ID(rng.Intn(8)),
			P:     ID(rng.Intn(3)),
			O:     ID(rng.Intn(8)),
			Score: float64(rng.Intn(50)), // small range forces score ties
		}
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	return st
}

// oracleMatches is the naive reference: filter all triples in index order,
// then stable-sort by score descending so ties keep index order (a stable
// merge sort keeps the oracle independent of the store's own sort and stays
// fast on the skewed fixture's 10 000-entry hub lists).
func oracleMatches(st *Store, p Pattern) []int32 {
	var out []int32
	for i := 0; i < st.Len(); i++ {
		if p.Matches(st.Triple(int32(i))) {
			out = append(out, int32(i))
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return st.Triple(out[a]).Score > st.Triple(out[b]).Score
	})
	return out
}

// Hub IDs of skewedStore: a subject and an object with 10 000 triples each,
// both in the middle of their key columns.
const (
	hubS = ID(1001)
	hubO = ID(2000)
)

// skewedStore builds a store whose key columns are skewed and gappy: a hub
// subject and a hub object with 10 000 triples each across 40 predicates, a
// background of 2 000 ordinary triples, and duplicate (s,p,o) keys with tied
// scores. Ordinary nodes are 9, 12, 15, …, so node IDs leave gaps below,
// between and above them; predicates are 0, 2, …, 78, so ID 0 is present at
// P only.
func skewedStore(t testing.TB) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	st := NewStore(nil)
	add := func(s, p, o ID) {
		tr := Triple{S: s, P: p, O: o, Score: float64(rng.Intn(20))}
		copies := 1
		if rng.Intn(40) == 0 {
			copies = 3 // a duplicate key with a tied score
		}
		for ; copies > 0; copies-- {
			if err := st.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	pred := func() ID { return ID(2 * rng.Intn(40)) }
	node := func() ID { return ID(9 + 3*rng.Intn(2000)) }
	for i := 0; i < 10000; i++ {
		add(hubS, pred(), node())
		add(node(), pred(), hubO)
	}
	for i := 0; i < 2000; i++ {
		add(node(), pred(), node())
	}
	st.Freeze()
	return st
}

// probeIDs returns the IDs to look up at key position pos: ID 0, the first
// and last present keys, absent keys below, between and above them, NoID and
// the hubs.
func probeIDs(st *Store, pos int) []ID {
	present := map[ID]bool{}
	first, last := NoID, ID(0)
	for i := 0; i < st.Len(); i++ {
		id := st.Triple(int32(i)).at(pos)
		present[id] = true
		first, last = min(first, id), max(last, id)
	}
	ids := []ID{0, first, last, last + 1, NoID, hubS, hubO}
	if first > 0 {
		ids = append(ids, first-1)
	}
	for id := first; id < last; id++ {
		if !present[id] {
			ids = append(ids, id)
			break
		}
	}
	return ids
}

// probePatterns crosses the probe IDs of every position into every pattern
// shape: the six indexed families, S+O, and the repeated-variable shapes.
func probePatterns(st *Store) []Pattern {
	ss, ps, os := probeIDs(st, famS), probeIDs(st, famP), probeIDs(st, famO)
	var pats []Pattern
	for _, s := range ss {
		pats = append(pats,
			NewPattern(Const(s), Var("p"), Var("o")),
			NewPattern(Const(s), Var("x"), Var("x")))
		for _, p := range ps {
			pats = append(pats, NewPattern(Const(s), Const(p), Var("o")))
			for _, o := range os {
				pats = append(pats, NewPattern(Const(s), Const(p), Const(o)))
			}
		}
		for _, o := range os {
			pats = append(pats, NewPattern(Const(s), Var("p"), Const(o)))
		}
	}
	for _, p := range ps {
		pats = append(pats,
			NewPattern(Var("s"), Const(p), Var("o")),
			NewPattern(Var("x"), Const(p), Var("x")))
		for _, o := range os {
			pats = append(pats, NewPattern(Var("s"), Const(p), Const(o)))
		}
	}
	for _, o := range os {
		pats = append(pats,
			NewPattern(Var("s"), Var("p"), Const(o)),
			NewPattern(Var("x"), Var("x"), Const(o)))
	}
	return pats
}

func equalLists(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPostingsAgreeWithOracle is the Freeze-time property test: for every
// pattern shape — each posting family, the full scan, repeated-variable
// shapes and the S+O residual — MatchList agrees element-for-element with
// the naive filter+sort oracle, on small duplicate-heavy stores and on the
// skewed store's hubs, column edges and absent keys.
func TestPostingsAgreeWithOracle(t *testing.T) {
	check := func(name string, st *Store, pats []Pattern) {
		t.Helper()
		for _, p := range pats {
			got := st.MatchList(p)
			want := oracleMatches(st, p)
			if !equalLists(got, want) {
				t.Fatalf("%s pattern %v: got %v want %v", name, p, got, want)
			}
		}
	}
	for trial := int64(0); trial < 10; trial++ {
		st := randomStore(t, 100+trial, 300)
		var pats []Pattern
		for id := 0; id < 8; id++ {
			s, o := Const(ID(id)), Const(ID(id))
			p := Const(ID(id % 3))
			pats = append(pats,
				NewPattern(s, Var("p"), Var("o")),            // famS
				NewPattern(Var("s"), p, Var("o")),            // famP
				NewPattern(Var("s"), Var("p"), o),            // famO
				NewPattern(Var("s"), p, o),                   // famPO
				NewPattern(s, p, Var("o")),                   // famSP
				NewPattern(s, p, o),                          // famSPO
				NewPattern(s, Var("p"), Const(ID((id+3)%8))), // S+O residual
				NewPattern(s, Var("x"), Var("x")),            // repeated vars, S bound
				NewPattern(Var("x"), Var("x"), o),            // repeated vars, O bound
				NewPattern(Var("x"), p, Var("x")),            // repeated vars, P bound
			)
		}
		pats = append(pats,
			NewPattern(Var("s"), Var("p"), Var("o")), // full scan
			NewPattern(Var("x"), Var("p"), Var("x")), // full scan, repeated
			NewPattern(Var("x"), Var("x"), Var("x")), // all repeated
		)
		check(fmt.Sprintf("trial %d", trial), st, pats)
	}
	st := skewedStore(t)
	if !st.HasDuplicates() {
		t.Fatal("skewed store: duplicate keys not detected")
	}
	if n := len(st.MatchList(NewPattern(Const(hubS), Var("p"), Var("o")))); n < 10000 {
		t.Fatalf("hub subject has %d triples, want >= 10000", n)
	}
	if n := len(st.MatchList(NewPattern(Var("s"), Var("p"), Const(hubO)))); n < 10000 {
		t.Fatalf("hub object has %d triples, want >= 10000", n)
	}
	check("skewed", st, probePatterns(st))
}

// TestLargeRawIDs checks that the posting build does not depend on how large
// the term IDs are: raw IDs that straddle every byte boundary, up to the
// largest below the NoID sentinel, index correctly at Freeze, through tiered
// merges into an L1 tier, and after a full Compact.
func TestLargeRawIDs(t *testing.T) {
	ids := []ID{0, 1, 255, 256, 65535, 65536, 1 << 24, 1 << 31, NoID - 1}
	rng := rand.New(rand.NewSource(41))
	random := func() Triple {
		pick := func() ID { return ids[rng.Intn(len(ids))] }
		return Triple{S: pick(), P: pick(), O: pick(), Score: float64(rng.Intn(10))}
	}
	st := NewStore(nil)
	for i := 0; i < 400; i++ {
		if err := st.Add(random()); err != nil {
			t.Fatal(err)
		}
	}
	var pats []Pattern
	for _, a := range ids {
		x := Const(a)
		pats = append(pats,
			NewPattern(x, Var("p"), Var("o")),
			NewPattern(Var("s"), x, Var("o")),
			NewPattern(Var("s"), Var("p"), x))
		for _, b := range ids {
			y := Const(b)
			pats = append(pats,
				NewPattern(x, y, Var("o")),
				NewPattern(Var("s"), x, y),
				NewPattern(x, Var("p"), y),
				NewPattern(x, y, Const(ids[rng.Intn(len(ids))])))
		}
	}
	check := func(stage string) {
		t.Helper()
		for _, p := range pats {
			if got, want := st.MatchList(p), oracleMatches(st, p); !equalLists(got, want) {
				t.Fatalf("%s pattern %v: got %v want %v", stage, p, got, want)
			}
		}
	}
	st.Freeze()
	check("freeze")
	st.SetHeadLimit(16)
	st.SetL1Limit(1 << 20)
	for i := 0; i < 200; i++ {
		if err := st.Insert(random()); err != nil {
			t.Fatal(err)
		}
	}
	if st.L1Len() == 0 {
		t.Fatal("inserts past the head limit built no L1 tier")
	}
	check("tiered")
	st.Compact()
	check("compact")
}

// TestLayoutDeterministic pins the posting layout as a function of the
// triples alone: two Freezes of the same input, and two full Compacts after
// the same insert/delete/update script, build identical arenas, key columns
// and dead bitmaps.
func TestLayoutDeterministic(t *testing.T) {
	layout := func(st *Store) []any {
		po := st.state().post
		return []any{po.arenas, po.keys, po.offs, po.dead, po.hasDuplicates}
	}
	a, b := randomStore(t, 11, 2000), randomStore(t, 11, 2000)
	if !reflect.DeepEqual(layout(a), layout(b)) {
		t.Fatal("two Freezes of the same triples built different layouts")
	}
	script := func(st *Store) {
		st.SetHeadLimit(-1)
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 600; i++ {
			tr := Triple{S: ID(rng.Intn(8)), P: ID(rng.Intn(3)), O: ID(rng.Intn(8)), Score: float64(rng.Intn(50))}
			var err error
			switch rng.Intn(3) {
			case 0:
				err = st.Insert(tr)
			case 1:
				_, err = st.Delete(tr.S, tr.P, tr.O)
			default:
				err = st.Update(tr)
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%150 == 149 {
				st.Compact()
			}
		}
		st.Compact()
	}
	script(a)
	script(b)
	if a.HeadLen() != 0 || a.Tombstones() != 0 {
		t.Fatalf("script left head=%d tombstones=%d after a full Compact", a.HeadLen(), a.Tombstones())
	}
	if !reflect.DeepEqual(layout(a), layout(b)) {
		t.Fatal("two full Compacts after the same script built different layouts")
	}
}

// TestFullyBoundKeepsDuplicates pins the duplicate contract chosen for the
// SPO index: duplicate (s,p,o) additions with different scores all appear in
// MatchList, score-sorted, and Cardinality counts them all.
func TestFullyBoundKeepsDuplicates(t *testing.T) {
	st := NewStore(nil)
	for _, sc := range []float64{10, 30, 20} {
		if err := st.AddSPO("a", "p", "b", sc); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	a, _ := st.Dict().Lookup("a")
	p, _ := st.Dict().Lookup("p")
	b, _ := st.Dict().Lookup("b")
	pat := NewPattern(Const(a), Const(p), Const(b))
	l := st.MatchList(pat)
	if len(l) != 3 {
		t.Fatalf("duplicates: got %d matches want 3", len(l))
	}
	if got := []float64{st.Triple(l[0]).Score, st.Triple(l[1]).Score, st.Triple(l[2]).Score}; got[0] != 30 || got[1] != 20 || got[2] != 10 {
		t.Fatalf("duplicate scores out of order: %v", got)
	}
	if got := st.Cardinality(pat); got != 3 {
		t.Fatalf("cardinality: got %d want 3", got)
	}
	if got := st.MaxScore(pat); got != 30 {
		t.Fatalf("max score: got %v want 30", got)
	}
	// Count counts distinct answers, not derivations: the three duplicate
	// triples collapse to one binding, in line with Evaluate's DedupMax.
	q := NewQuery(pat)
	if got, want := Count(st, q), len(Evaluate(st, q, nil)); got != want || got != 1 {
		t.Fatalf("count: got %d, Evaluate gives %d, want 1", got, want)
	}
	qv := NewQuery(NewPattern(Var("s"), Const(p), Const(b)))
	if got, want := Count(st, qv), len(Evaluate(st, qv, nil)); got != want || got != 1 {
		t.Fatalf("var count: got %d, Evaluate gives %d, want 1", got, want)
	}
}

// TestResidualCacheSingleFlight hammers one residual pattern from many
// goroutines on a cold store and asserts the list was computed exactly once
// and every caller saw the same backing slice.
func TestResidualCacheSingleFlight(t *testing.T) {
	st := randomStore(t, 42, 500)
	pat := NewPattern(Const(ID(1)), Var("p"), Const(ID(2))) // S+O residual
	want := oracleMatches(st, pat)

	const workers = 32
	lists := make([][]int32, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			lists[w] = st.MatchList(pat)
		}(w)
	}
	close(start)
	wg.Wait()

	if got := st.residualComputes.Load(); got != 1 {
		t.Fatalf("residual computes: got %d want 1 (single-flight broken)", got)
	}
	for w := 0; w < workers; w++ {
		if !equalLists(lists[w], want) {
			t.Fatalf("worker %d: wrong list", w)
		}
	}
}

// TestResidualCacheManyKeysConcurrent misses many distinct residual keys at
// once; meant to run under -race to exercise shard locking.
func TestResidualCacheManyKeysConcurrent(t *testing.T) {
	st := randomStore(t, 7, 400)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				s := ID((w + rep) % 8)
				o := ID((w * rep) % 8)
				pat := NewPattern(Const(s), Var("p"), Const(o))
				got := st.MatchList(pat)
				for i := 1; i < len(got); i++ {
					if st.Triple(got[i]).Score > st.Triple(got[i-1]).Score {
						t.Error("residual list not sorted")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Distinct keys only ever compute once each: 8×8 = 64 max.
	if got := st.residualComputes.Load(); got > 64 {
		t.Fatalf("residual computes: got %d want <= 64", got)
	}
}

// TestResidualCachePanicNotPoisoned: a panicking compute must not leave a
// permanently cached empty list behind — the next lookup retries.
func TestResidualCachePanicNotPoisoned(t *testing.T) {
	c := newListCache()
	key := PatternKey{S: 1, P: 2, O: 3}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.get(key, func() []int32 { panic("compute bug") })
	}()
	got := c.get(key, func() []int32 { return []int32{7, 8} })
	if !equalLists(got, []int32{7, 8}) {
		t.Fatalf("post-panic lookup returned %v, cache poisoned", got)
	}
}

// TestMatchListZeroAllocs asserts the acceptance criterion directly: after
// Freeze, MatchList on every indexed shape performs zero allocations.
func TestMatchListZeroAllocs(t *testing.T) {
	st := randomStore(t, 3, 1000)
	shapes := map[string]Pattern{
		"byS":   NewPattern(Const(ID(1)), Var("p"), Var("o")),
		"byP":   NewPattern(Var("s"), Const(ID(1)), Var("o")),
		"byO":   NewPattern(Var("s"), Var("p"), Const(ID(1))),
		"byPO":  NewPattern(Var("s"), Const(ID(1)), Const(ID(2))),
		"bySP":  NewPattern(Const(ID(1)), Const(ID(1)), Var("o")),
		"bySPO": NewPattern(Const(ID(1)), Const(ID(1)), Const(ID(2))),
	}
	for name, pat := range shapes {
		pat := pat
		if allocs := testing.AllocsPerRun(100, func() {
			st.MatchList(pat)
		}); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	// Warm residual patterns — S+O bound and full scans — are also
	// allocation-free (cache hit).
	for name, res := range map[string]Pattern{
		"S+O":  NewPattern(Const(ID(1)), Var("p"), Const(ID(2))),
		"scan": NewPattern(Var("s"), Var("p"), Var("o")),
	} {
		res := res
		st.MatchList(res)
		if allocs := testing.AllocsPerRun(100, func() {
			st.MatchList(res)
		}); allocs != 0 {
			t.Errorf("warm residual %s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// BenchmarkMatchList measures the indexed fast paths; run with -benchmem to
// see the 0 allocs/op.
func BenchmarkMatchList(b *testing.B) {
	st := randomStore(b, 5, 20000)
	shapes := []struct {
		name string
		pat  Pattern
	}{
		{"PO", NewPattern(Var("s"), Const(ID(1)), Const(ID(2)))},
		{"SP", NewPattern(Const(ID(1)), Const(ID(1)), Var("o"))},
		{"S", NewPattern(Const(ID(1)), Var("p"), Var("o"))},
		{"P", NewPattern(Var("s"), Const(ID(1)), Var("o"))},
		{"O", NewPattern(Var("s"), Var("p"), Const(ID(1)))},
		{"SPO", NewPattern(Const(ID(1)), Const(ID(1)), Const(ID(2)))},
		{"scan", NewPattern(Var("s"), Var("p"), Var("o"))},
		{"residual-warm", NewPattern(Const(ID(1)), Var("p"), Const(ID(2)))},
		// A mid-column predicate inside the hub object's 10 000-entry run:
		// both binary searches of the composite lookup do real work.
		{"hub-PO", NewPattern(Var("s"), Const(ID(40)), Const(hubO))},
	}
	hub := skewedStore(b)
	for _, sh := range shapes {
		st := st
		if sh.name == "hub-PO" {
			st = hub
		}
		b.Run(sh.name, func(b *testing.B) {
			st.MatchList(sh.pat) // warm residuals; no-op for fast paths
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.MatchList(sh.pat)
			}
		})
	}
}

// BenchmarkFreeze measures the posting build: one canonical sort of the
// triple indexes and the stable radix passes that lay out each family.
func BenchmarkFreeze(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	triples := make([]Triple, 200000)
	for i := range triples {
		triples[i] = Triple{
			S:     ID(rng.Intn(5000)),
			P:     ID(rng.Intn(20)),
			O:     ID(rng.Intn(5000)),
			Score: rng.Float64() * 1000,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := NewStore(nil)
		for _, tr := range triples {
			if err := st.Add(tr); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		st.Freeze()
	}
}
