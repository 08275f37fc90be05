package kg

import (
	"fmt"
	"math/rand"
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

// oracleMatches is the naive reference: filter all triples, sort by score
// descending with index ascending tiebreak (insertion sort keeps the oracle
// independent of the store's own sort).
func oracleMatches(st *Store, p Pattern) []int32 {
	var out []int32
	for i := 0; i < st.Len(); i++ {
		if p.Matches(st.Triple(int32(i))) {
			out = append(out, int32(i))
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := st.Triple(out[j-1]), st.Triple(out[j])
			if a.Score > b.Score || (a.Score == b.Score && out[j-1] < out[j]) {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
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
// the naive filter+sort oracle.
func TestPostingsAgreeWithOracle(t *testing.T) {
	for trial := int64(0); trial < 10; trial++ {
		st := randomStore(t, 100+trial, 300)
		var pats []Pattern
		for id := 0; id < 8; id++ {
			s, o := Const(ID(id)), Const(ID(id))
			p := Const(ID(id % 3))
			pats = append(pats,
				NewPattern(s, Var("p"), Var("o")),            // byS
				NewPattern(Var("s"), p, Var("o")),            // byP
				NewPattern(Var("s"), Var("p"), o),            // byO
				NewPattern(Var("s"), p, o),                   // byPO
				NewPattern(s, p, Var("o")),                   // bySP
				NewPattern(s, p, o),                          // bySPO
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
		for _, p := range pats {
			got := st.MatchList(p)
			want := oracleMatches(st, p)
			if !equalLists(got, want) {
				t.Fatalf("trial %d pattern %v: got %v want %v", trial, p, got, want)
			}
		}
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
	}
	for _, sh := range shapes {
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

// BenchmarkFreeze measures the parallel posting build+sort.
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
