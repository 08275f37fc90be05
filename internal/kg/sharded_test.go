package kg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// shardCounts is the shard-count ladder every sharded property test walks:
// the degenerate single segment, small counts that leave some shards empty,
// a prime count that exercises uneven routing, and a count larger than the
// test vocabularies' subject range.
var shardCounts = []int{1, 2, 3, 7, 16}

// shardedFrom builds the sharded copy of a flat store.
func shardedFrom(t testing.TB, st *Store, n int) *ShardedStore {
	t.Helper()
	ss := NewShardedStoreFrom(st, n)
	if !ss.Frozen() {
		t.Fatal("NewShardedStoreFrom returned an unfrozen store")
	}
	if ss.Len() != st.Len() {
		t.Fatalf("sharded store has %d triples, flat has %d", ss.Len(), st.Len())
	}
	return ss
}

// shapePatterns enumerates every pattern shape over the randomStore
// vocabulary: each posting family, residual shapes, repeated variables and
// full scans.
func shapePatterns() []Pattern {
	var pats []Pattern
	for id := 0; id < 8; id++ {
		s, o := Const(ID(id)), Const(ID(id))
		p := Const(ID(id % 3))
		pats = append(pats,
			NewPattern(s, Var("p"), Var("o")),
			NewPattern(Var("s"), p, Var("o")),
			NewPattern(Var("s"), Var("p"), o),
			NewPattern(Var("s"), p, o),
			NewPattern(s, p, Var("o")),
			NewPattern(s, p, o),
			NewPattern(s, Var("p"), Const(ID((id+3)%8))),
			NewPattern(s, Var("x"), Var("x")),
			NewPattern(Var("x"), Var("x"), o),
			NewPattern(Var("x"), p, Var("x")),
		)
	}
	return append(pats,
		NewPattern(Var("s"), Var("p"), Var("o")),
		NewPattern(Var("x"), Var("p"), Var("x")),
		NewPattern(Var("x"), Var("x"), Var("x")),
	)
}

// TestShardedMatchesFlat is the layout-equivalence property test: global
// triple indexes are insertion-ordered in both layouts, so MatchList,
// Cardinality, MaxScore and NormalizedScores must agree element-for-element
// with the flat store across the whole shard-count ladder.
func TestShardedMatchesFlat(t *testing.T) {
	for trial := int64(0); trial < 6; trial++ {
		st := randomStore(t, 4200+trial, 300)
		for _, n := range shardCounts {
			ss := shardedFrom(t, st, n)
			if got, want := ss.HasDuplicates(), st.HasDuplicates(); got != want {
				t.Fatalf("shards=%d: HasDuplicates %v, flat %v", n, got, want)
			}
			for i := 0; i < st.Len(); i++ {
				if ss.Triple(int32(i)) != st.Triple(int32(i)) {
					t.Fatalf("shards=%d: triple %d differs", n, i)
				}
			}
			for _, p := range shapePatterns() {
				got, want := ss.MatchList(p), st.MatchList(p)
				if !equalLists(got, want) {
					t.Fatalf("trial %d shards=%d pattern %v: merged list %v, flat %v", trial, n, p, got, want)
				}
				if g, w := ss.Cardinality(p), st.Cardinality(p); g != w {
					t.Fatalf("shards=%d pattern %v: cardinality %d, flat %d", n, p, g, w)
				}
				if g, w := ss.MaxScore(p), st.MaxScore(p); g != w {
					t.Fatalf("shards=%d pattern %v: max score %v, flat %v", n, p, g, w)
				}
				gs, ws := NormalizedScores(ss, p), NormalizedScores(st, p)
				if len(gs) != len(ws) {
					t.Fatalf("shards=%d pattern %v: %d normalised scores, flat %d", n, p, len(gs), len(ws))
				}
				for i := range gs {
					if gs[i] != ws[i] {
						t.Fatalf("shards=%d pattern %v: normalised score %d is %v, flat %v", n, p, i, gs[i], ws[i])
					}
				}
			}
		}
	}
}

// randomJoinQuery builds a 2–3 pattern query over the randomStore vocabulary
// chained through shared variables.
func randomJoinQuery(rng *rand.Rand) Query {
	names := []string{"x", "y", "z", "w"}
	n := 2 + rng.Intn(2)
	var ps []Pattern
	for i := 0; i < n; i++ {
		s := Var(names[i])
		if rng.Intn(4) == 0 {
			s = Var(names[0])
		}
		p := Const(ID(rng.Intn(3)))
		o := Term(Var(names[i+1]))
		if rng.Intn(3) == 0 {
			o = Const(ID(rng.Intn(8)))
		}
		ps = append(ps, NewPattern(s, p, o))
	}
	return NewQuery(ps...)
}

// TestShardedEvaluateMatchesFlat pins the shared evaluator over both
// layouts: complete answer sets, weighted answer sets and exact counts agree
// for randomized join queries at every shard count. randomStore always
// carries duplicate keys (Count's dedup walk); the duplicate-free fixture
// enumerates distinct (s,p,o) combinations so the derivation-counting path
// is compared too.
func TestShardedEvaluateMatchesFlat(t *testing.T) {
	randomWeights := func(rng *rand.Rand, q Query) []float64 {
		weights := make([]float64, len(q.Patterns))
		for i := range weights {
			weights[i] = 0.25 + rng.Float64()*0.75
		}
		return weights
	}
	for trial := int64(0); trial < 8; trial++ {
		rng := rand.New(rand.NewSource(7700 + trial))
		st := randomStore(t, 9900+trial, 200)
		q := randomJoinQuery(rng)
		checkShardedEvaluate(t, fmt.Sprintf("trial %d", trial), st, q, randomWeights(rng, q))
	}

	st := NewStore(nil)
	for st.Dict().Len() < 12 {
		st.Dict().Encode(fmt.Sprintf("term%d", st.Dict().Len()))
	}
	rng := rand.New(rand.NewSource(99))
	for s := 0; s < 8; s++ {
		for p := 0; p < 3; p++ {
			for o := 0; o < 8; o++ {
				if rng.Intn(3) == 0 {
					continue
				}
				if err := st.Add(Triple{S: ID(s), P: ID(p), O: ID(o), Score: float64(rng.Intn(40))}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	st.Freeze()
	if st.HasDuplicates() {
		t.Fatal("fixture unexpectedly has duplicates")
	}
	for trial := 0; trial < 5; trial++ {
		q := randomJoinQuery(rng)
		checkShardedEvaluate(t, fmt.Sprintf("duplicate-free trial %d", trial), st, q, randomWeights(rng, q))
	}
}

// checkShardedEvaluate compares Evaluate (plain and weighted) and Count over
// sharded copies of st against the flat store.
func checkShardedEvaluate(t *testing.T, name string, st *Store, q Query, weights []float64) {
	t.Helper()
	wantN := Count(st, q)
	for _, n := range shardCounts {
		ss := shardedFrom(t, st, n)
		if ss.HasDuplicates() != st.HasDuplicates() {
			t.Fatalf("%s shards=%d: HasDuplicates %v, flat %v", name, n, ss.HasDuplicates(), st.HasDuplicates())
		}
		for _, w := range [][]float64{nil, weights} {
			got, want := Evaluate(ss, q, w), Evaluate(st, q, w)
			if len(got) != len(want) {
				t.Fatalf("%s shards=%d weights=%v: %d answers, flat %d", name, n, w, len(got), len(want))
			}
			for i := range got {
				if got[i].Binding.Compare(want[i].Binding) != 0 || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
					t.Fatalf("%s shards=%d weights=%v: answer %d is %v, flat %v", name, n, w, i, got[i], want[i])
				}
			}
		}
		if g := Count(ss, q); g != wantN {
			t.Fatalf("%s shards=%d: count %d, flat %d", name, n, g, wantN)
		}
	}
}

// TestShardedAddRoutesBySubject pins the partitioning contract: every triple
// lands in the shard its subject hashes to, the directory round-trips, and
// duplicate (s,p,o) keys stay within one shard.
func TestShardedAddRoutesBySubject(t *testing.T) {
	ss := NewShardedStore(nil, 4)
	for i := 0; i < 40; i++ {
		if err := ss.AddSPO(fmt.Sprintf("s%d", i%7), "p", fmt.Sprintf("o%d", i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ss.Freeze()
	if err := ss.AddSPO("late", "p", "o", 1); err != ErrFrozen {
		t.Fatalf("Add after Freeze: %v, want ErrFrozen", err)
	}
	for g := 0; g < ss.Len(); g++ {
		tr := ss.Triple(int32(g))
		want := ss.shardFor(tr.S)
		if got := int(ss.locShard[g]); got != want {
			t.Fatalf("triple %d in shard %d, subject hashes to %d", g, got, want)
		}
		if ss.global[ss.locShard[g]][ss.locIdx[g]] != int32(g) {
			t.Fatalf("directory round-trip broken for triple %d", g)
		}
	}
	total := 0
	for i := 0; i < ss.NumShards(); i++ {
		total += ss.Shard(i).Len()
	}
	if total != ss.Len() {
		t.Fatalf("shard lengths sum to %d, want %d", total, ss.Len())
	}
}

// TestShardedMatchListAllocs guards the sharded MatchList read path: after
// the first (materialising) call, repeated lookups are cache hits with zero
// allocations, matching the flat store's zero-alloc posting views.
func TestShardedMatchListAllocs(t *testing.T) {
	st := randomStore(t, 31, 400)
	ss := shardedFrom(t, st, 4)
	pats := shapePatterns()
	for _, p := range pats {
		ss.MatchList(p) // materialise and cache
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pats {
			if len(ss.MatchList(p)) != st.Cardinality(p) {
				t.Fatal("sharded match list diverged")
			}
		}
	}); allocs != 0 {
		t.Fatalf("warm sharded MatchList: %v allocs per sweep, want 0", allocs)
	}
}

// BenchmarkShardedMatchList compares warm match-list reads across layouts
// and shard counts: the flat store's slice view against the sharded store's
// cached merged view.
func BenchmarkShardedMatchList(b *testing.B) {
	st := randomStore(b, 77, 100000)
	pat := NewPattern(Var("s"), Const(ID(1)), Var("o"))
	b.Run("flat", func(b *testing.B) {
		st.MatchList(pat)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(st.MatchList(pat)) == 0 {
				b.Fatal("empty list")
			}
		}
	})
	for _, n := range []int{2, 8} {
		ss := NewShardedStoreFrom(st, n)
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			ss.MatchList(pat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(ss.MatchList(pat)) == 0 {
					b.Fatal("empty list")
				}
			}
		})
	}
}

// BenchmarkShardedFreeze measures the parallel multi-segment freeze against
// the flat single-store freeze on the same triples.
func BenchmarkShardedFreeze(b *testing.B) {
	base := randomStore(b, 5, 200000)
	triples := make([]Triple, base.Len())
	for i := range triples {
		triples[i] = base.Triple(int32(i))
	}
	b.Run("flat", func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			st := NewStore(base.Dict())
			for _, tr := range triples {
				if err := st.Add(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			st.Freeze()
			b.StopTimer()
		}
	})
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				ss := NewShardedStore(base.Dict(), n)
				for _, tr := range triples {
					if err := ss.Add(tr); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				ss.Freeze()
				b.StopTimer()
			}
		})
	}
}
