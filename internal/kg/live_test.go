package kg

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file is the live-ingest correctness contract at the storage layer:
// a store mutated through Insert/Compact must be indistinguishable — match
// lists, cardinalities, max scores, normalised scores, duplicate flags,
// evaluation, counting — from a flat store rebuilt from scratch over the
// same triple prefix, at every interleaving point, for both layouts and
// every shard count.

// randomTripleSeq builds a deterministic triple sequence over the
// randomStore vocabulary (8 subjects/objects, 3 predicates, tie-heavy
// scores, occasional duplicate (s,p,o) keys) plus a dictionary holding it.
func randomTripleSeq(t testing.TB, seed int64, n int) (*Dict, []Triple) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dict := NewDict()
	for dict.Len() < 12 {
		dict.Encode(fmt.Sprintf("term%d", dict.Len()))
	}
	triples := make([]Triple, 0, n+n/4)
	for i := 0; i < n; i++ {
		tr := Triple{
			S:     ID(rng.Intn(8)),
			P:     ID(rng.Intn(3)),
			O:     ID(rng.Intn(8)),
			Score: float64(rng.Intn(50)),
		}
		triples = append(triples, tr)
		if rng.Intn(6) == 0 {
			dup := tr
			dup.Score = float64(rng.Intn(50))
			triples = append(triples, dup)
		}
	}
	return dict, triples
}

// rebuiltFlat is the live store's oracle: a fresh flat store over the prefix.
func rebuiltFlat(t testing.TB, dict *Dict, prefix []Triple) *Store {
	t.Helper()
	st := NewStore(dict)
	for _, tr := range prefix {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	return st
}

// assertGraphsAgree compares every read-path observable of g against the
// flat oracle: exact list equality (global indexes are insertion-ordered in
// both), exact float equality on scores, and the evaluator on a join query.
func assertGraphsAgree(t *testing.T, label string, g Graph, flat *Store) {
	t.Helper()
	if g.Len() != flat.Len() {
		t.Fatalf("%s: Len %d, oracle %d", label, g.Len(), flat.Len())
	}
	if g.HasDuplicates() != flat.HasDuplicates() {
		t.Fatalf("%s: HasDuplicates %v, oracle %v", label, g.HasDuplicates(), flat.HasDuplicates())
	}
	for i := 0; i < flat.Len(); i++ {
		if g.Triple(int32(i)) != flat.Triple(int32(i)) {
			t.Fatalf("%s: triple %d differs", label, i)
		}
	}
	for _, p := range shapePatterns() {
		got, want := g.MatchList(p), flat.MatchList(p)
		if !equalLists(got, want) {
			t.Fatalf("%s pattern %v: list %v, oracle %v", label, p, got, want)
		}
		if gc, wc := g.Cardinality(p), flat.Cardinality(p); gc != wc {
			t.Fatalf("%s pattern %v: cardinality %d, oracle %d", label, p, gc, wc)
		}
		if gm, wm := g.MaxScore(p), flat.MaxScore(p); gm != wm {
			t.Fatalf("%s pattern %v: max score %v, oracle %v", label, p, gm, wm)
		}
		gs, ws := NormalizedScores(g, p), NormalizedScores(flat, p)
		for i := range gs {
			if gs[i] != ws[i] {
				t.Fatalf("%s pattern %v: normalised score %d is %v, oracle %v", label, p, i, gs[i], ws[i])
			}
		}
	}
	q := NewQuery(
		NewPattern(Var("x"), Const(ID(0)), Var("y")),
		NewPattern(Var("y"), Const(ID(1)), Var("z")),
	)
	got, want := Evaluate(g, q, nil), Evaluate(flat, q, nil)
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Binding.Compare(want[i].Binding) != 0 || got[i].Score != want[i].Score {
			t.Fatalf("%s: answer %d is %v, oracle %v", label, i, got[i], want[i])
		}
	}
	if gc, wc := Count(g, q), Count(flat, q); gc != wc {
		t.Fatalf("%s: count %d, oracle %d", label, gc, wc)
	}
}

// TestLiveStoreMatchesRebuild drives a flat live store through an
// insert/compact schedule, checking every observable against a full rebuild
// after each step — head-only visibility, frozen⊕head merge order and
// post-compaction state all must be bit-identical to the oracle.
func TestLiveStoreMatchesRebuild(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		dict, triples := randomTripleSeq(t, 6100+trial, 120)
		base := len(triples) / 2
		st := NewStore(dict)
		for _, tr := range triples[:base] {
			if err := st.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
		st.Freeze()
		st.SetHeadLimit(-1) // manual compaction: the schedule decides
		rng := rand.New(rand.NewSource(8800 + trial))
		for pos := base; pos < len(triples); pos++ {
			if err := st.Insert(triples[pos]); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(7) == 0 {
				st.Compact()
				if st.HeadLen() != 0 {
					t.Fatalf("head has %d triples after Compact", st.HeadLen())
				}
			}
			if rng.Intn(3) == 0 || pos == len(triples)-1 {
				label := fmt.Sprintf("trial %d pos %d (head %d)", trial, pos+1, st.HeadLen())
				assertGraphsAgree(t, label, st, rebuiltFlat(t, dict, triples[:pos+1]))
			}
		}
	}
}

// TestLiveShardedMatchesRebuild is the same schedule over the sharded
// layout, across the shard-count ladder, with per-shard compactions mixed
// in. Global indexes must remain insertion-ordered through live inserts, so
// list equality with the flat rebuild stays exact.
func TestLiveShardedMatchesRebuild(t *testing.T) {
	for _, shards := range shardCounts {
		dict, triples := randomTripleSeq(t, 9300+int64(shards), 120)
		base := len(triples) / 2
		ss := NewShardedStore(dict, shards)
		for _, tr := range triples[:base] {
			if err := ss.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
		ss.Freeze()
		ss.SetHeadLimit(-1)
		rng := rand.New(rand.NewSource(400 + int64(shards)))
		for pos := base; pos < len(triples); pos++ {
			if err := liveInsert(ss, triples[pos]); err != nil {
				t.Fatal(err)
			}
			switch rng.Intn(8) {
			case 0:
				ss.CompactShard(rng.Intn(shards))
			case 1:
				ss.Compact()
			}
			if rng.Intn(3) == 0 || pos == len(triples)-1 {
				label := fmt.Sprintf("shards=%d pos %d (head %d)", shards, pos+1, ss.HeadLen())
				assertGraphsAgree(t, label, ss, rebuiltFlat(t, dict, triples[:pos+1]))
			}
		}
	}
}

// TestAutoCompaction pins the merge-on-threshold contract: with a head limit
// of n, the head never holds n or more triples after an Insert returns, and
// the store reports the merges it performed.
func TestAutoCompaction(t *testing.T) {
	dict, triples := randomTripleSeq(t, 31, 80)
	st := NewStore(dict)
	st.Freeze() // empty frozen segment: everything arrives live
	st.SetHeadLimit(5)
	for _, tr := range triples {
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
		if st.HeadLen() >= 5 {
			t.Fatalf("head grew to %d with limit 5", st.HeadLen())
		}
	}
	if st.Compactions() == 0 {
		t.Fatal("no automatic compactions recorded")
	}
	if st.Len() != len(triples) {
		t.Fatalf("store has %d triples, inserted %d", st.Len(), len(triples))
	}
	assertGraphsAgree(t, "auto-compacted", st, rebuiltFlat(t, dict, triples))

	// Same through the sharded layout: the limit applies per segment.
	ss := NewShardedStore(dict, 4)
	ss.Freeze()
	ss.SetHeadLimit(5)
	for _, tr := range triples {
		if err := liveInsert(ss, tr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ss.NumShards(); i++ {
		if ss.Shard(i).HeadLen() >= 5 {
			t.Fatalf("shard %d head grew to %d with limit 5", i, ss.Shard(i).HeadLen())
		}
	}
	if ss.Compactions() == 0 {
		t.Fatal("no automatic shard compactions recorded")
	}
	assertGraphsAgree(t, "auto-compacted sharded", ss, rebuiltFlat(t, dict, triples))
}

// TestCompactShardLeavesOthersUntouched pins the isolation contract behind
// "compacting one shard never blocks queries on other shards": a per-shard
// compaction publishes a new snapshot only for the compacted shard — every
// other shard's snapshot pointer is physically unchanged, so readers there
// cannot even observe that a merge happened.
func TestCompactShardLeavesOthersUntouched(t *testing.T) {
	dict, triples := randomTripleSeq(t, 77, 100)
	ss := NewShardedStore(dict, 4)
	ss.Freeze()
	ss.SetHeadLimit(-1)
	for _, tr := range triples {
		if err := liveInsert(ss, tr); err != nil {
			t.Fatal(err)
		}
	}
	target := -1
	for i := 0; i < ss.NumShards(); i++ {
		if ss.Shard(i).HeadLen() > 0 {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no shard received head triples")
	}
	before := make([]*storeState, ss.NumShards())
	for i := range before {
		before[i] = ss.Shard(i).live.Load()
	}
	ss.CompactShard(target)
	for i := range before {
		after := ss.Shard(i).live.Load()
		if i == target {
			if after == before[i] {
				t.Fatalf("shard %d snapshot unchanged by its own compaction", i)
			}
			if ss.Shard(i).HeadLen() != 0 {
				t.Fatalf("shard %d head not empty after compaction", i)
			}
		} else if after != before[i] {
			t.Fatalf("compacting shard %d replaced shard %d's snapshot", target, i)
		}
	}
	assertGraphsAgree(t, "after single-shard compaction", ss, rebuiltFlat(t, dict, triples))
}

// TestLiveVersionSemantics pins the cache-invalidation signal: Version moves
// on every Insert and never on Compact (contents are unchanged, so
// version-keyed caches survive merges).
func TestLiveVersionSemantics(t *testing.T) {
	dict, triples := randomTripleSeq(t, 5, 20)
	for _, g := range []LiveGraph{
		func() LiveGraph { st := NewStore(dict); st.Freeze(); return st }(),
		func() LiveGraph { ss := NewShardedStore(dict, 3); ss.Freeze(); return ss }(),
	} {
		g.SetHeadLimit(-1)
		if g.Version() != 0 {
			t.Fatalf("%T: fresh frozen store at version %d", g, g.Version())
		}
		for i, tr := range triples {
			if err := liveInsert(g, tr); err != nil {
				t.Fatal(err)
			}
			if got := g.Version(); got != uint64(i+1) {
				t.Fatalf("%T: version %d after %d inserts", g, got, i+1)
			}
		}
		v := g.Version()
		g.Compact()
		if g.Version() != v {
			t.Fatalf("%T: Compact moved version %d -> %d", g, v, g.Version())
		}
		if g.HeadLen() != 0 {
			t.Fatalf("%T: head not empty after Compact", g)
		}
	}
}

// TestLiveInsertRejectsInvalidScores mirrors Add's score validation on the
// live path: NaN/Inf/negative scores must be rejected before touching any
// snapshot, leaving the store unchanged.
func TestLiveInsertRejectsInvalidScores(t *testing.T) {
	st := NewStore(nil)
	st.Freeze()
	for _, bad := range []float64{-1, nan(), inf()} {
		if err := st.Insert(Triple{Score: bad}); err == nil {
			t.Fatalf("Insert accepted score %v", bad)
		}
	}
	if st.Len() != 0 || st.Version() != 0 {
		t.Fatalf("rejected inserts mutated the store (len %d, version %d)", st.Len(), st.Version())
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

// TestLiveMatchListAllocsAfterCompact is the live-layer half of the
// zero-alloc acceptance guard: once the head is empty — freshly frozen or
// freshly compacted after live inserts — indexed MatchList lookups on both
// layouts are allocation-free slice views again, snapshot indirection
// included.
func TestLiveMatchListAllocsAfterCompact(t *testing.T) {
	dict, triples := randomTripleSeq(t, 55, 200)
	st := NewStore(dict)
	for _, tr := range triples[:100] {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	for _, tr := range triples[100:] {
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Compact()
	if st.HeadLen() != 0 {
		t.Fatal("head not empty after Compact")
	}
	pat := NewPattern(Var("s"), Const(ID(1)), Var("o"))
	if allocs := testing.AllocsPerRun(100, func() {
		if len(st.MatchList(pat)) == 0 {
			t.Fatal("empty list")
		}
	}); allocs != 0 {
		t.Fatalf("compacted flat MatchList: %v allocs, want 0", allocs)
	}

	ss := NewShardedStore(dict, 4)
	ss.Freeze()
	for _, tr := range triples {
		if err := liveInsert(ss, tr); err != nil {
			t.Fatal(err)
		}
	}
	ss.Compact()
	ss.MatchList(pat) // materialise the merged global list once
	if allocs := testing.AllocsPerRun(100, func() {
		if len(ss.MatchList(pat)) == 0 {
			t.Fatal("empty list")
		}
	}); allocs != 0 {
		t.Fatalf("compacted sharded MatchList: %v allocs, want 0", allocs)
	}
}
