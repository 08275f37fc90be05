package kg

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file is the full-mutability correctness contract at the storage
// layer: a store driven through interleaved Insert/Delete/Update/Compact
// schedules must be indistinguishable — match lists, cardinalities, max
// scores, normalised scores, evaluation, counting — from a flat store
// rebuilt from scratch over the *surviving* facts, at every interleaving
// point, for both layouts, every shard count, and with and without the L1
// compaction tier. Scores compare with exact float equality throughout.

// liveInsert, liveDelete and liveUpdate apply one mutation through
// LiveGraph.Apply and run any compaction it hands back inline, as a caller
// with no write-ordering lock of its own does.
func liveInsert(g LiveGraph, t Triple) error {
	_, err := applyNow(g, Mutation{Op: OpInsert, Triple: t})
	return err
}

func liveDelete(g LiveGraph, s, p, o ID) (int, error) {
	return applyNow(g, Mutation{Op: OpDelete, Triple: Triple{S: s, P: p, O: o}})
}

func liveUpdate(g LiveGraph, t Triple) error {
	_, err := applyNow(g, Mutation{Op: OpUpdate, Triple: t})
	return err
}

func applyNow(g LiveGraph, m Mutation) (int, error) {
	removed, compact, err := g.Apply(m)
	if compact != nil {
		compact()
	}
	return removed, err
}

// mutModel replays the mutation semantics the store promises: Insert
// appends, Delete retracts every live copy of the key, Update retracts the
// key and appends one copy with the new score. The survivor slice is the
// rebuild source for the flat oracle.
type mutModel struct {
	survivors []Triple
}

func (m *mutModel) insert(t Triple) { m.survivors = append(m.survivors, t) }

func (m *mutModel) delete(s, p, o ID) int {
	kept := m.survivors[:0]
	removed := 0
	for _, tr := range m.survivors {
		if tr.S == s && tr.P == p && tr.O == o {
			removed++
			continue
		}
		kept = append(kept, tr)
	}
	m.survivors = kept
	return removed
}

func (m *mutModel) update(t Triple) {
	m.delete(t.S, t.P, t.O)
	m.survivors = append(m.survivors, t)
}

// freezeLive freezes either live layout (Freeze is not part of LiveGraph —
// it belongs to the build phase).
func freezeLive(g LiveGraph) {
	switch s := g.(type) {
	case *Store:
		s.Freeze()
	case *ShardedStore:
		s.Freeze()
	}
}

// resolveList maps a match list's global indexes to the triples they name,
// so stores with different physical layouts (tombstoned slots vs a dense
// rebuild) compare on content.
func resolveList(g Graph, list []int32) []Triple {
	out := make([]Triple, len(list))
	for i, idx := range list {
		out[i] = g.Triple(idx)
	}
	return out
}

// assertMutatedAgree compares every read-path observable of the mutated
// graph g against the survivor-rebuilt flat oracle. Unlike
// assertGraphsAgree it cannot compare global indexes (g keeps retracted
// triples in dead physical slots), so lists compare as resolved triple
// sequences — which pins the canonical order too, since survivors keep
// their relative insertion order in both stores.
func assertMutatedAgree(t *testing.T, label string, g LiveGraph, flat *Store) {
	t.Helper()
	if g.LiveLen() != flat.Len() {
		t.Fatalf("%s: LiveLen %d, oracle %d", label, g.LiveLen(), flat.Len())
	}
	if flat.HasDuplicates() && !g.HasDuplicates() {
		t.Fatalf("%s: oracle has duplicates, mutated store reports none", label)
	}
	for _, p := range shapePatterns() {
		list := g.MatchList(p)
		got, want := resolveList(g, list), resolveList(flat, flat.MatchList(p))
		if len(got) != len(want) {
			t.Fatalf("%s pattern %v: %d matches, oracle %d", label, p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s pattern %v: match %d is %v, oracle %v", label, p, i, got[i], want[i])
			}
		}
		assertCursors(t, label, g, p, list)
		var probed []Triple
		g.Pin().(Prober).Probe(p, func(tr Triple) {
			if p.Matches(tr) {
				probed = append(probed, tr)
			}
		})
		if !sameTripleMultiset(probed, want) {
			t.Fatalf("%s pattern %v: probe yields %v, oracle matches %v", label, p, probed, want)
		}
		if gc, wc := g.Cardinality(p), flat.Cardinality(p); gc != wc {
			t.Fatalf("%s pattern %v: cardinality %d, oracle %d", label, p, gc, wc)
		}
		if gm, wm := g.MaxScore(p), flat.MaxScore(p); gm != wm {
			t.Fatalf("%s pattern %v: max score %v, oracle %v", label, p, gm, wm)
		}
		gs, ws := NormalizedScores(g, p), NormalizedScores(flat, p)
		if len(gs) != len(ws) {
			t.Fatalf("%s pattern %v: %d normalised scores, oracle %d", label, p, len(gs), len(ws))
		}
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

// driveMutations runs a deterministic interleaved mutation schedule against
// g (already frozen over base) and checks it against the survivor oracle at
// random interleaving points and at the end. compactShard is nil for the
// flat layout.
func driveMutations(t *testing.T, label string, seed int64, g LiveGraph, dict *Dict,
	model *mutModel, stream []Triple, compactShard func(*rand.Rand)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	check := func(tag string) {
		t.Helper()
		assertMutatedAgree(t, fmt.Sprintf("%s %s", label, tag),
			g, rebuiltFlat(t, dict, model.survivors))
	}
	check("freeze point")
	pos := 0
	// randomKey picks a key biased toward live facts so deletes and updates
	// usually hit something, with a tail of misses (no-op deletes, inserting
	// updates).
	randomKey := func() (ID, ID, ID) {
		if len(model.survivors) > 0 && rng.Intn(5) != 0 {
			tr := model.survivors[rng.Intn(len(model.survivors))]
			return tr.S, tr.P, tr.O
		}
		return ID(rng.Intn(8)), ID(rng.Intn(3)), ID(rng.Intn(8))
	}
	for pos < len(stream) || rng.Intn(4) != 0 {
		switch op := rng.Intn(20); {
		case op < 9 && pos < len(stream): // insert
			if err := liveInsert(g, stream[pos]); err != nil {
				t.Fatal(err)
			}
			model.insert(stream[pos])
			pos++
		case op < 13: // delete (usually a live key, sometimes a miss)
			s, p, o := randomKey()
			got, err := liveDelete(g, s, p, o)
			if err != nil {
				t.Fatal(err)
			}
			if want := model.delete(s, p, o); got != want {
				t.Fatalf("%s: Delete(%d,%d,%d) removed %d, oracle %d", label, s, p, o, got, want)
			}
		case op < 16: // latest-wins update
			s, p, o := randomKey()
			tr := Triple{S: s, P: p, O: o, Score: float64(rng.Intn(50))}
			if err := liveUpdate(g, tr); err != nil {
				t.Fatal(err)
			}
			model.update(tr)
		case op == 16:
			g.Compact()
		case op == 17 && compactShard != nil:
			compactShard(rng)
		default:
			check(fmt.Sprintf("pos %d/%d", pos, len(stream)))
		}
		if pos == len(stream) && rng.Intn(3) == 0 {
			break
		}
	}
	g.Compact()
	check("final compacted")
	if st, ok := g.(*Store); ok && st.Tombstones() != 0 {
		t.Fatalf("%s: %d tombstones survive a full compaction", label, st.Tombstones())
	}
	if ss, ok := g.(*ShardedStore); ok && ss.Tombstones() != 0 {
		t.Fatalf("%s: %d tombstones survive a full compaction", label, ss.Tombstones())
	}
}

// TestMutableStoreMatchesRebuild drives the flat store through interleaved
// insert/delete/update/compact schedules — single-level and tiered — against
// the survivor-rebuild oracle.
func TestMutableStoreMatchesRebuild(t *testing.T) {
	for _, l1 := range []int{0, 7} {
		for trial := int64(0); trial < 3; trial++ {
			dict, triples := randomTripleSeq(t, 7300+trial, 110)
			base := len(triples) / 2
			st := NewStore(dict)
			for _, tr := range triples[:base] {
				if err := st.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			st.Freeze()
			st.SetHeadLimit(6) // aggressive merges: every tier transition exercised
			st.SetL1Limit(l1)
			model := &mutModel{survivors: append([]Triple(nil), triples[:base]...)}
			label := fmt.Sprintf("flat l1=%d trial %d", l1, trial)
			driveMutations(t, label, 510+trial, st, dict, model, triples[base:], nil)
		}
	}
}

// TestMutableShardedMatchesRebuild is the same contract over the sharded
// layout, across the shard-count ladder, with per-shard compactions mixed
// into the schedule.
func TestMutableShardedMatchesRebuild(t *testing.T) {
	for _, l1 := range []int{0, 7} {
		for _, shards := range shardCounts {
			dict, triples := randomTripleSeq(t, 8700+int64(shards), 110)
			base := len(triples) / 2
			ss := NewShardedStore(dict, shards)
			for _, tr := range triples[:base] {
				if err := ss.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			ss.Freeze()
			ss.SetHeadLimit(6)
			ss.SetL1Limit(l1)
			model := &mutModel{survivors: append([]Triple(nil), triples[:base]...)}
			label := fmt.Sprintf("sharded=%d l1=%d", shards, l1)
			driveMutations(t, label, 620+int64(shards), ss, dict, model, triples[base:],
				func(rng *rand.Rand) { ss.CompactShard(rng.Intn(shards)) })
		}
	}
}

// TestDeleteSemantics pins the Delete contract edge cases on both layouts:
// pre-freeze rejection, unknown-key no-ops, full multi-copy retraction,
// head-resident copies, and re-insertion after a delete.
func TestDeleteSemantics(t *testing.T) {
	build := func(shards int) LiveGraph {
		dict := NewDict()
		for dict.Len() < 12 {
			dict.Encode(fmt.Sprintf("term%d", dict.Len()))
		}
		if shards > 1 {
			return NewShardedStore(dict, shards)
		}
		return NewStore(dict)
	}
	for _, shards := range []int{1, 3} {
		label := fmt.Sprintf("shards=%d", shards)
		g := build(shards)
		if _, err := liveDelete(g, 0, 1, 2); err == nil {
			t.Fatalf("%s: Delete on an unfrozen store succeeded", label)
		}
		key := Triple{S: 1, P: 2, O: 3, Score: 10}
		add := func(tr Triple) {
			t.Helper()
			var err error
			switch s := g.(type) {
			case *Store:
				err = s.Add(tr)
			case *ShardedStore:
				err = s.Add(tr)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		add(key)
		dup := key
		dup.Score = 4
		add(dup)
		add(Triple{S: 1, P: 2, O: 4, Score: 7})
		freezeLive(g)
		g.SetHeadLimit(-1)
		// A third copy lands in the head: delete must retract frozen and head
		// copies alike.
		head := key
		head.Score = 2
		if err := liveInsert(g, head); err != nil {
			t.Fatal(err)
		}
		v := g.Version()
		if n, err := liveDelete(g, 9, 9, 9); err != nil || n != 0 {
			t.Fatalf("%s: deleting an absent key: (%d, %v)", label, n, err)
		}
		if g.Version() == v {
			t.Fatalf("%s: no-op delete did not move the version", label)
		}
		if n, err := liveDelete(g, key.S, key.P, key.O); err != nil || n != 3 {
			t.Fatalf("%s: deleting 3 copies: (%d, %v)", label, n, err)
		}
		p := NewPattern(Const(key.S), Const(key.P), Const(key.O))
		if c := g.Cardinality(p); c != 0 {
			t.Fatalf("%s: deleted key still has cardinality %d", label, c)
		}
		if g.LiveLen() != 1 {
			t.Fatalf("%s: LiveLen %d after deleting 3 of 4", label, g.LiveLen())
		}
		// Re-insertion after the tombstone must be visible immediately and
		// survive compaction.
		re := key
		re.Score = 99
		if err := liveInsert(g, re); err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{"head", "compacted"} {
			if stage == "compacted" {
				g.Compact()
			}
			if c := g.Cardinality(p); c != 1 {
				t.Fatalf("%s %s: re-inserted key cardinality %d", label, stage, c)
			}
			if m := g.MaxScore(p); m != 99 {
				t.Fatalf("%s %s: re-inserted key max score %v", label, stage, m)
			}
		}
	}
}

// TestUpdateSemantics pins latest-wins re-scoring: every live copy collapses
// to one with the new score, an absent key is inserted, and no interleaving
// point observes the key missing.
func TestUpdateSemantics(t *testing.T) {
	for _, shards := range []int{1, 3} {
		label := fmt.Sprintf("shards=%d", shards)
		dict := NewDict()
		for dict.Len() < 12 {
			dict.Encode(fmt.Sprintf("term%d", dict.Len()))
		}
		var g LiveGraph
		if shards > 1 {
			g = NewShardedStore(dict, shards)
		} else {
			g = NewStore(dict)
		}
		if err := liveUpdate(g, Triple{S: 0, P: 1, O: 2, Score: 5}); err == nil {
			t.Fatalf("%s: Update on an unfrozen store succeeded", label)
		}
		freezeLive(g)
		g.SetHeadLimit(-1)
		key := Triple{S: 1, P: 2, O: 3, Score: 10}
		// Update of an absent key inserts it.
		if err := liveUpdate(g, key); err != nil {
			t.Fatal(err)
		}
		p := NewPattern(Const(key.S), Const(key.P), Const(key.O))
		if c, m := g.Cardinality(p), g.MaxScore(p); c != 1 || m != 10 {
			t.Fatalf("%s: inserting update: card %d max %v", label, c, m)
		}
		// Duplicate copies collapse to one on the next update.
		dup := key
		dup.Score = 3
		if err := liveInsert(g, dup); err != nil {
			t.Fatal(err)
		}
		up := key
		up.Score = 42
		if err := liveUpdate(g, up); err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{"head", "compacted"} {
			if stage == "compacted" {
				g.Compact()
			}
			if c, m := g.Cardinality(p), g.MaxScore(p); c != 1 || m != 42 {
				t.Fatalf("%s %s: card %d max %v, want 1/42", label, stage, c, m)
			}
		}
		if g.LiveLen() != 1 {
			t.Fatalf("%s: LiveLen %d", label, g.LiveLen())
		}
	}
}

// TestTieredCompaction pins the L1 mechanics on the flat store: with
// tiering on, head merges land in the L1 tier without rebuilding the main
// arenas; once L1 crosses its limit the next merge folds everything into
// the main arenas and drops the tier.
func TestTieredCompaction(t *testing.T) {
	dict, triples := randomTripleSeq(t, 1234, 60)
	st := NewStore(dict)
	for _, tr := range triples[:30] {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	st.SetHeadLimit(4)
	st.SetL1Limit(1 << 20) // unreachable: every merge stays tiered
	mainBefore := st.live.Load().post
	for _, tr := range triples[30:] {
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if st.L1Len() == 0 {
		t.Fatal("no L1 tier built under tiered auto-compaction")
	}
	if st.live.Load().post != mainBefore {
		t.Fatal("tiered merges rebuilt the main posting arenas")
	}
	assertMutatedAgree(t, "tiered", st, rebuiltFlat(t, dict, triples))
	// A full Compact folds the tier away.
	st.Compact()
	if st.L1Len() != 0 || st.HeadLen() != 0 {
		t.Fatalf("full Compact left L1=%d head=%d", st.L1Len(), st.HeadLen())
	}
	assertMutatedAgree(t, "folded", st, rebuiltFlat(t, dict, triples))

	// With a small L1 limit, crossing it folds automatically.
	st2 := NewStore(dict)
	st2.Freeze()
	st2.SetHeadLimit(3)
	st2.SetL1Limit(10)
	for _, tr := range triples {
		if err := st2.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if st2.L1Len() >= 10+3 {
		t.Fatalf("L1 grew to %d with limit 10", st2.L1Len())
	}
	assertMutatedAgree(t, "auto-folded", st2, rebuiltFlat(t, dict, triples))
}

// TestMutatedMatchListAllocsAfterCompact is the zero-alloc acceptance guard
// under mutation: after deletes and updates are fully compacted away (no
// tombstones, no L1, empty head) indexed MatchList reads on the flat layout
// are allocation-free slice views again, and the sharded layout's shard
// cursors open and drain without allocating — the read path must not pay
// for mutability it is not using.
func TestMutatedMatchListAllocsAfterCompact(t *testing.T) {
	dict, triples := randomTripleSeq(t, 4321, 200)
	pat := NewPattern(Var("s"), Const(ID(1)), Var("o"))
	for _, shards := range []int{1, 4} {
		var g LiveGraph
		if shards > 1 {
			g = NewShardedStore(dict, shards)
		} else {
			g = NewStore(dict)
		}
		for _, tr := range triples[:150] {
			var err error
			switch s := g.(type) {
			case *Store:
				err = s.Add(tr)
			case *ShardedStore:
				err = s.Add(tr)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		freezeLive(g)
		g.SetHeadLimit(-1)
		for _, tr := range triples[150:] {
			if err := liveInsert(g, tr); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			tr := triples[i*7]
			if _, err := liveDelete(g, tr.S, tr.P, tr.O); err != nil {
				t.Fatal(err)
			}
		}
		if err := liveUpdate(g, Triple{S: 1, P: 1, O: 1, Score: 30}); err != nil {
			t.Fatal(err)
		}
		g.Compact()
		read := func() {
			if len(g.MatchList(pat)) == 0 {
				t.Fatal("empty list")
			}
		}
		if ss, ok := g.(*ShardedStore); ok {
			read = func() {
				if shardMatches(ss, pat) == 0 {
					t.Fatal("no matches")
				}
			}
		}
		if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
			t.Fatalf("shards=%d: compacted post-mutation read: %v allocs, want 0", shards, allocs)
		}
	}
}
