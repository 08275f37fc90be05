package kg

import (
	"fmt"
	"math/rand"
	"testing"
)

// genPinTriples generates the deterministic fixture triple sequence: score
// ties and duplicate keys over a small ID universe, so pins land on every
// interesting match-list shape. A shorter n yields a prefix of a longer one.
func genPinTriples(seed int64, n int) []Triple {
	rng := rand.New(rand.NewSource(seed))
	triples := make([]Triple, n)
	for i := range triples {
		triples[i] = Triple{
			S:     ID(rng.Intn(5)),
			P:     ID(5 + rng.Intn(3)),
			O:     ID(8 + rng.Intn(4)),
			Score: float64(1 + rng.Intn(9)),
		}
	}
	return triples
}

// pinFixture builds a live store with score ties and duplicate keys: nFrozen
// triples frozen, the rest inserted live (head), so pins land on every
// frozen/head mixture.
func pinFixture(t *testing.T, seed int64, n, nFrozen int) (*Store, []Triple) {
	t.Helper()
	st := NewStore(nil)
	d := st.Dict()
	for i := 0; i < 12; i++ {
		d.Encode(fmt.Sprintf("t%d", i))
	}
	triples := genPinTriples(seed, n)
	st.SetHeadLimit(-1)
	for _, tr := range triples[:nFrozen] {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	for _, tr := range triples[nFrozen:] {
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	return st, triples
}

// pinPatterns covers every match-list shape: indexed postings, filtered
// S+O intersections, repeated variables, and full scans.
func pinPatterns() []Pattern {
	var ps []Pattern
	for s := 0; s < 5; s += 2 {
		ps = append(ps, NewPattern(Const(ID(s)), Var("p"), Var("o")))     // S-bound
		ps = append(ps, NewPattern(Const(ID(s)), Var("p"), Const(ID(8)))) // S+O: filtered
		ps = append(ps, NewPattern(Const(ID(s)), Const(ID(5)), Var("o"))) // SP
	}
	ps = append(ps,
		NewPattern(Var("s"), Const(ID(6)), Var("o")),         // P-bound
		NewPattern(Var("s"), Var("p"), Const(ID(9))),         // O-bound
		NewPattern(Var("s"), Const(ID(5)), Const(ID(8))),     // PO
		NewPattern(Const(ID(1)), Const(ID(5)), Const(ID(8))), // SPO
		NewPattern(Var("s"), Var("p"), Var("o")),             // full scan
		NewPattern(Var("s"), Var("p"), Var("s")),             // repeated var
	)
	return ps
}

// TestPinnedStoreViewsMatchPrefixStore is the pinned-view contract at the
// storage level: a pin taken mid-ingest must answer every read exactly like
// a store holding only the triples present at pin time — even after the
// live store ingests more, retracts a key the pin can see, and compacts.
func TestPinnedStoreViewsMatchPrefixStore(t *testing.T) {
	const n, nFrozen = 120, 70
	for _, compacted := range []bool{false, true} {
		for _, limit := range []int{nFrozen, nFrozen + 9, n - 1, n} {
			triples := genPinTriples(42, n)
			st := NewStore(nil)
			for i := 0; i < 12; i++ {
				st.Dict().Encode(fmt.Sprintf("t%d", i))
			}
			st.SetHeadLimit(-1)
			for _, tr := range triples[:nFrozen] {
				if err := st.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			st.Freeze()
			for _, tr := range triples[nFrozen:limit] {
				if err := st.Insert(tr); err != nil {
					t.Fatal(err)
				}
			}
			ps := st.pin()
			// The live store moves on: the pin must keep answering from the
			// prefix regardless.
			for _, tr := range triples[limit:] {
				if err := st.Insert(tr); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := st.Delete(triples[0].S, triples[0].P, triples[0].O); err != nil {
				t.Fatal(err)
			}
			if compacted {
				st.Compact() // the post-pin tail (and tombstone) is now frozen
			}
			ref := NewStore(st.Dict())
			for _, tr := range triples[:limit] {
				if err := ref.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			ref.Freeze()
			label := fmt.Sprintf("compacted=%v limit=%d", compacted, limit)
			if ps.Len() != ref.Len() {
				t.Fatalf("%s: Len %d want %d", label, ps.Len(), ref.Len())
			}
			for pi, p := range pinPatterns() {
				gotL, wantL := ps.MatchList(p), ref.MatchList(p)
				if len(gotL) != len(wantL) {
					t.Fatalf("%s pattern %d: match list %v want %v", label, pi, gotL, wantL)
				}
				for i := range gotL {
					if gotL[i] != wantL[i] {
						t.Fatalf("%s pattern %d: match list %v want %v", label, pi, gotL, wantL)
					}
				}
				if got, want := ps.Cardinality(p), ref.Cardinality(p); got != want {
					t.Fatalf("%s pattern %d: cardinality %d want %d", label, pi, got, want)
				}
				if got, want := ps.MaxScore(p), ref.MaxScore(p); got != want {
					t.Fatalf("%s pattern %d: max score %v want %v", label, pi, got, want)
				}
				// Probe must enumerate a superset of matches drawn
				// only from visible triples; exactness is pinned through the
				// evaluator below.
				ps.Probe(p, func(tr Triple) {
					for i := 0; i < limit; i++ {
						if triples[i] == tr {
							return
						}
					}
					t.Fatalf("%s pattern %d: candidate %v not in visible prefix", label, pi, tr)
				})
			}
			q := NewQuery(
				NewPattern(Var("x"), Const(ID(5)), Var("y")),
				NewPattern(Var("x"), Const(ID(6)), Var("z")),
			)
			got, want := Evaluate(ps, q, nil), Evaluate(ref, q, nil)
			if len(got) != len(want) {
				t.Fatalf("%s: Evaluate %d answers want %d", label, len(got), len(want))
			}
			for i := range got {
				if got[i].Score != want[i].Score || got[i].Binding.Compare(want[i].Binding) != 0 {
					t.Fatalf("%s: Evaluate answer %d = %v want %v", label, i, got[i], want[i])
				}
			}
			if gc, wc := Count(ps, q), Count(ref, q); gc != wc {
				t.Fatalf("%s: Count %d want %d", label, gc, wc)
			}
		}
	}
}

// TestPinSurvivesLaterInserts pins the isolation property on the public
// surface: a Pin taken before inserts answers from the old version, for both
// layouts, while the live store moves on.
func TestPinSurvivesLaterInserts(t *testing.T) {
	for _, shards := range []int{1, 3} {
		st, triples := pinFixture(t, 7, 100, 100)
		var g LiveGraph = st
		if shards > 1 {
			ss := NewShardedStore(st.Dict(), shards)
			for _, tr := range triples {
				if err := ss.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			ss.Freeze()
			g = ss
		}
		pin := g.Pin()
		p := NewPattern(Var("s"), Const(ID(5)), Var("o"))
		wantCard := pin.Cardinality(p)
		wantMax := pin.MaxScore(p)
		wantLen := pin.Len()
		// Insert matches with a dominating score: an unpinned view would see
		// both a larger cardinality and a new normalisation constant.
		for i := 0; i < 30; i++ {
			if err := liveInsert(g, Triple{S: ID(i % 5), P: 5, O: 8, Score: 1000}); err != nil {
				t.Fatal(err)
			}
		}
		if g.Pin().Cardinality(p) == wantCard {
			t.Fatal("fixture inserts did not change the live cardinality")
		}
		if pin.Len() != wantLen || pin.Cardinality(p) != wantCard || pin.MaxScore(p) != wantMax {
			t.Fatalf("shards=%d: pin drifted: len %d→%d card %d→%d max %v→%v",
				shards, wantLen, pin.Len(), wantCard, pin.Cardinality(p), wantMax, pin.MaxScore(p))
		}
		if pin.Pin() != pin {
			t.Fatal("pinning a pin must return the same view")
		}
	}
}

// TestEvaluateTakesOnePin pins the one-evaluation-one-pin contract: over a
// live store every Evaluate call (plain or weighted) and every Count call
// takes exactly one pin, so all recursion levels read one content version;
// over an already pinned view they take none.
func TestEvaluateTakesOnePin(t *testing.T) {
	st := randomStore(t, 31, 200)
	q := randomJoinQuery(rand.New(rand.NewSource(31)))
	weights := make([]float64, len(q.Patterns))
	for i := range weights {
		weights[i] = 0.5
	}
	calls := []struct {
		name string
		run  func(g Graph)
	}{
		{"Evaluate", func(g Graph) { Evaluate(g, q, nil) }},
		{"Evaluate weighted", func(g Graph) { Evaluate(g, q, weights) }},
		{"Count", func(g Graph) { Count(g, q) }},
	}
	for _, g := range []interface {
		Graph
		Pins() int64
	}{st, shardedFrom(t, st, 3)} {
		view := g.Pin()
		for _, c := range calls {
			before := g.Pins()
			c.run(g)
			if d := g.Pins() - before; d != 1 {
				t.Errorf("%T %s: took %d pins, want 1", g, c.name, d)
			}
			before = g.Pins()
			c.run(view)
			if d := g.Pins() - before; d != 0 {
				t.Errorf("%T %s over a pinned view: took %d pins, want 0", g, c.name, d)
			}
		}
	}
}
