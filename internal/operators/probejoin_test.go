package operators

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"specqp/internal/kg"
)

// TestProbeJoinCountsOnlyEmitted: a probe join materialises and counts only
// the results it emits. Its left side is a merge of a pattern and a
// relaxation that replaces the join variable with a constant, so a left
// entry with that variable unbound probes it free and rebuilds results that
// entries binding it already emitted; those are rejected without being
// counted. The left side counts into its own counter.
func TestProbeJoinCountsOnlyEmitted(t *testing.T) {
	rng := rand.New(rand.NewSource(4600))
	var emitted, dropped int64
	for trial := 0; trial < 40; trial++ {
		st := kg.NewStore(nil)
		for i := 0; i < 8; i++ {
			st.Dict().Encode(fmt.Sprintf("t%d", i))
		}
		for i := 40 + rng.Intn(60); i > 0; i-- {
			tr := kg.Triple{S: kg.ID(rng.Intn(5)), P: kg.ID(5 + rng.Intn(3)), O: kg.ID(rng.Intn(5)), Score: float64(1 + rng.Intn(9))}
			if err := st.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
		st.Freeze()
		p1 := kg.NewPattern(kg.Var("x"), kg.Const(5), kg.Var("y"))
		p2 := kg.NewPattern(kg.Var("y"), kg.Const(6), kg.Var("z"))
		vs := kg.NewVarSet(kg.NewQuery(p1, p2))
		left := NewIncrementalMerge([]Stream{
			NewListScan(st, vs, p1, 1, 0, nil),
			NewListScan(st, vs, kg.NewPattern(kg.Var("x"), kg.Const(5), kg.Const(kg.ID(rng.Intn(5)))), 0.5, 1, nil),
		}, nil)
		inputs := []ProbeInput{
			{Pattern: p2, Weight: 1},
			{Pattern: kg.NewPattern(kg.Var("y"), kg.Var("free"), kg.Var("z")), Weight: 0.25 + 0.5*rng.Float64(), Mask: 2},
		}
		c := &Counter{}
		c.EnableTracing()
		pj := NewProbeJoin(left, PatternBoundVars(vs, p1), st.Pin().(kg.Prober), vs, inputs, c)
		got := Drain(pj)
		if c.Value() != int64(len(got)) {
			t.Fatalf("trial %d: %d objects for %d results emitted", trial, c.Value(), len(got))
		}
		emitted += int64(len(got))
		dropped += pj.stats.Snapshot().DedupDropped
	}
	if emitted == 0 || dropped == 0 {
		t.Fatalf("coverage: %d results emitted, %d rejected as already emitted", emitted, dropped)
	}
}

// probeStore is a small random store over subjects and objects 0–4 and
// predicates 5–7, dense enough that every probe has several matches.
func probeStore(t *testing.T, rng *rand.Rand) *kg.Store {
	t.Helper()
	st := kg.NewStore(nil)
	for i := 0; i < 8; i++ {
		st.Dict().Encode(fmt.Sprintf("t%d", i))
	}
	for i := 40 + rng.Intn(60); i > 0; i-- {
		tr := kg.Triple{S: kg.ID(rng.Intn(5)), P: kg.ID(5 + rng.Intn(3)), O: kg.ID(rng.Intn(5)), Score: float64(1 + rng.Intn(9))}
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	return st
}

// TestProbeJoinProbesPerLeftEntry: every left entry the join pulls probes
// the store exactly once, on a star leg whose key is the left side's whole
// binding and on a leg keyed on ?b under a left side binding ?a and ?b,
// where left entries can share a key.
func TestProbeJoinProbesPerLeftEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(4601))
	var probed, repeated int
	for trial := 0; trial < 40; trial++ {
		st := probeStore(t, rng)
		check := func(name string, l kg.Pattern, inputs []ProbeInput) []Entry {
			vs := kg.NewVarSet(kg.NewQuery(l, inputs[0].Pattern))
			c := &Counter{}
			c.SetWorkspace(new(Workspace))
			c.EnableTracing()
			pj := NewProbeJoin(NewListScan(st, vs, l, 1, 0, nil), PatternBoundVars(vs, l), st.Pin().(kg.Prober), vs, inputs, c)
			Drain(pj)
			left := Drain(NewListScan(st, vs, l, 1, 0, nil))
			if probes := pj.stats.Snapshot().Probes; probes != int64(len(left)) {
				t.Fatalf("trial %d %s: %d probes for %d left entries", trial, name, probes, len(left))
			}
			probed += len(left)
			return left
		}

		o := kg.Const(kg.ID(rng.Intn(5)))
		check("star", kg.NewPattern(kg.Var("s"), kg.Const(5), kg.Const(kg.ID(rng.Intn(5)))), []ProbeInput{
			{Pattern: kg.NewPattern(kg.Var("s"), kg.Const(6), o), Weight: 1},
			{Pattern: kg.NewPattern(kg.Var("s"), kg.Const(7), o), Weight: 0.5, Mask: 2},
		})
		left := check("keyed on ?b", kg.NewPattern(kg.Var("a"), kg.Const(5), kg.Var("b")), []ProbeInput{
			{Pattern: kg.NewPattern(kg.Var("b"), kg.Const(6), kg.Var("c")), Weight: 1},
			{Pattern: kg.NewPattern(kg.Var("b"), kg.Const(7), kg.Var("c")), Weight: 0.5, Mask: 2},
		})
		keys := map[kg.ID]bool{}
		for _, e := range left {
			keys[e.Binding[1]] = true
		}
		if len(keys) < len(left) {
			repeated++
		}
	}
	if probed == 0 || repeated == 0 {
		t.Fatalf("coverage: %d probes, %d trials repeating a key", probed, repeated)
	}
}

// TestProbeJoinFoldNeedsBoundKey: a probe keeps only its best candidate
// only when the probing entry binds every leg variable. A left entry from a
// relaxation that replaced the join variable ?y with a constant has NoID
// there, probes ?y free and joins with several inner bindings; the results
// must be LeftDeep's over the leg's merged scans, binding for binding with
// the same score bits. (Of two equal-score derivations the joins may report
// different Relaxed bits, so those are not compared.)
func TestProbeJoinFoldNeedsBoundKey(t *testing.T) {
	rng := rand.New(rand.NewSource(4602))
	var free int
	for trial := 0; trial < 40; trial++ {
		st := probeStore(t, rng)
		p1 := kg.NewPattern(kg.Var("x"), kg.Const(5), kg.Var("y"))
		p2 := kg.NewPattern(kg.Var("y"), kg.Const(6), kg.Const(kg.ID(rng.Intn(5))))
		r1 := kg.NewPattern(kg.Var("x"), kg.Const(5), kg.Const(kg.ID(rng.Intn(5))))
		r2 := kg.NewPattern(kg.Var("y"), kg.Const(7), p2.O)
		vs := kg.NewVarSet(kg.NewQuery(p1, p2))
		left := func() Stream {
			return NewIncrementalMerge([]Stream{
				NewListScan(st, vs, p1, 1, 0, nil),
				NewListScan(st, vs, r1, 0.5, 1, nil),
			}, nil)
		}
		w := 0.25 + 0.5*rng.Float64()
		pj := NewProbeJoin(left(), PatternBoundVars(vs, p1), st.Pin().(kg.Prober), vs, []ProbeInput{
			{Pattern: p2, Weight: 1},
			{Pattern: r2, Weight: w, Mask: 2},
		}, nil)
		got := Drain(pj)
		leg := NewIncrementalMerge([]Stream{
			NewListScan(st, vs, p2, 1, 0, nil),
			NewListScan(st, vs, r2, w, 2, nil),
		}, nil)
		want := Drain(LeftDeep([]Stream{left(), leg}, []map[int]bool{PatternBoundVars(vs, p1), PatternBoundVars(vs, p2)}, nil))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, LeftDeep %d", trial, len(got), len(want))
		}
		scores := make(map[string]float64, len(want))
		for _, e := range want {
			scores[e.Binding.Key()] = e.Score
		}
		for _, e := range got {
			if s, ok := scores[e.Binding.Key()]; !ok || math.Float64bits(s) != math.Float64bits(e.Score) {
				t.Fatalf("trial %d: result %v score %v, LeftDeep has %v (%v)", trial, e.Binding, e.Score, s, ok)
			}
		}
		ys := map[kg.ID]bool{}
		for _, p := range []kg.Pattern{p2, r2} {
			for _, i := range st.MatchList(p) {
				ys[st.Triple(i).S] = true
			}
		}
		if len(st.MatchList(r1)) > 0 && len(ys) > 1 {
			free++
		}
	}
	if free == 0 {
		t.Fatal("coverage: no trial probed a free join variable with several matches")
	}
}

// TestProbeCandSize: a candidate is the triple's IDs, its weighted score and
// its input — no inner binding.
func TestProbeCandSize(t *testing.T) {
	if n := unsafe.Sizeof(probeCand{}); n != 24 {
		t.Fatalf("probeCand is %d bytes, want 24", n)
	}
}
