package operators

import (
	"fmt"
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

// TestProbeCandSize: a candidate is the triple's IDs, its weighted score and
// its input — no inner binding.
func TestProbeCandSize(t *testing.T) {
	if n := unsafe.Sizeof(probeCand{}); n != 24 {
		t.Fatalf("probeCand is %d bytes, want 24", n)
	}
}
