package operators

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"specqp/internal/kg"
)

// pullCountingStream wraps a stream and bumps a shared counter on every Next,
// so a test can pin the exact input pull at which each join answer fires.
type pullCountingStream struct {
	Stream
	pulls *int
}

func (s pullCountingStream) Next() (Entry, bool) {
	*s.pulls++
	return s.Stream.Next()
}

// TestCornerBoundCertificateDeterministic is the hand-traced streaming
// contract: a store where the corner bound provably crosses the k-th emitted
// score mid-join, pinned down to the exact input pull at which each streamed
// answer fires. It guards against the degenerate implementation — "stream" =
// drain everything, then replay — which would fire every answer at the final
// pull count.
//
// The trace (HRJN with the larger-bound balancing heuristic, right side first
// on ties):
//
//	left : (a,1.00) (b,0.90) (c,0.20)
//	right: (a,0.95) (b,0.50) (c,0.45)
//
//	pull 1  left  (a,1.00)    bounds L=1.00 R=0.95 → left
//	pull 2  left  (b,0.90)    L=1.00 R=0.95 → left
//	pull 3  right (a,0.95)    joins a → queue (a,1.95);
//	                          threshold max(1.0+0.95, 0.9+0.95)=1.95 → EMIT a@1.95
//	pull 4  right (b,0.50)    joins b → queue (b,1.40)
//	pull 5  left  (c,0.20)    left is drained, its bound drops to 0
//	pull 6  right (c,0.45)    joins c → queue (c,0.65); right drained too, so
//	                          the threshold collapses to L.top+R.bound=1.0 < 1.40
//	                          → EMIT b@1.40 (bound crossed the 2nd score here)
//	pull 7  right exhausted
//	pull 8  left exhausted    both done, flush → EMIT c@0.65, certificate 0
func TestCornerBoundCertificateDeterministic(t *testing.T) {
	var pulls int
	l := pullCountingStream{joinStream([]kg.ID{1, 2, 3}, []float64{1.0, 0.9, 0.2}, 1, 0, 0), &pulls}
	r := pullCountingStream{joinStream([]kg.ID{1, 2, 3}, []float64{0.95, 0.5, 0.45}, 1, 0, 0), &pulls}
	rj := NewRankJoin(l, r, []int{0}, nil)

	type emission struct {
		id    kg.ID
		score float64
		pulls int
		cert  float64
	}
	var got []emission
	n := EmitK(rj, 10, func(e Entry) bool {
		got = append(got, emission{e.Binding[0], e.Score, pulls, rj.Certificate()})
		return true
	})
	want := []emission{
		{id: 1, score: 1.95, pulls: 3, cert: 1.95},
		{id: 2, score: 1.40, pulls: 6, cert: 1.0},
		{id: 3, score: 0.65, pulls: 8, cert: 0},
	}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("emitted %d answers, want %d (%+v)", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.id != w.id || math.Abs(g.score-w.score) > 1e-12 {
			t.Fatalf("emission %d: got id=%d score=%v, want id=%d score=%v", i, g.id, g.score, w.id, w.score)
		}
		if g.pulls != w.pulls {
			t.Fatalf("emission %d fired at pull %d, want pull %d — streaming is not incremental", i, g.pulls, w.pulls)
		}
		if math.Abs(g.cert-w.cert) > 1e-12 {
			t.Fatalf("emission %d certificate %v, want %v", i, g.cert, w.cert)
		}
		if g.score < g.cert-1e-12 {
			t.Fatalf("emission %d violates its certificate: score %v < bound %v", i, g.score, g.cert)
		}
	}
}

// TestCertificateHoldsOnRandomJoins asserts the streaming certificate on
// randomized joins: every emission's score dominates the corner bound that
// held at the moment it fired, and emissions stay sorted.
func TestCertificateHoldsOnRandomJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		mkSide := func(n int) []Entry {
			ids := make([]kg.ID, n)
			scores := make([]float64, n)
			v := 1.0
			for i := range ids {
				ids[i] = kg.ID(rng.Intn(12))
				v *= 0.6 + 0.4*rng.Float64()
				scores[i] = v
			}
			return dedupStream(joinStream(ids, scores, 1, 0, 0))
		}
		rj := NewRankJoin(
			&sliceStream{entries: mkSide(1 + rng.Intn(30))},
			&sliceStream{entries: mkSide(1 + rng.Intn(30))},
			[]int{0}, nil)
		prev := math.Inf(1)
		for {
			e, ok := rj.Next()
			if !ok {
				break
			}
			cert := rj.Certificate()
			if e.Score < cert-1e-9 {
				t.Fatalf("trial %d: emission %v fired under certificate %v", trial, e.Score, cert)
			}
			if e.Score > prev+1e-9 {
				t.Fatalf("trial %d: emissions out of order: %v after %v", trial, e.Score, prev)
			}
			prev = e.Score
		}
	}

	// ProbeJoin certifies the same way: on random stores, a scan probed by a
	// pattern and a weighted relaxation of it.
	probed := 0
	for trial := 0; trial < 80; trial++ {
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
		inputs := []ProbeInput{
			{Pattern: p2, Weight: 1},
			{Pattern: kg.NewPattern(kg.Var("y"), kg.Const(7), kg.Var("z")), Weight: 0.25 + 0.75*rng.Float64(), Mask: 2},
		}
		pj := NewProbeJoin(NewListScan(st, vs, p1, 1, 0, nil), PatternBoundVars(vs, p1), st.Pin().(kg.Prober), vs, inputs, nil)
		prev, n := math.Inf(1), 0
		for {
			e, ok := pj.Next()
			if !ok {
				break
			}
			n++
			cert := pj.Certificate()
			if e.Score < cert-1e-9 {
				t.Fatalf("probe trial %d: emission %v fired under certificate %v", trial, e.Score, cert)
			}
			if e.Score > prev+1e-9 {
				t.Fatalf("probe trial %d: emissions out of order: %v after %v", trial, e.Score, prev)
			}
			prev = e.Score
		}
		probed += n
	}
	if probed == 0 {
		t.Fatal("no probe trial emitted anything")
	}
}

// TestEmitKEarlyStop: a false-returning emitter stops the drain after the
// emitted prefix; DrainK (expressed on EmitK) still sees the full k.
func TestEmitKEarlyStop(t *testing.T) {
	mk := func() Stream {
		l := joinStream([]kg.ID{1, 2, 3}, []float64{1.0, 0.9, 0.2}, 1, 0, 0)
		r := joinStream([]kg.ID{1, 2, 3}, []float64{0.95, 0.5, 0.45}, 1, 0, 0)
		return NewRankJoin(l, r, []int{0}, nil)
	}
	full := DrainK(mk(), 10)
	if len(full) != 3 {
		t.Fatalf("full drain: %d answers", len(full))
	}
	var got []Entry
	n := EmitK(mk(), 10, func(e Entry) bool {
		got = append(got, e)
		return len(got) < 2
	})
	if n != 2 || len(got) != 2 {
		t.Fatalf("early stop emitted %d (returned %d), want 2", len(got), n)
	}
	for i := range got {
		if got[i].Score != full[i].Score || got[i].Binding[0] != full[i].Binding[0] {
			t.Fatalf("early-stopped prefix diverges at %d: %+v vs %+v", i, got[i], full[i])
		}
	}
}
