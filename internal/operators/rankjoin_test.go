package operators

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"specqp/internal/kg"
)

// joinStream builds a stream of entries over a 1-variable binding space
// where entry i binds the given IDs with the given scores (sorted desc).
func joinStream(ids []kg.ID, scores []float64, nvars int, varIdx int, mask uint32) *sliceStream {
	es := make([]Entry, len(ids))
	for i := range ids {
		b := kg.NewBinding(nvars)
		b[varIdx] = ids[i]
		es[i] = Entry{Binding: b, Score: scores[i], Relaxed: mask}
	}
	return &sliceStream{entries: es}
}

func TestRankJoinBasic(t *testing.T) {
	// Left: ids 1,2,3 scores 1.0,0.8,0.6. Right: ids 2,3,4 scores 0.9,0.5,0.4.
	l := joinStream([]kg.ID{1, 2, 3}, []float64{1.0, 0.8, 0.6}, 1, 0, 0)
	r := joinStream([]kg.ID{2, 3, 4}, []float64{0.9, 0.5, 0.4}, 1, 0, 1)
	c := &Counter{}
	rj := NewRankJoin(l, r, []int{0}, c)
	es := Drain(rj)
	// Joins: id2 (0.8+0.9=1.7), id3 (0.6+0.5=1.1).
	if len(es) != 2 {
		t.Fatalf("join results: got %d want 2", len(es))
	}
	if math.Abs(es[0].Score-1.7) > 1e-12 || es[0].Binding[0] != 2 {
		t.Fatalf("first result: %+v", es[0])
	}
	if math.Abs(es[1].Score-1.1) > 1e-12 || es[1].Binding[0] != 3 {
		t.Fatalf("second result: %+v", es[1])
	}
	if es[0].Relaxed != 1 {
		t.Fatalf("relaxed mask not propagated: %b", es[0].Relaxed)
	}
}

func TestRankJoinOutputSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nl, nr := 1+rng.Intn(30), 1+rng.Intn(30)
		mkSide := func(n int) ([]kg.ID, []float64) {
			ids := make([]kg.ID, n)
			scores := make([]float64, n)
			v := 1.0
			for i := range ids {
				ids[i] = kg.ID(rng.Intn(12))
				v *= 0.6 + 0.4*rng.Float64()
				scores[i] = v
			}
			return ids, scores
		}
		lids, lsc := mkSide(nl)
		rids, rsc := mkSide(nr)
		// Deduplicate bindings within each side (stream invariant).
		l := dedupStream(joinStream(lids, lsc, 1, 0, 0))
		r := dedupStream(joinStream(rids, rsc, 1, 0, 0))
		rj := NewRankJoin(&sliceStream{entries: l}, &sliceStream{entries: r}, []int{0}, nil)
		es := Drain(rj)
		if !IsSortedDesc(es) {
			t.Fatalf("trial %d: join output not sorted: %v", trial, es)
		}
		// Cross-check against brute force join.
		want := bruteJoin(l, r)
		if len(es) != len(want) {
			t.Fatalf("trial %d: got %d results want %d", trial, len(es), len(want))
		}
		for i := range es {
			if math.Abs(es[i].Score-want[i]) > 1e-9 {
				t.Fatalf("trial %d: score %d: got %v want %v", trial, i, es[i].Score, want[i])
			}
		}
	}
}

func dedupStream(s *sliceStream) []Entry {
	seen := map[string]bool{}
	var out []Entry
	for _, e := range s.entries {
		k := e.Binding.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

func bruteJoin(l, r []Entry) []float64 {
	var out []float64
	for _, le := range l {
		for _, re := range r {
			if le.Binding[0] == re.Binding[0] {
				out = append(out, le.Score+re.Score)
			}
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

func TestRankJoinEarlyTermination(t *testing.T) {
	// Top result joins the heads of both lists; after emitting it the join
	// must not have consumed everything.
	n := 1000
	ids := make([]kg.ID, n)
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		ids[i] = kg.ID(i)
		scores[i] = 1 - float64(i)/float64(n)
	}
	l := joinStream(ids, scores, 1, 0, 0)
	r := joinStream(ids, scores, 1, 0, 0)
	rj := NewRankJoin(l, r, []int{0}, nil)
	e, ok := rj.Next()
	if !ok || e.Binding[0] != 0 {
		t.Fatalf("first join result: %+v ok=%v", e, ok)
	}
	if l.pos > n/2 || r.pos > n/2 {
		t.Fatalf("early termination failed: consumed %d/%d of inputs", l.pos, r.pos)
	}
}

func TestRankJoinDisjointInputs(t *testing.T) {
	l := joinStream([]kg.ID{1, 2}, []float64{1, 0.5}, 1, 0, 0)
	r := joinStream([]kg.ID{3, 4}, []float64{1, 0.5}, 1, 0, 0)
	rj := NewRankJoin(l, r, []int{0}, nil)
	if es := Drain(rj); len(es) != 0 {
		t.Fatalf("disjoint join produced %d results", len(es))
	}
}

func TestRankJoinEmptySide(t *testing.T) {
	l := joinStream([]kg.ID{1}, []float64{1}, 1, 0, 0)
	r := &sliceStream{}
	rj := NewRankJoin(l, r, []int{0}, nil)
	if es := Drain(rj); len(es) != 0 {
		t.Fatalf("join with empty side produced %d results", len(es))
	}
}

func TestRankJoinCartesianNoJoinVars(t *testing.T) {
	// With no shared variables the join is a cartesian product over
	// different variables.
	l := joinStream([]kg.ID{1, 2}, []float64{1.0, 0.4}, 2, 0, 0)
	r := joinStream([]kg.ID{7, 8}, []float64{0.9, 0.3}, 2, 1, 0)
	rj := NewRankJoin(l, r, nil, nil)
	es := Drain(rj)
	if len(es) != 4 {
		t.Fatalf("cartesian: got %d want 4", len(es))
	}
	if !IsSortedDesc(es) {
		t.Fatal("cartesian output not sorted")
	}
	if math.Abs(es[0].Score-1.9) > 1e-12 {
		t.Fatalf("top cartesian score: got %v want 1.9", es[0].Score)
	}
}

func TestRankJoinMemoryCounter(t *testing.T) {
	l := joinStream([]kg.ID{1, 2}, []float64{1, 0.5}, 1, 0, 0)
	r := joinStream([]kg.ID{1, 2}, []float64{1, 0.5}, 1, 0, 0)
	c := &Counter{}
	rj := NewRankJoin(l, r, []int{0}, c)
	Drain(rj)
	// 2 join results created; input entries are counted by their producers.
	if c.Value() != 2 {
		t.Fatalf("counter: got %d want 2", c.Value())
	}
}

// TestRankJoinUnboundJoinVariable: an entry whose relaxation left a join
// variable unbound joins every entry of the other side that agrees with it
// where both are bound, whichever side arrives first, and each pair is
// enqueued once. Variables: 0 x, 1 y (the join variable), 2 z.
func TestRankJoinUnboundJoinVariable(t *testing.T) {
	ent := func(x, y, z kg.ID, score float64) Entry {
		return Entry{Binding: kg.Binding{x, y, z}, Score: score}
	}
	no := kg.NoID
	left := &sliceStream{entries: []Entry{ent(1, 10, no, 1), ent(2, no, no, 0.9), ent(3, 11, no, 0.2)}}
	right := &sliceStream{entries: []Entry{ent(no, 10, 20, 1), ent(no, 12, 21, 0.8), ent(no, no, 22, 0.5)}}
	c := &Counter{}
	got := Drain(NewRankJoin(left, right, []int{1}, c))
	want := []Entry{
		ent(1, 10, 20, 2),
		ent(2, 10, 20, 1.9),
		ent(2, 12, 21, 1.7),
		ent(1, 10, 22, 1.5),
		ent(2, no, 22, 1.4),
		ent(3, 11, 22, 0.7),
	}
	if len(got) != len(want) {
		t.Fatalf("%d results %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i].Binding.Compare(want[i].Binding) != 0 || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("result %d is %v, want %v", i, got[i], want[i])
		}
	}
	if c.Value() != int64(len(want)) {
		t.Fatalf("%d results enqueued, want each of the %d pairs once", c.Value(), len(want))
	}
}

func TestJoinVars(t *testing.T) {
	l := map[int]bool{0: true, 2: true, 5: true}
	r := map[int]bool{2: true, 5: true, 7: true}
	got := JoinVars(l, r)
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("join vars: got %v want [2 5]", got)
	}
	if got := JoinVars(l, map[int]bool{9: true}); len(got) != 0 {
		t.Fatalf("disjoint vars: got %v", got)
	}
}

func TestLeftDeepThreeWay(t *testing.T) {
	// Entities 1..4, three "patterns" all binding var 0.
	s1 := joinStream([]kg.ID{1, 2, 3, 4}, []float64{1.0, 0.9, 0.8, 0.7}, 1, 0, 0)
	s2 := joinStream([]kg.ID{2, 3}, []float64{1.0, 0.5}, 1, 0, 0)
	s3 := joinStream([]kg.ID{3, 2}, []float64{1.0, 0.2}, 1, 0, 0)
	vars := []map[int]bool{{0: true}, {0: true}, {0: true}}
	root := LeftDeep([]Stream{s1, s2, s3}, vars, nil)
	es := Drain(root)
	// id2: 0.9+1.0+0.2 = 2.1; id3: 0.8+0.5+1.0 = 2.3 → id3 first.
	if len(es) != 2 {
		t.Fatalf("got %d results want 2", len(es))
	}
	if es[0].Binding[0] != 3 || math.Abs(es[0].Score-2.3) > 1e-12 {
		t.Fatalf("first: %+v", es[0])
	}
	if es[1].Binding[0] != 2 || math.Abs(es[1].Score-2.1) > 1e-12 {
		t.Fatalf("second: %+v", es[1])
	}
}

func TestLeftDeepEmpty(t *testing.T) {
	root := LeftDeep(nil, nil, nil)
	if _, ok := root.Next(); ok {
		t.Fatal("empty left-deep tree produced an entry")
	}
	if root.TopScore() != 0 || root.Bound() != 0 {
		t.Fatal("empty stream bounds must be zero")
	}
}

func TestLeftDeepSingle(t *testing.T) {
	s := joinStream([]kg.ID{1}, []float64{0.6}, 1, 0, 0)
	root := LeftDeep([]Stream{s}, []map[int]bool{{0: true}}, nil)
	es := Drain(root)
	if len(es) != 1 || es[0].Score != 0.6 {
		t.Fatalf("single stream left-deep: %v", es)
	}
}

func TestPatternBoundVars(t *testing.T) {
	q := kg.NewQuery(
		kg.NewPattern(kg.Var("s"), kg.Const(1), kg.Var("o")),
		kg.NewPattern(kg.Var("o"), kg.Const(2), kg.Var("z")),
	)
	vs := kg.NewVarSet(q)
	got := PatternBoundVars(vs, q.Patterns[0])
	if !got[0] || !got[1] || got[2] {
		t.Fatalf("bound vars of pattern 0: %v", got)
	}
	got1 := PatternBoundVars(vs, q.Patterns[1])
	if got1[0] || !got1[1] || !got1[2] {
		t.Fatalf("bound vars of pattern 1: %v", got1)
	}
}
