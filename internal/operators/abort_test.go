package operators

import (
	"testing"

	"specqp/internal/kg"
)

// countingStream wraps a Stream and counts Next pulls, so abort tests can
// assert the operator stopped consuming input within the AbortStride bound.
type countingStream struct {
	inner Stream
	pulls int
}

func (c *countingStream) Next() (Entry, bool) {
	c.pulls++
	return c.inner.Next()
}
func (c *countingStream) TopScore() float64 { return c.inner.TopScore() }
func (c *countingStream) Bound() float64    { return c.inner.Bound() }

// bigSides builds two n-entry sides sharing every binding, so a full join
// yields n results and requires ~2n input pulls.
func bigSides(n int) (*countingStream, *countingStream) {
	mk := func() *countingStream {
		es := make([]Entry, n)
		for i := 0; i < n; i++ {
			b := kg.NewBinding(1)
			b[0] = kg.ID(i)
			es[i] = Entry{Binding: b, Score: float64(2*n - i)}
		}
		return &countingStream{inner: &sliceStream{entries: es}}
	}
	return mk(), mk()
}

func TestRankJoinAbortBoundsPulls(t *testing.T) {
	const n = 50 * AbortStride
	l, r := bigSides(n)
	c := &Counter{}
	c.SetAbort(func() bool { return true })
	rj := NewRankJoin(l, r, []int{0}, c)
	out := Drain(rj)
	// The abort fires at the first stride boundary: the operator may emit at
	// most a stride's worth of results and must stop pulling input.
	if len(out) > AbortStride {
		t.Fatalf("aborted join emitted %d results (stride %d)", len(out), AbortStride)
	}
	if got := l.pulls + r.pulls; got > 2*AbortStride+2 {
		t.Fatalf("aborted join pulled %d inputs (want <= %d)", got, 2*AbortStride+2)
	}
	// A second Next after abort stays terminated.
	if _, ok := rj.Next(); ok {
		t.Fatal("aborted join produced another entry")
	}
}

func TestRankJoinNoAbortDrainsFully(t *testing.T) {
	const n = 3 * AbortStride
	l, r := bigSides(n)
	c := &Counter{}
	c.SetAbort(func() bool { return false })
	out := Drain(NewRankJoin(l, r, []int{0}, c))
	if len(out) != n {
		t.Fatalf("non-aborted join emitted %d results, want %d", len(out), n)
	}
}

func TestIncrementalMergeAbortBoundsPulls(t *testing.T) {
	const n = 50 * AbortStride
	a, b := bigSides(n)
	c := &Counter{}
	aborted := false
	c.SetAbort(func() bool { return aborted })
	m := NewIncrementalMerge([]Stream{a, b}, c)
	// Consume a few entries live, then abort: the merge must terminate within
	// one stride of further pulls.
	for i := 0; i < 10; i++ {
		if _, ok := m.Next(); !ok {
			t.Fatal("merge exhausted prematurely")
		}
	}
	aborted = true
	extra := 0
	for {
		if _, ok := m.Next(); !ok {
			break
		}
		extra++
		if extra > AbortStride {
			t.Fatalf("merge emitted %d entries after abort (stride %d)", extra, AbortStride)
		}
	}
	if got := a.pulls + b.pulls; got > 10+AbortStride+4 {
		t.Fatalf("aborted merge pulled %d inputs", got)
	}
}

func TestNRJNAbortTerminates(t *testing.T) {
	const n = 50 * AbortStride
	outer, _ := bigSides(n)
	es := make([]Entry, n)
	for i := 0; i < n; i++ {
		b := kg.NewBinding(1)
		b[0] = kg.ID(i)
		es[i] = Entry{Binding: b, Score: float64(2*n - i)}
	}
	inner := &sliceStream{entries: es}
	c := &Counter{}
	c.SetAbort(func() bool { return true })
	nj := NewNRJN(outer, inner, []int{0}, c)
	out := Drain(nj)
	if len(out) > AbortStride {
		t.Fatalf("aborted NRJN emitted %d results", len(out))
	}
	if _, ok := nj.Next(); ok {
		t.Fatal("aborted NRJN produced another entry")
	}
}

// TestProbeJoinAbortBoundsPulls: a probe join whose left entries find no
// match would pull its whole left side inside one Next; an abort stops it
// within one stride of left pulls.
func TestProbeJoinAbortBoundsPulls(t *testing.T) {
	const n = 50 * AbortStride
	es := make([]Entry, n)
	for i := range es {
		b := kg.NewBinding(2)
		b[0] = kg.ID(1000 + i) // no subject of the store
		es[i] = Entry{Binding: b, Score: float64(2*n - i)}
	}
	left := &countingStream{inner: &sliceStream{entries: es}}
	st := dupFreeStore(t)
	likes, _ := st.Dict().Lookup("likes")
	p := kg.NewPattern(kg.Var("s"), kg.Const(likes), kg.Var("o"))
	vs := kg.NewVarSet(kg.NewQuery(p))
	for _, abort := range []bool{true, false} {
		left.pulls = 0
		left.inner.(*sliceStream).pos = 0
		c := &Counter{}
		c.SetAbort(func() bool { return abort })
		pj := NewProbeJoin(left, map[int]bool{0: true}, st.Pin().(kg.Prober), vs, []ProbeInput{{Pattern: p, Weight: 1}}, c)
		if out := Drain(pj); len(out) != 0 {
			t.Fatalf("abort=%v: join of unmatched keys emitted %d results", abort, len(out))
		}
		if abort && left.pulls > AbortStride+1 {
			t.Fatalf("aborted probe join pulled %d left entries (stride %d)", left.pulls, AbortStride)
		}
		if !abort && left.pulls != n+1 {
			t.Fatalf("probe join pulled %d left entries, want all %d", left.pulls, n)
		}
		if _, ok := pj.Next(); ok {
			t.Fatalf("abort=%v: finished probe join produced another entry", abort)
		}
	}
}
