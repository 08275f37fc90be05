package operators

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"specqp/internal/kg"
)

// sliceStream adapts a fixed entry slice (sorted desc) to Stream, for
// operator tests that need precise control over inputs.
type sliceStream struct {
	entries []Entry
	pos     int
}

func newSliceStream(scores []float64, firstID kg.ID, mask uint32, nvars int) *sliceStream {
	es := make([]Entry, len(scores))
	for i, s := range scores {
		b := kg.NewBinding(nvars)
		b[0] = firstID + kg.ID(i)
		es[i] = Entry{Binding: b, Score: s, Relaxed: mask}
	}
	return &sliceStream{entries: es}
}

func (s *sliceStream) Next() (Entry, bool) {
	if s.pos >= len(s.entries) {
		return Entry{}, false
	}
	e := s.entries[s.pos]
	s.pos++
	return e, true
}

func (s *sliceStream) TopScore() float64 {
	if len(s.entries) == 0 {
		return 0
	}
	return s.entries[0].Score
}

func (s *sliceStream) Bound() float64 {
	if s.pos == 0 {
		return s.TopScore()
	}
	if s.pos >= len(s.entries) {
		return 0
	}
	return s.entries[s.pos-1].Score
}

func (s *sliceStream) Reset() { s.pos = 0 }

func TestIncrementalMergeGlobalOrder(t *testing.T) {
	a := newSliceStream([]float64{1.0, 0.5, 0.1}, 0, 0, 1)
	b := newSliceStream([]float64{0.9, 0.6, 0.2}, 100, 1, 1)
	c := &Counter{}
	m := NewIncrementalMerge([]Stream{a, b}, c)
	es := Drain(m)
	if len(es) != 6 {
		t.Fatalf("got %d entries want 6", len(es))
	}
	want := []float64{1.0, 0.9, 0.6, 0.5, 0.2, 0.1}
	for i, e := range es {
		if math.Abs(e.Score-want[i]) > 1e-12 {
			t.Fatalf("position %d: got %v want %v", i, e.Score, want[i])
		}
	}
	if c.Value() != 6 {
		t.Fatalf("counter: got %d want 6", c.Value())
	}
}

func TestIncrementalMergeDedupKeepsMax(t *testing.T) {
	// Same binding (ID 5) appears in both streams with different scores;
	// the merged stream must emit it once with the higher score.
	mk := func(score float64, mask uint32) Entry {
		b := kg.NewBinding(1)
		b[0] = 5
		return Entry{Binding: b, Score: score, Relaxed: mask}
	}
	a := &sliceStream{entries: []Entry{mk(0.9, 0)}}
	b := &sliceStream{entries: []Entry{mk(0.7, 1)}}
	m := NewIncrementalMerge([]Stream{a, b}, nil)
	es := Drain(m)
	if len(es) != 1 {
		t.Fatalf("dedup: got %d entries want 1", len(es))
	}
	if es[0].Score != 0.9 || es[0].Relaxed != 0 {
		t.Fatalf("kept entry: got score=%v mask=%b want 0.9/0", es[0].Score, es[0].Relaxed)
	}
}

func TestIncrementalMergeBounds(t *testing.T) {
	a := newSliceStream([]float64{1.0, 0.5}, 0, 0, 1)
	b := newSliceStream([]float64{0.8}, 100, 0, 1)
	m := NewIncrementalMerge([]Stream{a, b}, nil)
	if m.TopScore() != 1.0 {
		t.Fatalf("top: got %v", m.TopScore())
	}
	m.Next() // 1.0
	m.Next() // 0.8
	if got := m.Bound(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("bound: got %v want 0.8", got)
	}
	Drain(m)
	if m.Bound() != 0 {
		t.Fatalf("exhausted bound: got %v", m.Bound())
	}
}

func TestIncrementalMergeEmptyInputs(t *testing.T) {
	m := NewIncrementalMerge([]Stream{
		&sliceStream{}, &sliceStream{},
	}, nil)
	if m.TopScore() != 0 {
		t.Fatal("empty merge top score must be 0")
	}
	if _, ok := m.Next(); ok {
		t.Fatal("empty merge produced an entry")
	}
}

func TestIncrementalMergeSingleInput(t *testing.T) {
	a := newSliceStream([]float64{0.7, 0.3}, 0, 0, 1)
	m := NewIncrementalMerge([]Stream{a}, nil)
	es := Drain(m)
	if len(es) != 2 || es[0].Score != 0.7 {
		t.Fatalf("single input merge: %v", es)
	}
}

func TestIncrementalMergeLazyConsumption(t *testing.T) {
	// A low-weight input must not be read past its head while the strong
	// input still dominates — the core efficiency property of the operator.
	strong := newSliceStream([]float64{1.0, 0.9, 0.8, 0.7}, 0, 0, 1)
	weak := newSliceStream([]float64{0.2, 0.1}, 100, 0, 1)
	m := NewIncrementalMerge([]Stream{strong, weak}, nil)
	for i := 0; i < 4; i++ {
		m.Next()
	}
	// After 4 pulls all strong entries are emitted; the weak stream should
	// have been advanced at most once past its primed head.
	if weak.pos > 1 {
		t.Fatalf("weak stream over-consumed: pos=%d", weak.pos)
	}
}

func TestIncrementalMergeReset(t *testing.T) {
	a := newSliceStream([]float64{1.0, 0.5}, 0, 0, 1)
	b := newSliceStream([]float64{0.8}, 100, 0, 1)
	m := NewIncrementalMerge([]Stream{a, b}, nil)
	first := Drain(m)
	m.Reset()
	second := Drain(m)
	if len(first) != len(second) {
		t.Fatalf("reset: %d vs %d entries", len(first), len(second))
	}
	for i := range first {
		if first[i].Score != second[i].Score {
			t.Fatal("reset changed order")
		}
	}
}

// nonResettableStream is a Stream that deliberately lacks Reset.
type nonResettableStream struct{ inner *sliceStream }

func (s *nonResettableStream) Next() (Entry, bool) { return s.inner.Next() }
func (s *nonResettableStream) TopScore() float64   { return s.inner.TopScore() }
func (s *nonResettableStream) Bound() float64      { return s.inner.Bound() }

// TestIncrementalMergeResetInvariant pins the constructor-established Reset
// contract: CanReset reflects whether every input is Resettable, and Reset
// on a merge with a non-resettable input fails with a diagnostic that names
// the offending input instead of an opaque interface-conversion panic.
func TestIncrementalMergeResetInvariant(t *testing.T) {
	ok := NewIncrementalMerge([]Stream{
		newSliceStream([]float64{1.0}, 0, 0, 1),
		newSliceStream([]float64{0.5}, 10, 0, 1),
	}, nil)
	if !ok.CanReset() {
		t.Fatal("all-resettable merge must report CanReset")
	}
	ok.Reset() // must not panic

	bad := NewIncrementalMerge([]Stream{
		newSliceStream([]float64{1.0}, 0, 0, 1),
		&nonResettableStream{inner: newSliceStream([]float64{0.5}, 10, 0, 1)},
	}, nil)
	if bad.CanReset() {
		t.Fatal("merge with non-resettable input must not report CanReset")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Reset on non-resettable merge must panic")
		}
		msg, isString := r.(string)
		if !isString || !strings.Contains(msg, "input 1") || !strings.Contains(msg, "Resettable") {
			t.Fatalf("panic message not diagnostic: %v", r)
		}
	}()
	bad.Reset()
}

func TestIncrementalMergeRandomisedOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var inputs []Stream
		id := kg.ID(0)
		total := 0
		for s := 0; s < 1+rng.Intn(5); s++ {
			n := rng.Intn(20)
			scores := make([]float64, n)
			v := 1.0
			for i := range scores {
				v *= 0.5 + rng.Float64()/2
				scores[i] = v
			}
			inputs = append(inputs, newSliceStream(scores, id, 0, 1))
			id += kg.ID(n)
			total += n
		}
		m := NewIncrementalMerge(inputs, nil)
		es := Drain(m)
		if len(es) != total {
			t.Fatalf("trial %d: got %d entries want %d", trial, len(es), total)
		}
		if !IsSortedDesc(es) {
			t.Fatalf("trial %d: merge output not sorted", trial)
		}
	}
}

// selfCountingStream is a Stream that ranks no head in place: it counts every
// entry it hands out itself, as an operator does, and the merge reads it
// through pulledInput.
type selfCountingStream struct {
	inner Stream
	c     *Counter
	pulls int64
}

func (s *selfCountingStream) Next() (Entry, bool) {
	e, ok := s.inner.Next()
	if ok {
		s.pulls++
		s.c.Inc()
	}
	return e, ok
}
func (s *selfCountingStream) TopScore() float64 { return s.inner.TopScore() }
func (s *selfCountingStream) Bound() float64    { return s.inner.Bound() }

// arenaIDs is the number of IDs the arena has handed out.
func arenaIDs(a *bindingArena) int {
	n := a.off
	for _, ch := range a.chunks[:a.ci] {
		n += len(ch)
	}
	return n
}

// TestMergeMaterialisesOnlyEmitted pins what the merge materialises: over
// inputs that mostly repeat each other's bindings, its output is every
// input's entries sorted by score descending, then input index, keeping each
// binding's first occurrence; and only the entries it emits are cloned and
// counted — once at the scan's hand-off and once at the merge — while
// duplicates and heads still pending when the drain stops cost nothing. A
// plain Stream still counts what it hands out itself.
func TestMergeMaterialisesOnlyEmitted(t *testing.T) {
	st := randomOpStore(t, 4500, 300)
	ss := kg.NewShardedStoreFrom(st, 3)
	x, y := kg.Var("x"), kg.Var("y")
	// The predicates overlap and two inputs leave the predicate free, so most
	// (x, y) bindings reach the merge through several inputs; the last input
	// binds y only and is the ShardedListScan's cross-shard dedup shape.
	pats := []kg.Pattern{
		kg.NewPattern(x, kg.Const(8), y),
		kg.NewPattern(x, kg.Const(9), y),
		kg.NewPattern(x, kg.Var("free_p"), y),
		kg.NewPattern(x, kg.Const(10), y),
		kg.NewPattern(kg.Var("free_s"), kg.Var("free_p"), y),
	}
	weights := []float64{1, 0.9, 0.6, 0.9, 0.3}
	vs := kg.NewVarSet(kg.NewQuery(pats[0]))
	answers := make([][]kg.Answer, len(pats))
	for i, p := range pats {
		for _, e := range Drain(NewListScan(st, vs, p, 1, 0, nil)) {
			answers[i] = append(answers[i], kg.Answer{Binding: e.Binding, Score: e.Score, Relaxed: 1 << 7})
		}
	}
	kinds := []struct {
		name  string
		build func(i int, c *Counter) Stream
	}{
		{"ListScan", func(i int, c *Counter) Stream {
			return NewListScan(st, vs, pats[i], weights[i], 1<<uint(i), c)
		}},
		{"ShardedListScan", func(i int, c *Counter) Stream {
			return NewShardedListScan(ss, vs, pats[i], weights[i], 1<<uint(i), c)
		}},
		{"AnswerScan", func(i int, c *Counter) Stream {
			return NewAnswerScan(answers[i], weights[i], 1<<uint(i), c)
		}},
		{"Stream", func(i int, c *Counter) Stream {
			return &selfCountingStream{inner: NewListScan(st, vs, pats[i], weights[i], 1<<uint(i), nil), c: c}
		}},
	}
	type refEntry struct {
		e  Entry
		in int
	}
	for _, kind := range kinds {
		var ref []refEntry
		for i := range pats {
			for _, e := range Drain(kind.build(i, nil)) {
				ref = append(ref, refEntry{e, i})
			}
		}
		total := len(ref)
		slices.SortStableFunc(ref, func(a, b refEntry) int { return cmp.Compare(b.e.Score, a.e.Score) })
		seen := map[string]bool{}
		ref = slices.DeleteFunc(ref, func(r refEntry) bool {
			k := r.e.Binding.Key()
			dup := seen[k]
			seen[k] = true
			return dup
		})
		if 2*len(ref) > total {
			t.Fatalf("%s: %d distinct bindings of %d entries; the inputs must mostly repeat each other", kind.name, len(ref), total)
		}
		for _, k := range []int{math.MaxInt, len(ref) / 3} {
			c := &Counter{}
			ins := make([]Stream, len(pats))
			for i := range pats {
				ins[i] = kind.build(i, c)
			}
			got := DrainK(NewIncrementalMerge(ins, c), k)
			want := ref[:min(k, len(ref))]
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d entries, want %d", kind.name, k, len(got), len(want))
			}
			perInput := make([]int, len(pats))
			for j, w := range want {
				g := got[j]
				if g.Binding.Compare(w.e.Binding) != 0 || math.Float64bits(g.Score) != math.Float64bits(w.e.Score) || g.Relaxed != w.e.Relaxed {
					t.Fatalf("%s k=%d: entry %d is %v, want %v from input %d", kind.name, k, j, g, w.e, w.in)
				}
				perInput[w.in]++
			}
			if sc, ok := ins[0].(*selfCountingStream); ok {
				var pulls int64
				for _, in := range ins {
					pulls += in.(*selfCountingStream).pulls
				}
				if pulls <= int64(len(got)) || c.Value() != int64(len(got))+pulls {
					t.Fatalf("%s k=%d: %d objects for %d emitted and %d pulled by %T", kind.name, k, c.Value(), len(got), pulls, sc)
				}
				continue
			}
			if c.Value() != 2*int64(len(got)) {
				t.Fatalf("%s k=%d: %d objects for %d emitted, want exactly 2 per entry", kind.name, k, c.Value(), len(got))
			}
			// Only the emitted entries were cloned: a rejected or pending
			// head added nothing to any arena.
			for i, in := range ins {
				ids := 0
				switch s := in.(type) {
				case *ListScan:
					ids = arenaIDs(&s.arena)
				case *ShardedListScan:
					for _, sub := range s.subs {
						ids += arenaIDs(&sub.arena)
					}
				}
				if _, ok := in.(*AnswerScan); !ok && ids != perInput[i]*vs.Len() {
					t.Fatalf("%s k=%d: input %d cloned %d IDs for %d emitted entries of width %d", kind.name, k, i, ids, perInput[i], vs.Len())
				}
			}
		}
	}
}
