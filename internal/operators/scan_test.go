package operators

import (
	"math"
	"testing"

	"specqp/internal/kg"
)

// scanStore builds a pattern with scores 100, 80, 60, 40 and a second type
// for join tests.
func scanStore(t *testing.T) (*kg.Store, kg.Pattern, kg.Pattern) {
	t.Helper()
	st := kg.NewStore(nil)
	add := func(s, o string, sc float64) {
		if err := st.AddSPO(s, "type", o, sc); err != nil {
			t.Fatal(err)
		}
	}
	add("e1", "A", 100)
	add("e2", "A", 80)
	add("e3", "A", 60)
	add("e4", "A", 40)
	add("e1", "B", 50)
	add("e3", "B", 25)
	st.Freeze()
	ty, _ := st.Dict().Lookup("type")
	a, _ := st.Dict().Lookup("A")
	b, _ := st.Dict().Lookup("B")
	return st,
		kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(a)),
		kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(b))
}

func TestListScanOrderAndNormalisation(t *testing.T) {
	st, pa, _ := scanStore(t)
	vs := kg.NewVarSet(kg.NewQuery(pa))
	c := &Counter{}
	s := NewListScan(st, vs, pa, 1, 0, c)
	es := Drain(s)
	if len(es) != 4 {
		t.Fatalf("entries: got %d want 4", len(es))
	}
	want := []float64{1.0, 0.8, 0.6, 0.4}
	for i, e := range es {
		if math.Abs(e.Score-want[i]) > 1e-12 {
			t.Fatalf("entry %d score: got %v want %v", i, e.Score, want[i])
		}
		if e.Relaxed != 0 {
			t.Fatalf("entry %d relaxed mask: got %b want 0", i, e.Relaxed)
		}
	}
	if !IsSortedDesc(es) {
		t.Fatal("scan output not sorted")
	}
	if c.Value() != 4 {
		t.Fatalf("counter: got %d want 4", c.Value())
	}
}

func TestListScanWeightAndMask(t *testing.T) {
	st, pa, _ := scanStore(t)
	vs := kg.NewVarSet(kg.NewQuery(pa))
	s := NewListScan(st, vs, pa, 0.5, 1<<2, nil)
	es := Drain(s)
	if math.Abs(es[0].Score-0.5) > 1e-12 {
		t.Fatalf("weighted top: got %v want 0.5", es[0].Score)
	}
	if es[0].Relaxed != 4 {
		t.Fatalf("mask: got %b want 100", es[0].Relaxed)
	}
}

func TestListScanBounds(t *testing.T) {
	st, pa, _ := scanStore(t)
	vs := kg.NewVarSet(kg.NewQuery(pa))
	s := NewListScan(st, vs, pa, 1, 0, nil)
	if s.TopScore() != 1 {
		t.Fatalf("top: got %v", s.TopScore())
	}
	if s.Bound() != 1 {
		t.Fatalf("initial bound: got %v", s.Bound())
	}
	s.Next()
	s.Next()
	if got := s.Bound(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("bound after 2 pulls: got %v want 0.8", got)
	}
	Drain(s)
	if s.Bound() != 0 {
		t.Fatalf("bound after exhaustion: got %v", s.Bound())
	}
	if s.TopScore() != 1 {
		t.Fatal("TopScore must not change")
	}
}

func TestListScanReset(t *testing.T) {
	st, pa, _ := scanStore(t)
	vs := kg.NewVarSet(kg.NewQuery(pa))
	s := NewListScan(st, vs, pa, 1, 0, nil)
	first := Drain(s)
	s.Reset()
	second := Drain(s)
	if len(first) != len(second) {
		t.Fatalf("reset changed entry count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Score != second[i].Score {
			t.Fatal("reset changed scores")
		}
	}
}

func TestListScanEmptyPattern(t *testing.T) {
	st, pa, _ := scanStore(t)
	missing := kg.NewPattern(pa.S, pa.P, kg.Const(kg.ID(999999)))
	st.Dict().Encode("pad") // keep dictionary consistent
	vs := kg.NewVarSet(kg.NewQuery(missing))
	s := NewListScan(st, vs, missing, 1, 0, nil)
	if s.TopScore() != 0 || s.Bound() != 0 {
		t.Fatal("empty scan must have zero bounds")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("empty scan produced an entry")
	}
}

func TestListScanDeduplicatesBindings(t *testing.T) {
	st := kg.NewStore(nil)
	if err := st.AddSPO("e", "type", "A", 10); err != nil {
		t.Fatal(err)
	}
	if err := st.AddSPO("e", "type", "A", 5); err != nil {
		t.Fatal(err)
	}
	st.Freeze()
	ty, _ := st.Dict().Lookup("type")
	a, _ := st.Dict().Lookup("A")
	p := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(a))
	vs := kg.NewVarSet(kg.NewQuery(p))
	es := Drain(NewListScan(st, vs, p, 1, 0, nil))
	if len(es) != 1 {
		t.Fatalf("duplicate triple not deduped: %d entries", len(es))
	}
	if es[0].Score != 1 {
		t.Fatalf("dedup kept %v want the max (1)", es[0].Score)
	}
}

func TestDrainK(t *testing.T) {
	st, pa, _ := scanStore(t)
	vs := kg.NewVarSet(kg.NewQuery(pa))
	s := NewListScan(st, vs, pa, 1, 0, nil)
	es := DrainK(s, 2)
	if len(es) != 2 {
		t.Fatalf("got %d entries want 2", len(es))
	}
	es2 := DrainK(NewListScan(st, vs, pa, 1, 0, nil), 100)
	if len(es2) != 4 {
		t.Fatalf("over-drain: got %d want 4", len(es2))
	}
}

// TestCounterConcurrent: a Counter is a plain integer owned by one
// execution, and concurrent executions each own theirs — counters on
// separate goroutines count independently (the -race build flags any shared
// state between them).
func TestCounterConcurrent(t *testing.T) {
	cs := make([]Counter, 4)
	done := make(chan struct{})
	for w := range cs {
		go func() {
			for i := 0; i < 1000; i++ {
				cs[w].Inc()
			}
			cs[w].Add(int64(w))
			done <- struct{}{}
		}()
	}
	for range cs {
		<-done
	}
	for w := range cs {
		if got := cs[w].Value(); got != 1000+int64(w) {
			t.Fatalf("counter %d: got %d want %d", w, got, 1000+w)
		}
	}
	c := &cs[0]
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
	var nilC *Counter
	nilC.Inc() // must not panic
	nilC.Add(5)
	if nilC.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}
