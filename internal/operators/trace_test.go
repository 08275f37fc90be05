package operators

import (
	"testing"

	"specqp/internal/kg"
)

// traceFixture builds a two-pattern join query over the duplicate-free store:
// a RankJoin of two ListScans, the smallest pipeline that exercises pulls,
// emissions, created objects and the corner bound.
func traceFixture(t testing.TB, c *Counter) (*kg.Store, *RankJoin) {
	t.Helper()
	st := dupFreeStore(t)
	d := st.Dict()
	ty, _ := d.Lookup("type")
	likes, _ := d.Lookup("likes")
	p1 := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	p2 := kg.NewPattern(kg.Var("s"), kg.Const(likes), kg.Var("o2"))
	vs := kg.NewVarSet(kg.NewQuery(p1, p2))
	l := NewListScan(st, vs, p1, 1, 0, c)
	r := NewListScan(st, vs, p2, 1, 0, c)
	return st, NewRankJoin(l, r, []int{0}, c)
}

// probeFixture is traceFixture with the second pattern probed: a ProbeJoin
// of the type scan with the likes pattern and one relaxation of it.
func probeFixture(t testing.TB, c *Counter) *ProbeJoin {
	t.Helper()
	st := dupFreeStore(t)
	d := st.Dict()
	ty, _ := d.Lookup("type")
	likes, _ := d.Lookup("likes")
	a, _ := d.Lookup("A")
	p1 := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	p2 := kg.NewPattern(kg.Var("s"), kg.Const(likes), kg.Var("o2"))
	vs := kg.NewVarSet(kg.NewQuery(p1, p2))
	l := NewListScan(st, vs, p1, 1, 0, c)
	inputs := []ProbeInput{
		{Pattern: p2, Weight: 1},
		{Pattern: kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(a)), Weight: 0.5, Mask: 2},
	}
	return NewProbeJoin(l, PatternBoundVars(vs, p1), st.Pin().(kg.Prober), vs, inputs, c)
}

// TestTracingBitIdentity is the oracle the tentpole stands on: the same plan
// drained with tracing on and with tracing off must produce byte-identical
// answer sequences — tracing observes the execution, never steers it.
func TestTracingBitIdentity(t *testing.T) {
	plain := &Counter{}
	_, jPlain := traceFixture(t, plain)
	want := Drain(jPlain)

	traced := &Counter{}
	traced.EnableTracing()
	_, jTraced := traceFixture(t, traced)
	got := Drain(jTraced)

	if len(got) != len(want) {
		t.Fatalf("traced drain: %d entries, untraced %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score || got[i].Relaxed != want[i].Relaxed {
			t.Fatalf("entry %d diverges: traced %+v untraced %+v", i, got[i], want[i])
		}
		if len(got[i].Binding) != len(want[i].Binding) {
			t.Fatalf("entry %d binding width diverges", i)
		}
		for v := range want[i].Binding {
			if got[i].Binding[v] != want[i].Binding[v] {
				t.Fatalf("entry %d var %d: traced %v untraced %v", i, v, got[i].Binding[v], want[i].Binding[v])
			}
		}
	}

	// The untraced run must carry no trace nodes at all; the traced run must
	// have counted every pull and emission it performed.
	if n := TraceTree(jPlain); n != nil {
		t.Fatalf("untraced pipeline built trace nodes: %+v", n)
	}
	root := TraceTree(jTraced)
	if root == nil {
		t.Fatal("traced pipeline built no trace tree")
	}
	s := root.Snapshot()
	if s.Op != "RankJoin" || len(s.Children) != 2 {
		t.Fatalf("tree shape: %s with %d children", s.Op, len(s.Children))
	}
	if s.Emits != int64(len(want)) {
		t.Fatalf("join emits %d, drained %d", s.Emits, len(want))
	}
	for _, c := range s.Children {
		if c.Op != "ListScan" || c.Pulls == 0 || c.Emits == 0 {
			t.Fatalf("leaf stats missing: %+v", c)
		}
		if c.TopScore == 0 {
			t.Fatalf("leaf top score not stamped: %+v", c)
		}
	}
	if s.Created < s.Emits {
		t.Fatalf("join created %d < emitted %d", s.Created, s.Emits)
	}

	// The same oracle over a probe plan.
	pPlain, pTraced := probeFixture(t, plain), probeFixture(t, traced)
	want, got = Drain(pPlain), Drain(pTraced)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("probe drain: traced %d entries, untraced %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score || got[i].Relaxed != want[i].Relaxed || got[i].Binding.Compare(want[i].Binding) != 0 {
			t.Fatalf("probe entry %d diverges: traced %+v untraced %+v", i, got[i], want[i])
		}
	}
	if n := TraceTree(pPlain); n != nil {
		t.Fatalf("untraced probe plan built trace nodes: %+v", n)
	}
	s = TraceTree(pTraced).Snapshot()
	if s.Op != "ProbeJoin" || len(s.Children) != 1 || s.Children[0].Op != "ListScan" {
		t.Fatalf("probe tree shape: %+v", s)
	}
	// A probe join creates only the results it emits.
	if s.Emits != int64(len(want)) || s.Pulls == 0 || s.Probes == 0 || s.Created != s.Emits {
		t.Fatalf("probe join stats: %+v", s)
	}
}

// TestTraceDisabledZeroAllocs extends the repo's standing alloc guard to the
// tracing seam: the steady-state drain with a live but UNTRACED Counter — the
// exact production hot path after this PR — must still allocate nothing. A
// single stray `if c.Tracing()` that allocates, or a trace node created
// unconditionally, fails this.
func TestTraceDisabledZeroAllocs(t *testing.T) {
	c := &Counter{}
	if c.Tracing() {
		t.Fatal("fresh counter must not trace")
	}
	st := dupFreeStore(t)
	ty, _ := st.Dict().Lookup("type")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	vs := kg.NewVarSet(kg.NewQuery(pat))
	s := NewListScan(st, vs, pat, 1, 0, c)
	if s.stats != nil {
		t.Fatal("untraced scan carries a stats node")
	}
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		s.Reset()
		for {
			if _, ok := s.Next(); !ok {
				return
			}
		}
	}); allocs != 0 {
		t.Fatalf("trace-disabled steady-state scan: %v allocs per drain, want 0", allocs)
	}

	// The pipeline above RankJoin must also build without trace nodes when the
	// shared counter is untraced — TraceTree over it returns nil without ever
	// synthesising anything.
	_, join := traceFixture(t, c)
	Drain(join)
	if TraceTree(join) != nil {
		t.Fatal("untraced join pipeline built trace nodes")
	}
	probe := probeFixture(t, c)
	if probe.stats != nil {
		t.Fatal("untraced probe join carries a stats node")
	}
	Drain(probe)
	if TraceTree(probe) != nil {
		t.Fatal("untraced probe pipeline built trace nodes")
	}
}

// TestTraceTreeIdempotent: assembling the tree twice (exec stamps build times
// first, the engine snapshots later) must not duplicate children.
func TestTraceTreeIdempotent(t *testing.T) {
	c := &Counter{}
	c.EnableTracing()
	_, join := traceFixture(t, c)
	Drain(join)
	a := TraceTree(join)
	b := TraceTree(join)
	if a != b {
		t.Fatal("TraceTree returned distinct roots")
	}
	if len(a.Children) != 2 {
		t.Fatalf("children duplicated: %d", len(a.Children))
	}
}
