package stats

import (
	"math"
	"testing"

	"specqp/internal/kg"
)

// catalogStore builds a small store: 6 entities typed A (scores 60..10),
// 3 of them also typed B.
func catalogStore(t *testing.T) (*kg.Store, kg.Pattern, kg.Pattern) {
	t.Helper()
	st := kg.NewStore(nil)
	add := func(s, o string, sc float64) {
		if err := st.AddSPO(s, "type", o, sc); err != nil {
			t.Fatal(err)
		}
	}
	for i, sc := range []float64{60, 50, 40, 30, 20, 10} {
		add(string(rune('a'+i)), "A", sc)
	}
	add("a", "B", 33)
	add("c", "B", 22)
	add("e", "B", 11)
	st.Freeze()
	ty, _ := st.Dict().Lookup("type")
	aID, _ := st.Dict().Lookup("A")
	bID, _ := st.Dict().Lookup("B")
	pa := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(aID))
	pb := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(bID))
	return st, pa, pb
}

func TestPatternDistCachedAndValid(t *testing.T) {
	st, pa, _ := catalogStore(t)
	cat := NewCatalog(st, 2, nil)
	d, m, ok := cat.PatternDist(pa)
	if !ok {
		t.Fatal("pattern with matches reported !ok")
	}
	if m != 6 {
		t.Fatalf("m: got %d want 6", m)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	d2, _, _ := cat.PatternDist(pa)
	if &d.Bounds[0] != &d2.Bounds[0] {
		t.Fatal("second PatternDist call did not hit the cache")
	}
}

func TestPatternDistEmptyPattern(t *testing.T) {
	st, pa, _ := catalogStore(t)
	cat := NewCatalog(st, 2, nil)
	missing := kg.NewPattern(pa.S, pa.P, kg.Const(kg.ID(9999)))
	// Encode a dummy so the ID space is big enough for Decode-free paths.
	st.Dict().Encode("unused-type")
	if _, _, ok := cat.PatternDist(missing); ok {
		t.Fatal("empty pattern reported ok")
	}
}

func TestExactCounter(t *testing.T) {
	st, pa, pb := catalogStore(t)
	c := ExactCounter{Store: st}
	q := kg.NewQuery(pa, pb)
	if got := c.QueryCount(q); got != 3 {
		t.Fatalf("exact count: got %d want 3", got)
	}
}

func TestEstimatedCounterIndependence(t *testing.T) {
	st, pa, pb := catalogStore(t)
	c := EstimatedCounter{Store: st}
	q := kg.NewQuery(pa, pb)
	// 6·3 / max distinct subjects (6) = 3.
	if got := c.QueryCount(q); got != 3 {
		t.Fatalf("estimated count: got %d want 3", got)
	}
	single := kg.NewQuery(pa)
	if got := c.QueryCount(single); got != 6 {
		t.Fatalf("single pattern estimate: got %d want 6", got)
	}
}

func TestQueryCountCaching(t *testing.T) {
	st, pa, pb := catalogStore(t)
	calls := 0
	cat := NewCatalog(st, 2, countFunc(func(q kg.Query) int {
		calls++
		return kg.Count(st, q)
	}))
	q := kg.NewQuery(pa, pb)
	if cat.QueryCount(q) != 3 || cat.QueryCount(q) != 3 {
		t.Fatal("wrong count")
	}
	if calls != 1 {
		t.Fatalf("counter invoked %d times, want 1", calls)
	}
	// A different query misses the cache.
	cat.QueryCount(kg.NewQuery(pa))
	if calls != 2 {
		t.Fatalf("counter invoked %d times, want 2", calls)
	}
}

type countFunc func(kg.Query) int

func (f countFunc) QueryCount(q kg.Query) int { return f(q) }

func TestQueryKeyVariableWiring(t *testing.T) {
	st, pa, _ := catalogStore(t)
	ty := pa.P
	// Path query ?x type ?y . ?y type ?z vs ?x type ?y . ?z type ?w differ
	// in wiring and must not share cache entries.
	q1 := kg.NewQuery(
		kg.NewPattern(kg.Var("x"), ty, kg.Var("y")),
		kg.NewPattern(kg.Var("y"), ty, kg.Var("z")),
	)
	q2 := kg.NewQuery(
		kg.NewPattern(kg.Var("x"), ty, kg.Var("y")),
		kg.NewPattern(kg.Var("z"), ty, kg.Var("w")),
	)
	if queryKey(q1) == queryKey(q2) {
		t.Fatal("different variable wiring produced the same query key")
	}
	// Pure renaming must share the key.
	q3 := kg.NewQuery(
		kg.NewPattern(kg.Var("a"), ty, kg.Var("b")),
		kg.NewPattern(kg.Var("b"), ty, kg.Var("c")),
	)
	if queryKey(q1) != queryKey(q3) {
		t.Fatal("variable renaming changed the query key")
	}
	_ = st
}

func TestEstimateQueryN(t *testing.T) {
	st, pa, pb := catalogStore(t)
	cat := NewCatalog(st, 2, nil)
	q := kg.NewQuery(pa, pb)
	est, ok := cat.EstimateQueryN(q, nil, 3)
	if !ok {
		t.Fatal("estimate failed")
	}
	if est.N != 3 {
		t.Fatalf("N: got %d want 3", est.N)
	}
	if math.Abs(est.Dist.Hi()-2) > 1e-9 {
		t.Fatalf("support: got %v want 2", est.Dist.Hi())
	}
	if _, ok := cat.EstimateQueryN(q, nil, 0); ok {
		t.Fatal("n=0 must fail")
	}
}

func TestEstimateQueryWeights(t *testing.T) {
	st, pa, pb := catalogStore(t)
	cat := NewCatalog(st, 2, nil)
	q := kg.NewQuery(pa, pb)
	full, _ := cat.EstimateQueryN(q, nil, 3)
	half, ok := cat.EstimateQueryN(q, []float64{0.5, 1}, 3)
	if !ok {
		t.Fatal("weighted estimate failed")
	}
	if math.Abs(half.Dist.Hi()-1.5) > 1e-9 {
		t.Fatalf("weighted support: got %v want 1.5", half.Dist.Hi())
	}
	if half.Dist.Mean() >= full.Dist.Mean() {
		t.Fatal("down-weighting must lower the expected score")
	}
}

func TestExpectedScoreAtRankMonotoneInRank(t *testing.T) {
	st, pa, pb := catalogStore(t)
	cat := NewCatalog(st, 2, nil)
	q := kg.NewQuery(pa, pb)
	prev := math.Inf(1)
	for i := 1; i <= 3; i++ {
		v, ok := cat.ExpectedScoreAtRank(q, nil, i)
		if !ok {
			t.Fatalf("rank %d: not ok", i)
		}
		if v > prev {
			t.Fatalf("rank %d estimate %v exceeds rank %d estimate %v", i, v, i-1, prev)
		}
		prev = v
	}
	if _, ok := cat.ExpectedScoreAtRank(q, nil, 4); ok {
		t.Fatal("rank beyond answer count must be !ok")
	}
}

func TestCatalogBucketsFloor(t *testing.T) {
	st, _, _ := catalogStore(t)
	cat := NewCatalog(st, 0, nil)
	if cat.Buckets() != 2 {
		t.Fatalf("bucket floor: got %d want 2", cat.Buckets())
	}
	cat8 := NewCatalog(st, 8, nil)
	if cat8.Buckets() != 8 {
		t.Fatalf("buckets: got %d want 8", cat8.Buckets())
	}
}
