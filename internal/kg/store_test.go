package kg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// musicStore builds the paper's running example: singers, lyricists,
// guitarists, pianists with popularity scores.
func musicStore(t *testing.T) (*Store, map[string]ID) {
	t.Helper()
	st := NewStore(nil)
	add := func(s, p, o string, sc float64) {
		if err := st.AddSPO(s, p, o, sc); err != nil {
			t.Fatal(err)
		}
	}
	add("shakira", "rdf:type", "singer", 100)
	add("beyonce", "rdf:type", "singer", 90)
	add("miley", "rdf:type", "singer", 50)
	add("taher", "rdf:type", "singer", 1)
	add("shakira", "rdf:type", "lyricist", 80)
	add("beyonce", "rdf:type", "lyricist", 70)
	add("prince", "rdf:type", "guitarist", 95)
	add("shakira", "rdf:type", "guitarist", 40)
	add("elton", "rdf:type", "pianist", 85)
	add("prince", "rdf:type", "vocalist", 60)
	add("miley", "rdf:type", "vocalist", 55)
	st.Freeze()
	ids := map[string]ID{}
	for _, s := range []string{"shakira", "beyonce", "miley", "taher", "prince", "elton",
		"rdf:type", "singer", "lyricist", "guitarist", "pianist", "vocalist"} {
		id, ok := st.Dict().Lookup(s)
		if !ok {
			t.Fatalf("term %q missing", s)
		}
		ids[s] = id
	}
	return st, ids
}

func typePattern(ids map[string]ID, ty string) Pattern {
	return NewPattern(Var("s"), Const(ids["rdf:type"]), Const(ids[ty]))
}

func TestStoreAddAfterFreeze(t *testing.T) {
	st := NewStore(nil)
	st.Freeze()
	if err := st.AddSPO("a", "b", "c", 1); err != ErrFrozen {
		t.Fatalf("add after freeze: got %v want ErrFrozen", err)
	}
}

func TestStoreRejectsNegativeScore(t *testing.T) {
	st := NewStore(nil)
	if err := st.AddSPO("a", "b", "c", -1); err == nil {
		t.Fatal("negative score accepted")
	}
}

func TestMatchListSortedAndFiltered(t *testing.T) {
	st, ids := musicStore(t)
	l := st.MatchList(typePattern(ids, "singer"))
	if len(l) != 4 {
		t.Fatalf("singer matches: got %d want 4", len(l))
	}
	for i := 1; i < len(l); i++ {
		if st.Triple(l[i]).Score > st.Triple(l[i-1]).Score {
			t.Fatal("match list not sorted by score descending")
		}
	}
	if got := st.Dict().Decode(st.Triple(l[0]).S); got != "shakira" {
		t.Fatalf("top singer: got %q want shakira", got)
	}
}

func TestMatchListCached(t *testing.T) {
	st, ids := musicStore(t)
	a := st.MatchList(typePattern(ids, "singer"))
	b := st.MatchList(typePattern(ids, "singer"))
	if &a[0] != &b[0] {
		t.Fatal("second MatchList call did not hit the cache")
	}
}

func TestMatchListFullyBoundPattern(t *testing.T) {
	st, ids := musicStore(t)
	p := NewPattern(Const(ids["shakira"]), Const(ids["rdf:type"]), Const(ids["singer"]))
	l := st.MatchList(p)
	if len(l) != 1 {
		t.Fatalf("fully bound match: got %d want 1", len(l))
	}
	p2 := NewPattern(Const(ids["taher"]), Const(ids["rdf:type"]), Const(ids["guitarist"]))
	if got := st.MatchList(p2); len(got) != 0 {
		t.Fatalf("absent triple matched: %v", got)
	}
}

func TestMatchListAllVariables(t *testing.T) {
	st, _ := musicStore(t)
	p := NewPattern(Var("a"), Var("b"), Var("c"))
	if got := len(st.MatchList(p)); got != st.Len() {
		t.Fatalf("full scan: got %d want %d", got, st.Len())
	}
}

func TestMatchListSubjectBound(t *testing.T) {
	st, ids := musicStore(t)
	p := NewPattern(Const(ids["shakira"]), Const(ids["rdf:type"]), Var("o"))
	if got := len(st.MatchList(p)); got != 3 {
		t.Fatalf("shakira types: got %d want 3", got)
	}
}

func TestNormalizedScores(t *testing.T) {
	st, ids := musicStore(t)
	p := typePattern(ids, "singer")
	ns := NormalizedScores(st, p)
	if len(ns) != 4 {
		t.Fatalf("got %d scores", len(ns))
	}
	if ns[0] != 1.0 {
		t.Fatalf("top normalised score: got %v want 1", ns[0])
	}
	if ns[1] != 0.9 {
		t.Fatalf("second: got %v want 0.9", ns[1])
	}
	if ns[3] != 0.01 {
		t.Fatalf("last: got %v want 0.01", ns[3])
	}
	if got := st.MaxScore(p); got != 100 {
		t.Fatalf("max score: got %v want 100", got)
	}
}

func TestNormalizedScoreEmptyPattern(t *testing.T) {
	st, ids := musicStore(t)
	absent := NewPattern(Var("s"), Const(ids["rdf:type"]), Const(ids["shakira"]))
	if got := st.MaxScore(absent); got != 0 {
		t.Fatalf("empty pattern max: got %v", got)
	}
	if got := NormalizedScores(st, absent); len(got) != 0 {
		t.Fatalf("empty pattern normalised: got %v", got)
	}
}

func TestCardinality(t *testing.T) {
	st, ids := musicStore(t)
	cases := map[string]int{"singer": 4, "lyricist": 2, "guitarist": 2, "pianist": 1, "vocalist": 2}
	for ty, want := range cases {
		if got := st.Cardinality(typePattern(ids, ty)); got != want {
			t.Errorf("cardinality(%s): got %d want %d", ty, got, want)
		}
	}
}

// TestMatchListAgainstBruteForce cross-checks the indexed match path against
// a brute-force scan on random stores and random patterns.
func TestMatchListAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		st := NewStore(nil)
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			tr := Triple{
				S:     ID(rng.Intn(10)),
				P:     ID(rng.Intn(4)),
				O:     ID(rng.Intn(10)),
				Score: float64(rng.Intn(1000)),
			}
			// Dictionary must cover the IDs used.
			for st.Dict().Len() <= int(tr.S) || st.Dict().Len() <= int(tr.O) {
				st.Dict().Encode(string(rune('a' + st.Dict().Len())))
			}
			if err := st.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
		st.Freeze()
		randTerm := func() Term {
			if rng.Intn(2) == 0 {
				return Var(string(rune('u' + rng.Intn(3))))
			}
			return Const(ID(rng.Intn(10)))
		}
		for pi := 0; pi < 20; pi++ {
			p := NewPattern(randTerm(), randTerm(), randTerm())
			got := st.MatchList(p)
			// Every shape — including fully bound patterns, which keep all
			// duplicate (s,p,o) additions — returns the complete match set
			// in score-descending, index-ascending order.
			want := 0
			for i := 0; i < st.Len(); i++ {
				if p.Matches(st.Triple(int32(i))) {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("pattern %v: got %d matches want %d", p, len(got), want)
			}
			for i := 1; i < len(got); i++ {
				a, b := st.Triple(got[i-1]), st.Triple(got[i])
				if a.Score < b.Score || (a.Score == b.Score && got[i-1] >= got[i]) {
					t.Fatalf("pattern %v: match list out of order at %d", p, i)
				}
			}
		}
	}
}

// TestMatchListSortedProperty uses testing/quick: for arbitrary score sets
// the match list is always sorted descending.
func TestMatchListSortedProperty(t *testing.T) {
	f := func(scores []float64) bool {
		st := NewStore(nil)
		for i, s := range scores {
			if s < 0 {
				s = -s
			}
			if s != s || s > 1e15 { // NaN or absurd
				s = 1
			}
			_ = i
			if err := st.AddSPO("e", "p", "o", s); err != nil {
				return false
			}
		}
		st.Freeze()
		p := NewPattern(Var("s"), Var("p"), Var("o"))
		l := st.MatchList(p)
		for i := 1; i < len(l); i++ {
			if st.Triple(l[i]).Score > st.Triple(l[i-1]).Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
