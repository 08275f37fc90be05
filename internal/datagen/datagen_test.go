package datagen

import (
	"math"
	"sync"
	"testing"

	"specqp/internal/kg"
)

// Small configurations keep unit tests fast; the experiment harness uses the
// paper-sized defaults. Generated datasets are cached per seed — generation
// is deterministic, so sharing is safe (TestXKGDeterministic regenerates
// explicitly via smallXKGFresh).
var (
	cacheMu  sync.Mutex
	xkgCache = map[int64]*Dataset{}
	twCache  = map[int64]*Dataset{}
)

func smallXKGFresh(t *testing.T, seed int64) *Dataset {
	t.Helper()
	ds, err := XKG(XKGConfig{
		Seed:            seed,
		Entities:        4000,
		Groups:          4,
		TypesPerGroup:   12,
		Queries:         12,
		RelationTriples: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallXKG(t *testing.T, seed int64) *Dataset {
	t.Helper()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if ds, ok := xkgCache[seed]; ok {
		return ds
	}
	ds := smallXKGFresh(t, seed)
	xkgCache[seed] = ds
	return ds
}

func smallTwitterFresh(t *testing.T, seed int64) *Dataset {
	t.Helper()
	ds, err := Twitter(TwitterConfig{
		Seed:    seed,
		Tweets:  4000,
		Terms:   120,
		Queries: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallTwitter(t *testing.T, seed int64) *Dataset {
	t.Helper()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if ds, ok := twCache[seed]; ok {
		return ds
	}
	ds := smallTwitterFresh(t, seed)
	twCache[seed] = ds
	return ds
}

func TestXKGDeterministic(t *testing.T) {
	a := smallXKGFresh(t, 5)
	b := smallXKGFresh(t, 5)
	if a.Store.Len() != b.Store.Len() {
		t.Fatalf("same seed, different sizes: %d vs %d", a.Store.Len(), b.Store.Len())
	}
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("same seed, different query counts")
	}
	for i := range a.Queries {
		if a.Store.Dict().QueryString(a.Queries[i].Query) != b.Store.Dict().QueryString(b.Queries[i].Query) {
			t.Fatalf("query %d differs between identical seeds", i)
		}
	}
	c := smallXKGFresh(t, 6)
	if a.Store.Len() == c.Store.Len() && a.Store.Dict().QueryString(a.Queries[0].Query) == c.Store.Dict().QueryString(c.Queries[0].Query) {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestXKGWorkloadShape(t *testing.T) {
	ds := smallXKG(t, 5)
	byTP := ds.QueriesByPatternCount()
	for tp := range byTP {
		if tp < 2 || tp > 4 {
			t.Fatalf("query with %d patterns (want 2-4)", tp)
		}
	}
	// Every query must be non-empty (paper: queries "constructed so as to
	// have non-empty result sets").
	for i, qs := range ds.Queries {
		if kg.Count(ds.Store, qs.Query) == 0 {
			t.Fatalf("query %d (%s) has no answers", i, qs.Name)
		}
		if qs.Name == "" {
			t.Fatalf("query %d unnamed", i)
		}
	}
}

func TestXKGRelaxationFanout(t *testing.T) {
	ds := smallXKG(t, 5)
	// The paper requires ≥10 relaxations per query triple pattern.
	for i, qs := range ds.Queries {
		for j, p := range qs.Query.Patterns {
			if got := len(ds.Rules.For(p)); got < 10 {
				t.Fatalf("query %d pattern %d: %d relaxations (<10)", i, j, got)
			}
		}
	}
}

func TestXKGScoresPowerLaw(t *testing.T) {
	ds := smallXKG(t, 5)
	// 80/20-ish: the top 30%% of triples should hold well over half the
	// score mass.
	var scores []float64
	for i := 0; i < ds.Store.Len(); i++ {
		scores = append(scores, ds.Store.Triple(int32(i)).Score)
	}
	sortDesc(scores)
	total, top := 0.0, 0.0
	for i, s := range scores {
		total += s
		if i < len(scores)*3/10 {
			top += s
		}
	}
	if top/total < 0.55 {
		t.Fatalf("score distribution not skewed enough: top 30%%%% holds %.0f%%%%", 100*top/total)
	}
}

func sortDesc(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestXKGRuleWeightsValid(t *testing.T) {
	ds := smallXKG(t, 5)
	for _, qs := range ds.Queries {
		for _, p := range qs.Query.Patterns {
			for _, r := range ds.Rules.For(p) {
				if r.Weight <= 0 || r.Weight > 1 {
					t.Fatalf("rule weight %v outside (0,1]", r.Weight)
				}
			}
			rules := ds.Rules.For(p)
			for i := 1; i < len(rules); i++ {
				if rules[i].Weight > rules[i-1].Weight {
					t.Fatal("rules not sorted by weight")
				}
			}
		}
	}
}

func TestTwitterDeterministic(t *testing.T) {
	a := smallTwitterFresh(t, 3)
	b := smallTwitterFresh(t, 3)
	if a.Store.Len() != b.Store.Len() || len(a.Queries) != len(b.Queries) {
		t.Fatal("same seed produced different datasets")
	}
}

func TestTwitterWorkloadShape(t *testing.T) {
	ds := smallTwitter(t, 3)
	for i, qs := range ds.Queries {
		np := len(qs.Query.Patterns)
		if np < 2 || np > 3 {
			t.Fatalf("query %d has %d patterns (want 2-3)", i, np)
		}
		if kg.Count(ds.Store, qs.Query) == 0 {
			t.Fatalf("query %d empty", i)
		}
		// ≥5 relaxations per pattern (paper).
		for j, p := range qs.Query.Patterns {
			if got := len(ds.Rules.For(p)); got < 5 {
				t.Fatalf("query %d pattern %d: %d relaxations (<5)", i, j, got)
			}
		}
	}
}

func TestTwitterCooccurrenceWeightsMatchData(t *testing.T) {
	ds := smallTwitter(t, 3)
	st := ds.Store
	hasTag, _ := st.Dict().Lookup("hasTag")
	// Spot check: recompute w = #tweets(T1∧T2)/#tweets(T1) for the top rule
	// of the first query's first pattern.
	p := ds.Queries[0].Query.Patterns[0]
	rule, ok := ds.Rules.Top(p)
	if !ok {
		t.Fatal("no top rule")
	}
	t1 := p.O.ID
	t2 := rule.To.O.ID
	subjectsWith := func(term kg.ID) map[kg.ID]bool {
		out := map[kg.ID]bool{}
		for _, ti := range st.MatchList(kg.NewPattern(kg.Var("s"), kg.Const(hasTag), kg.Const(term))) {
			out[st.Triple(ti).S] = true
		}
		return out
	}
	s1 := subjectsWith(t1)
	s2 := subjectsWith(t2)
	both := 0
	for s := range s1 {
		if s2[s] {
			both++
		}
	}
	want := float64(both) / float64(len(s1))
	if want > 1 {
		want = 1
	}
	if math.Abs(rule.Weight-want) > 1e-9 {
		t.Fatalf("top rule weight %v, recomputed %v", rule.Weight, want)
	}
}

func TestTwitterScoresAreRetweetsPerTweet(t *testing.T) {
	ds := smallTwitter(t, 3)
	st := ds.Store
	// All triples of one tweet share the same score (the tweet's retweets).
	perSubject := map[kg.ID]float64{}
	for i := 0; i < st.Len(); i++ {
		tr := st.Triple(int32(i))
		if prev, ok := perSubject[tr.S]; ok && prev != tr.Score {
			t.Fatalf("tweet %d has triples with scores %v and %v", tr.S, prev, tr.Score)
		}
		perSubject[tr.S] = tr.Score
	}
}

func TestQueriesByPatternCount(t *testing.T) {
	ds := smallXKG(t, 5)
	byTP := ds.QueriesByPatternCount()
	total := 0
	for _, idxs := range byTP {
		total += len(idxs)
	}
	if total != len(ds.Queries) {
		t.Fatalf("grouping lost queries: %d vs %d", total, len(ds.Queries))
	}
}

func TestXKGTinyConfigStillFillsWorkload(t *testing.T) {
	// With 60 entities there are almost no plentiful type combinations; the
	// generator's spill valve must still deliver the requested number of
	// (scarce) queries rather than looping forever or under-filling.
	ds, err := XKG(XKGConfig{Seed: 1, Entities: 60, Groups: 2, TypesPerGroup: 12, Queries: 6, RelationTriples: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Queries) != 6 {
		t.Fatalf("tiny config produced %d queries, want 6", len(ds.Queries))
	}
}
