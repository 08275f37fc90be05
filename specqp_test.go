package specqp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// engineFixture builds the quickstart KG: singers/guitarists with two
// relaxation rules.
func engineFixture(t *testing.T) (*Engine, Query) {
	t.Helper()
	st := NewStore()
	triples := []struct {
		s, o  string
		score float64
	}{
		{"shakira", "singer", 100}, {"beyonce", "singer", 90}, {"miley", "singer", 50},
		{"prince", "vocalist", 95}, {"elton", "vocalist", 85},
		{"shakira", "guitarist", 40}, {"prince", "guitarist", 99},
		{"miley", "musician", 45}, {"beyonce", "musician", 70},
	}
	for _, tr := range triples {
		if err := st.AddSPO(tr.s, "rdf:type", tr.o, tr.score); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	d := st.Dict()
	ty, _ := d.Lookup("rdf:type")
	pat := func(o string) Pattern {
		id, _ := d.Lookup(o)
		return NewPattern(Var("s"), Const(ty), Const(id))
	}
	rules := NewRuleSet()
	if err := rules.Add(Rule{From: pat("singer"), To: pat("vocalist"), Weight: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := rules.Add(Rule{From: pat("guitarist"), To: pat("musician"), Weight: 0.7}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st, rules)
	q := NewQuery(pat("singer"), pat("guitarist"))
	return eng, q
}

func TestEngineModesAgreeOnTruth(t *testing.T) {
	eng, q := engineFixture(t)
	tr, err := eng.Query(q, 3, ModeTriniT)
	if err != nil {
		t.Fatal(err)
	}
	nv := naiveQuery(eng, q, 3)
	if len(tr.Answers) != 3 || len(nv.Answers) != 3 {
		t.Fatalf("answer counts: trinit=%d naive=%d", len(tr.Answers), len(nv.Answers))
	}
	for i := range tr.Answers {
		if math.Abs(tr.Answers[i].Score-nv.Answers[i].Score) > 1e-9 {
			t.Fatalf("rank %d: trinit %v vs naive %v", i, tr.Answers[i].Score, nv.Answers[i].Score)
		}
	}
	// Only shakira matches the original query; prince wins via relaxations:
	// vocalist 0.8·1 + guitarist 1.0 = 1.8.
	top := eng.DecodeAnswer(q, tr.Answers[0])
	if top["s"] != "prince" {
		t.Fatalf("top answer: %v", top)
	}
	if math.Abs(tr.Answers[0].Score-1.8) > 1e-9 {
		t.Fatalf("prince score: %v want 1.8", tr.Answers[0].Score)
	}
}

func TestEngineSpecQPMode(t *testing.T) {
	eng, q := engineFixture(t)
	res, err := eng.Query(q, 3, ModeSpecQP)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	if res.PlanTime <= 0 {
		t.Fatal("planning time not recorded")
	}
	if len(res.Plan.Decisions) != 2 {
		t.Fatalf("decisions: %d", len(res.Plan.Decisions))
	}
}

func TestEngineParseSPARQL(t *testing.T) {
	eng, _ := engineFixture(t)
	q, err := eng.ParseSPARQL(`SELECT ?s WHERE { ?s 'rdf:type' <singer> . ?s 'rdf:type' <guitarist> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 2 {
		t.Fatalf("patterns: %d", len(q.Patterns))
	}
	if _, err := eng.ParseSPARQL("garbage"); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestEngineQueryValidation(t *testing.T) {
	eng, q := engineFixture(t)
	if _, err := eng.Query(q, 0, ModeSpecQP); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := eng.Query(NewQuery(), 5, ModeSpecQP); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := eng.Query(q, 5, Mode(99)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestEngineExplain(t *testing.T) {
	eng, q := engineFixture(t)
	out := eng.Explain(eng.PlanQuery(q, 3))
	if !strings.Contains(out, "plan:") {
		t.Fatalf("explain output: %s", out)
	}
}

func TestEnginePatternStats(t *testing.T) {
	eng, q := engineFixture(t)
	ps, err := eng.PatternStats(q.Patterns[0])
	if err != nil {
		t.Fatal(err)
	}
	if ps.M != 3 {
		t.Fatalf("singer matches: got %d want 3", ps.M)
	}
	if ps.SigmaR <= 0 || ps.SigmaR > 1 {
		t.Fatalf("sigma: %v", ps.SigmaR)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeSpecQP: "spec-qp", ModeTriniT: "trinit", ModeExact: "exact", Mode(9): "Mode(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("%d: got %q want %q", int(m), got, want)
		}
	}
}

// TestParseMode pins the wire spellings: every served mode round-trips
// through String, and the retired "naive" spelling is rejected with an error
// that names the valid modes.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeSpecQP, ModeTriniT, ModeExact} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParseMode("specqp"); err != nil || got != ModeSpecQP {
		t.Errorf("ParseMode(specqp) = %v, %v", got, err)
	}
	for _, s := range []string{"naive", "", "Mode(9)"} {
		_, err := ParseMode(s)
		if err == nil {
			t.Fatalf("ParseMode(%q) accepted", s)
		}
		if !strings.Contains(err.Error(), "spec-qp, trinit or exact") {
			t.Fatalf("ParseMode(%q) error does not name the valid modes: %v", s, err)
		}
	}
}

func TestMiners(t *testing.T) {
	st := NewStore()
	for _, tw := range []struct{ id, tag string }{
		{"t1", "a"}, {"t1", "b"}, {"t2", "a"}, {"t2", "b"}, {"t3", "a"},
	} {
		if err := st.AddSPO(tw.id, "hasTag", tw.tag, 1); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	tag, _ := st.Dict().Lookup("hasTag")
	rules, err := MineCooccurrence(st, tag, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rules.Len() == 0 {
		t.Fatal("no rules mined")
	}
	a, _ := st.Dict().Lookup("a")
	top, ok := rules.Top(NewPattern(Var("s"), Const(tag), Const(a)))
	if !ok || math.Abs(top.Weight-2.0/3) > 1e-9 {
		t.Fatalf("a→b weight: %v ok=%v", top.Weight, ok)
	}

	// Type-hierarchy miner through the facade.
	st2 := NewStore()
	if err := st2.AddSPO("x", "rdf:type", "singer", 1); err != nil {
		t.Fatal(err)
	}
	st2.Freeze()
	ty, _ := st2.Dict().Lookup("rdf:type")
	singer, _ := st2.Dict().Lookup("singer")
	musician := st2.Dict().Encode("musician")
	hier, err := MineTypeHierarchy(st2, TypeHierarchy{
		TypePred:   ty,
		SubclassOf: map[ID][]ID{singer: {musician}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hier.Len() != 1 {
		t.Fatalf("hierarchy rules: %d", hier.Len())
	}
}

func TestEngineOptions(t *testing.T) {
	eng, q := engineFixture(t)
	_ = eng
	st := NewStore()
	if err := st.AddSPO("a", "p", "b", 1); err != nil {
		t.Fatal(err)
	}
	// NewEngineWith must freeze an unfrozen store and honour options.
	e2 := NewEngineWith(st, NewRuleSet(), Options{
		HistogramBuckets:     4,
		EstimatedSelectivity: true,
	})
	if !e2.Store().Frozen() {
		t.Fatal("engine did not freeze the store")
	}
	_ = q
}

func TestDecodeAnswer(t *testing.T) {
	eng, q := engineFixture(t)
	res, err := eng.Query(q, 1, ModeTriniT)
	if err != nil {
		t.Fatal(err)
	}
	vars := eng.DecodeAnswer(q, res.Answers[0])
	if vars["s"] == "" {
		t.Fatalf("decode: %v", vars)
	}
}

func TestEngineQuerySPARQL(t *testing.T) {
	eng, _ := engineFixture(t)
	res, err := eng.QuerySPARQL(`SELECT ?s WHERE {
		?s 'rdf:type' <singer> . ?s 'rdf:type' <guitarist> } LIMIT 2`, ModeTriniT)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("LIMIT 2: got %d answers", len(res.Answers))
	}
	// Without LIMIT, DefaultK applies.
	res2, err := eng.QuerySPARQL(`SELECT ?s WHERE {
		?s 'rdf:type' <singer> . ?s 'rdf:type' <guitarist> }`, ModeTriniT)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Answers) > DefaultK {
		t.Fatalf("default k exceeded: %d", len(res2.Answers))
	}
	if _, err := eng.QuerySPARQL(`garbage`, ModeTriniT); err == nil {
		t.Fatal("bad SPARQL accepted")
	}
}

func TestEngineQueryContext(t *testing.T) {
	eng, q := engineFixture(t)
	res, err := eng.QueryContext(context.Background(), q, 3, ModeSpecQP)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryContext(ctx, q, 3, ModeTriniT); err != context.Canceled {
		t.Fatalf("cancelled context: err=%v", err)
	}
	if _, err := eng.QueryContext(context.Background(), q, 0, ModeSpecQP); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := eng.QueryContext(context.Background(), NewQuery(), 3, ModeSpecQP); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := eng.QueryContext(context.Background(), q, 3, Mode(42)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestHugeKReturnsEveryAnswer pins that k is an upper bound, not a size: with
// k = math.MaxInt every entry point returns the whole answer set instead of
// failing to allocate k slots up front.
func TestHugeKReturnsEveryAnswer(t *testing.T) {
	eng, q := engineFixture(t)
	ctx := context.Background()
	got, all := naiveQuery(eng, q, math.MaxInt), naiveQuery(eng, q, 1000)
	sameAnswers(t, "naive reference at k=MaxInt", got.Answers, all.Answers)
	for _, mode := range []Mode{ModeSpecQP, ModeTriniT, ModeExact} {
		want, err := eng.Query(q, 1000, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Answers) == 0 {
			t.Fatalf("%v: fixture has no answers", mode)
		}
		query, err := eng.Query(q, math.MaxInt, mode)
		if err != nil {
			t.Fatalf("%v Query: %v", mode, err)
		}
		qctx, err := eng.QueryContext(ctx, q, math.MaxInt, mode)
		if err != nil {
			t.Fatalf("%v QueryContext: %v", mode, err)
		}
		var streamed []Answer
		qs, err := eng.QueryStream(ctx, q, math.MaxInt, mode, func(a Answer) bool {
			streamed = append(streamed, a)
			return true
		})
		if err != nil {
			t.Fatalf("%v QueryStream: %v", mode, err)
		}
		batch, err := eng.QueryBatch(ctx, []Query{q}, math.MaxInt, mode)
		if err != nil || batch[0].Err != nil {
			t.Fatalf("%v QueryBatch: %v / %v", mode, err, batch[0].Err)
		}
		for name, got := range map[string][]Answer{
			"Query": query.Answers, "QueryContext": qctx.Answers, "QueryStream": qs.Answers,
			"QueryStream (emitted)": streamed, "QueryBatch": batch[0].Result.Answers,
		} {
			if len(got) != len(want.Answers) {
				t.Fatalf("%v %s: %d answers, want all %d", mode, name, len(got), len(want.Answers))
			}
			for i := range got {
				if got[i].Score != want.Answers[i].Score {
					t.Fatalf("%v %s: answer %d score %v, want %v", mode, name, i, got[i].Score, want.Answers[i].Score)
				}
			}
		}
	}
}

// TestEntryPointsAgree is the entry-point agreement oracle: Query,
// QueryContext, QueryStream, QueryTraced, QueryBatch and QueryBatchStream all
// execute one query path, so for every mode, shard count and k they return
// bit-identical answers, the same plan partition and the same memory-object
// count.
func TestEntryPointsAgree(t *testing.T) {
	ctx := context.Background()
	st, rules, queries := randomEngineFixture(t, 6600)
	keep := func(int, Answer) bool { return true }
	for _, shards := range []int{1, 3} {
		eng := NewEngineWith(st, rules, Options{Shards: shards, BatchWorkers: 2})
		for _, mode := range streamOracleModes {
			for _, k := range []int{1, 4, 9, math.MaxInt} {
				label := fmt.Sprintf("shards=%d mode %v k=%d", shards, mode, k)
				batch, err := eng.QueryBatch(ctx, queries, k, mode)
				if err != nil {
					t.Fatalf("%s: QueryBatch: %v", label, err)
				}
				batchStream, err := eng.QueryBatchStream(ctx, queries, k, mode, keep)
				if err != nil {
					t.Fatalf("%s: QueryBatchStream: %v", label, err)
				}
				for qi, q := range queries {
					want, err := eng.Query(q, k, mode)
					if err != nil {
						t.Fatalf("%s query %d: Query: %v", label, qi, err)
					}
					got := map[string]BatchResult{
						"QueryBatch":       batch[qi],
						"QueryBatchStream": batchStream[qi],
					}
					var r BatchResult
					r.Result, r.Err = eng.QueryContext(ctx, q, k, mode)
					got["QueryContext"] = r
					r.Result, r.Err = eng.QueryStream(ctx, q, k, mode, func(Answer) bool { return true })
					got["QueryStream"] = r
					r.Result, r.Err = eng.QueryTraced(ctx, q, k, mode)
					got["QueryTraced"] = r
					for name, g := range got {
						l := fmt.Sprintf("%s query %d %s", label, qi, name)
						if g.Err != nil {
							t.Fatalf("%s: %v", l, g.Err)
						}
						sameAnswers(t, l, g.Result.Answers, want.Answers)
						if !slices.Equal(g.Result.Plan.JoinGroup, want.Plan.JoinGroup) ||
							!slices.Equal(g.Result.Plan.Singletons, want.Plan.Singletons) {
							t.Fatalf("%s: plan %v/%v, want %v/%v", l, g.Result.Plan.JoinGroup,
								g.Result.Plan.Singletons, want.Plan.JoinGroup, want.Plan.Singletons)
						}
						if g.Result.MemoryObjects != want.MemoryObjects {
							t.Fatalf("%s: %d memory objects, want %d", l, g.Result.MemoryObjects, want.MemoryObjects)
						}
					}
				}
			}
		}
	}
}
