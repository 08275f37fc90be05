package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"specqp/internal/kg"
	"specqp/internal/planner"
	"specqp/internal/relax"
	"specqp/internal/stats"
)

// pathWorld builds a random social graph for path-query tests: the star-join
// workloads elsewhere never exercise joins whose patterns bind different
// variable pairs, so these tests cover the general join path (multi-variable
// bindings, join keys over intermediate variables).
func pathWorld(t *testing.T, rng *rand.Rand, people int) (*kg.Store, *relax.RuleSet, kg.ID, kg.ID) {
	t.Helper()
	st := kg.NewStore(nil)
	d := st.Dict()
	knows := d.Encode("knows")
	admires := d.Encode("admires")
	for i := 0; i < people; i++ {
		from := d.Encode(fmt.Sprintf("p%d", i))
		edges := 1 + rng.Intn(4)
		for e := 0; e < edges; e++ {
			to := d.Encode(fmt.Sprintf("p%d", rng.Intn(people)))
			pred := knows
			if rng.Intn(3) == 0 {
				pred = admires
			}
			if err := st.Add(kg.Triple{S: from, P: pred, O: to, Score: float64(1 + rng.Intn(1000))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Freeze()
	rules := relax.NewRuleSet()
	// knows may relax to admires and vice versa.
	err := rules.Add(relax.Rule{
		From:   kg.NewPattern(kg.Var("a"), kg.Const(knows), kg.Var("b")),
		To:     kg.NewPattern(kg.Var("a"), kg.Const(admires), kg.Var("b")),
		Weight: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = rules.Add(relax.Rule{
		From:   kg.NewPattern(kg.Var("a"), kg.Const(admires), kg.Var("b")),
		To:     kg.NewPattern(kg.Var("a"), kg.Const(knows), kg.Var("b")),
		Weight: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, rules, knows, admires
}

// TestPathQueryTriniTMatchesNaive is the differential test over two-hop path
// queries ?x knows ?y . ?y knows ?z — multi-variable join keys.
func TestPathQueryTriniTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		st, rules, knows, admires := pathWorld(t, rng, 25+rng.Intn(25))
		ex := New(st, rules)
		queries := []kg.Query{
			{Patterns: []kg.Pattern{
				kg.NewPattern(kg.Var("x"), kg.Const(knows), kg.Var("y")),
				kg.NewPattern(kg.Var("y"), kg.Const(knows), kg.Var("z")),
			}},
			{Patterns: []kg.Pattern{
				kg.NewPattern(kg.Var("x"), kg.Const(knows), kg.Var("y")),
				kg.NewPattern(kg.Var("y"), kg.Const(admires), kg.Var("z")),
			}},
			{Patterns: []kg.Pattern{
				kg.NewPattern(kg.Var("x"), kg.Const(knows), kg.Var("y")),
				kg.NewPattern(kg.Var("y"), kg.Const(knows), kg.Var("z")),
				kg.NewPattern(kg.Var("z"), kg.Const(admires), kg.Var("w")),
			}},
		}
		for qi, q := range queries {
			for _, k := range []int{1, 5, 20} {
				tr := run(ex, planner.TriniTPlan(q, k))
				nv := ex.Naive(q, k, 0)
				if len(tr.Answers) != len(nv.Answers) {
					t.Fatalf("trial %d q%d k=%d: TriniT %d vs Naive %d answers",
						trial, qi, k, len(tr.Answers), len(nv.Answers))
				}
				for i := range tr.Answers {
					if math.Abs(tr.Answers[i].Score-nv.Answers[i].Score) > 1e-9 {
						t.Fatalf("trial %d q%d k=%d rank %d: %v vs %v",
							trial, qi, k, i, tr.Answers[i].Score, nv.Answers[i].Score)
					}
				}
			}
		}
	}
}

// TestPathQuerySpecQPValid checks that Spec-QP on path queries returns
// genuine, correctly scored answers (scores never exceed the best
// derivation) and plans that partition the patterns.
func TestPathQuerySpecQPValid(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	st, rules, knows, _ := pathWorld(t, rng, 40)
	ex := New(st, rules)
	pl := planner.New(stats.NewCatalog(st, 2, nil), rules)
	q := kg.Query{Patterns: []kg.Pattern{
		kg.NewPattern(kg.Var("x"), kg.Const(knows), kg.Var("y")),
		kg.NewPattern(kg.Var("y"), kg.Const(knows), kg.Var("z")),
	}}
	res := run(ex, pl.Plan(q, 10))
	if got := len(res.Plan.JoinGroup) + len(res.Plan.Singletons); got != 2 {
		t.Fatalf("plan covers %d patterns", got)
	}
	nv := ex.Naive(q, 1<<20, 0)
	best := map[string]float64{}
	for _, a := range nv.Answers {
		best[a.Binding.Key()] = a.Score
	}
	for i, a := range res.Answers {
		want, ok := best[a.Binding.Key()]
		if !ok {
			t.Fatalf("rank %d: non-answer", i)
		}
		if a.Score > want+1e-9 {
			t.Fatalf("rank %d: score %v exceeds best derivation %v", i, a.Score, want)
		}
	}
}

// TestPathQueryJoinOnSubjectAndObject exercises a cyclic query where the
// first and last patterns share a variable: ?x knows ?y . ?y knows ?x.
func TestPathQueryCycle(t *testing.T) {
	st := kg.NewStore(nil)
	add := func(s, o string, sc float64) {
		if err := st.AddSPO(s, "knows", o, sc); err != nil {
			t.Fatal(err)
		}
	}
	add("a", "b", 10)
	add("b", "a", 9)
	add("a", "c", 8)
	add("c", "d", 7)
	st.Freeze()
	knows, _ := st.Dict().Lookup("knows")
	q := kg.Query{Patterns: []kg.Pattern{
		kg.NewPattern(kg.Var("x"), kg.Const(knows), kg.Var("y")),
		kg.NewPattern(kg.Var("y"), kg.Const(knows), kg.Var("x")),
	}}
	ex := New(st, relax.NewRuleSet())
	res := run(ex, planner.TriniTPlan(q, 10))
	// Cycles: (a,b) and (b,a).
	if len(res.Answers) != 2 {
		t.Fatalf("cycles: got %d want 2", len(res.Answers))
	}
	ref := st.Evaluate(q)
	if len(ref) != 2 {
		t.Fatalf("evaluate cycles: got %d want 2", len(ref))
	}
	for i := range ref {
		if math.Abs(res.Answers[i].Score-ref[i].Score) > 1e-9 {
			t.Fatalf("rank %d: %v vs %v", i, res.Answers[i].Score, ref[i].Score)
		}
	}
}
