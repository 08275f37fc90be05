package exec

import (
	"math"
	"testing"

	"specqp/internal/kg"
	"specqp/internal/planner"
	"specqp/internal/relax"
	"specqp/internal/stats"
)

// chainWorld: querying 〈?s hasGrandparent ?g〉 joined with a type pattern;
// hasGrandparent triples are scarce, but hasParent chains derive more.
func chainWorld(t *testing.T) (*kg.Store, *relax.RuleSet, kg.Query) {
	t.Helper()
	st := kg.NewStore(nil)
	add := func(s, p, o string, sc float64) {
		if err := st.AddSPO(s, p, o, sc); err != nil {
			t.Fatal(err)
		}
	}
	// Direct grandparent facts: only one, low score.
	add("zed", "hasGrandparent", "gzed", 2)
	add("zed", "rdf:type", "person", 5)
	// Parent chains for alice and bob.
	add("alice", "hasParent", "pa", 10)
	add("pa", "hasParent", "ga", 9)
	add("bob", "hasParent", "pb", 7)
	add("pb", "hasParent", "gb", 6)
	add("alice", "rdf:type", "person", 10)
	add("bob", "rdf:type", "person", 8)
	st.Freeze()
	d := st.Dict()
	hg, _ := d.Lookup("hasGrandparent")
	hp, _ := d.Lookup("hasParent")
	ty, _ := d.Lookup("rdf:type")
	person, _ := d.Lookup("person")

	rules := relax.NewRuleSet()
	err := rules.Add(relax.Rule{
		From: kg.NewPattern(kg.Var("s"), kg.Const(hg), kg.Var("g")),
		Chain: []kg.Pattern{
			kg.NewPattern(kg.Var("s"), kg.Const(hp), kg.Var("m")),
			kg.NewPattern(kg.Var("m"), kg.Const(hp), kg.Var("g")),
		},
		Weight: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := kg.NewQuery(
		kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(person)),
		kg.NewPattern(kg.Var("s"), kg.Const(hg), kg.Var("g")),
	)
	return st, rules, q
}

func TestChainRelaxationTriniT(t *testing.T) {
	st, rules, q := chainWorld(t)
	ex := New(st, rules)
	res := run(ex, planner.TriniTPlan(q, 10))
	// Answers: zed via the direct fact; alice and bob via the chain.
	if len(res.Answers) != 3 {
		t.Fatalf("answers: got %d want 3", len(res.Answers))
	}
	d := st.Dict()
	alice, _ := d.Lookup("alice")
	// alice: type 10/10 = 1.0; chain avg (10/10 + 9/10)/2 = 0.95, ×0.8 = 0.76
	// → total 1.76, the best answer.
	top := res.Answers[0]
	if top.Binding[0] != alice {
		t.Fatalf("top answer binding: %v", top.Binding)
	}
	if math.Abs(top.Score-1.76) > 1e-9 {
		t.Fatalf("alice score: got %v want 1.76", top.Score)
	}
	if top.Relaxed != 0b10 {
		t.Fatalf("alice relaxed mask: %b want 10", top.Relaxed)
	}
}

func TestChainRelaxationTriniTMatchesNaive(t *testing.T) {
	st, rules, q := chainWorld(t)
	ex := New(st, rules)
	for _, k := range []int{1, 2, 3, 10} {
		tr := run(ex, planner.TriniTPlan(q, k))
		nv := ex.Naive(q, k, 0)
		if len(tr.Answers) != len(nv.Answers) {
			t.Fatalf("k=%d: TriniT %d vs Naive %d answers", k, len(tr.Answers), len(nv.Answers))
		}
		for i := range tr.Answers {
			if math.Abs(tr.Answers[i].Score-nv.Answers[i].Score) > 1e-9 {
				t.Fatalf("k=%d rank %d: %v vs %v", k, i, tr.Answers[i].Score, nv.Answers[i].Score)
			}
		}
	}
}

func TestChainRelaxationSpecQP(t *testing.T) {
	st, rules, q := chainWorld(t)
	ex := New(st, rules)
	pl := planner.New(stats.NewCatalog(st, 2, nil), rules)
	// Original query has 1 answer; at k=3 the chain must be speculated.
	res := run(ex, pl.Plan(q, 3))
	if got := res.Plan.RelaxMask(); got&0b10 == 0 {
		t.Fatalf("chain pattern not relaxed: mask %b", got)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("answers: got %d want 3", len(res.Answers))
	}
	tr := run(ex, planner.TriniTPlan(q, 3))
	for i := range tr.Answers {
		if math.Abs(res.Answers[i].Score-tr.Answers[i].Score) > 1e-9 {
			t.Fatalf("rank %d: spec %v vs trinit %v", i, res.Answers[i].Score, tr.Answers[i].Score)
		}
	}
}

func TestChainRelaxationPlannerExplain(t *testing.T) {
	st, rules, q := chainWorld(t)
	pl := planner.New(stats.NewCatalog(st, 2, nil), rules)
	p := pl.Plan(q, 3)
	out := pl.Explain(p)
	if out == "" {
		t.Fatal("empty explain")
	}
	// Chain rendering must not panic and should mention the chain.
	if !containsAll(out, "chain") {
		t.Fatalf("explain does not render the chain rule:\n%s", out)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
