package planner

import (
	"strings"
	"testing"

	"specqp/internal/kg"
	"specqp/internal/relax"
	"specqp/internal/stats"
)

// planStore builds a KG where pattern A has many strong answers and pattern
// B is scarce, with a strong relaxation B→C available.
func planStore(t *testing.T) (*kg.Store, *relax.RuleSet, kg.Pattern, kg.Pattern) {
	t.Helper()
	st := kg.NewStore(nil)
	add := func(s, o string, sc float64) {
		if err := st.AddSPO(s, "type", o, sc); err != nil {
			t.Fatal(err)
		}
	}
	// 40 entities typed A with slowly decaying scores.
	for i := 0; i < 40; i++ {
		add(ent(i), "A", 100-float64(i))
	}
	// The same 40 entities typed B (so A⋈B has 40 answers)…
	for i := 0; i < 40; i++ {
		add(ent(i), "B", 90-float64(i))
	}
	// …and typed C with very strong scores for a *different* population mix,
	// making B→C a tempting relaxation.
	for i := 0; i < 40; i++ {
		add(ent(i), "C", 200-float64(i))
	}
	st.Freeze()
	d := st.Dict()
	ty, _ := d.Lookup("type")
	a, _ := d.Lookup("A")
	b, _ := d.Lookup("B")
	c, _ := d.Lookup("C")
	pa := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(a))
	pb := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(b))
	pc := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(c))
	rules := relax.NewRuleSet()
	if err := rules.Add(relax.Rule{From: pb, To: pc, Weight: 0.9}); err != nil {
		t.Fatal(err)
	}
	return st, rules, pa, pb
}

func ent(i int) string { return "e" + string(rune('A'+i/26)) + string(rune('a'+i%26)) }

func newPlanner(st *kg.Store, rules *relax.RuleSet) *Planner {
	return New(stats.NewCatalog(st, 2, nil), rules)
}

func TestPlanPartitionInvariants(t *testing.T) {
	st, rules, pa, pb := planStore(t)
	pl := newPlanner(st, rules)
	q := kg.NewQuery(pa, pb)
	for _, k := range []int{1, 5, 10, 20, 50} {
		p := pl.Plan(q, k)
		// Join group and singletons partition the pattern indexes.
		seen := map[int]bool{}
		for _, i := range append(append([]int{}, p.JoinGroup...), p.Singletons...) {
			if seen[i] {
				t.Fatalf("k=%d: index %d appears twice", k, i)
			}
			seen[i] = true
		}
		if len(seen) != len(q.Patterns) {
			t.Fatalf("k=%d: partition covers %d of %d patterns", k, len(seen), len(q.Patterns))
		}
		if len(p.Decisions) != len(q.Patterns) {
			t.Fatalf("k=%d: %d decisions", k, len(p.Decisions))
		}
	}
}

func TestPlanNoRulesMeansJoinGroup(t *testing.T) {
	st, rules, pa, pb := planStore(t)
	pl := newPlanner(st, rules)
	q := kg.NewQuery(pa, pb)
	p := pl.Plan(q, 10)
	// Pattern A has no rules: always join group.
	for _, i := range p.Singletons {
		if i == 0 {
			t.Fatal("pattern without rules was marked for relaxation")
		}
	}
	if !p.Decisions[0].HasRule == false && p.Decisions[0].Relax {
		t.Fatal("ruleless pattern relaxed")
	}
}

func TestPlanScarceQueryRelaxes(t *testing.T) {
	st, rules, pa, pb := planStore(t)
	pl := newPlanner(st, rules)
	q := kg.NewQuery(pa, pb)
	// k far beyond the original 40 answers: B must be relaxed.
	p := pl.Plan(q, 50)
	if !p.EQkOK && p.EQk != 0 {
		t.Fatal("EQk must be 0 when the original query cannot reach k")
	}
	if len(p.Singletons) != 1 || p.Singletons[0] != 1 {
		t.Fatalf("k=50: singletons %v, want [1]", p.Singletons)
	}
}

func TestPlanRelaxMaskAndNumRelaxed(t *testing.T) {
	p := Plan{Singletons: []int{0, 2}}
	if p.RelaxMask() != 0b101 {
		t.Fatalf("mask: got %b", p.RelaxMask())
	}
	if p.NumRelaxed() != 2 {
		t.Fatalf("num relaxed: got %d", p.NumRelaxed())
	}
}

func TestTriniTPlanRelaxesEverything(t *testing.T) {
	q := kg.NewQuery(
		kg.NewPattern(kg.Var("s"), kg.Const(0), kg.Const(1)),
		kg.NewPattern(kg.Var("s"), kg.Const(0), kg.Const(2)),
		kg.NewPattern(kg.Var("s"), kg.Const(0), kg.Const(3)),
	)
	p := TriniTPlan(q, 10)
	if len(p.Singletons) != 3 || len(p.JoinGroup) != 0 {
		t.Fatalf("TriniT plan: join=%v singles=%v", p.JoinGroup, p.Singletons)
	}
	if p.K != 10 {
		t.Fatalf("k: got %d", p.K)
	}
}

func TestPlanEmptyOriginalQueryRelaxesAll(t *testing.T) {
	st, _, pa, pb := planStore(t)
	d := st.Dict()
	ty, _ := d.Lookup("type")
	// A pattern with no matches at all.
	missing := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(d.Encode("Z")))
	rules := relax.NewRuleSet()
	// Both patterns have rules; the empty join must push both to relax.
	c, _ := d.Lookup("C")
	pcp := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(c))
	if err := rules.Add(relax.Rule{From: pa, To: pcp, Weight: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := rules.Add(relax.Rule{From: missing, To: pcp, Weight: 0.8}); err != nil {
		t.Fatal(err)
	}
	pl := newPlanner(st, rules)
	q := kg.NewQuery(pa, missing)
	p := pl.Plan(q, 10)
	// The empty pattern must be relaxed. Pattern A's relaxed variant still
	// joins against the empty pattern, so its estimate is unavailable and it
	// stays in the join group — relaxing the empty pattern is what makes the
	// query answerable.
	if len(p.Singletons) != 1 || p.Singletons[0] != 1 {
		t.Fatalf("empty original: singletons %v, want [1]", p.Singletons)
	}
	_ = pb
}

func TestPlanEmptyJoinNonEmptyPatternsRelaxesAll(t *testing.T) {
	// Both patterns have matches but the join is empty (disjoint entity
	// sets): with φ = 0 every pattern with a productive relaxation must be
	// speculated as requiring relaxation.
	st := kg.NewStore(nil)
	add := func(s, o string, sc float64) {
		if err := st.AddSPO(s, "type", o, sc); err != nil {
			t.Fatal(err)
		}
	}
	add("x1", "A", 10)
	add("x2", "A", 8)
	add("y1", "B", 9)
	add("y2", "B", 7)
	add("x1", "C", 5) // C overlaps A's entities
	add("y1", "D", 5) // D overlaps B's entities
	st.Freeze()
	d := st.Dict()
	ty, _ := d.Lookup("type")
	mk := func(name string) kg.Pattern {
		id, _ := d.Lookup(name)
		return kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(id))
	}
	rules := relax.NewRuleSet()
	if err := rules.Add(relax.Rule{From: mk("A"), To: mk("D"), Weight: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := rules.Add(relax.Rule{From: mk("B"), To: mk("C"), Weight: 0.8}); err != nil {
		t.Fatal(err)
	}
	pl := newPlanner(st, rules)
	p := pl.Plan(kg.NewQuery(mk("A"), mk("B")), 5)
	if len(p.Singletons) != 2 {
		t.Fatalf("empty join: singletons %v, want both patterns", p.Singletons)
	}
}

func TestPlanKFloor(t *testing.T) {
	st, rules, pa, pb := planStore(t)
	pl := newPlanner(st, rules)
	p := pl.Plan(kg.NewQuery(pa, pb), 0)
	if p.K != 1 {
		t.Fatalf("k floor: got %d want 1", p.K)
	}
}

func TestExplainMentionsDecisions(t *testing.T) {
	st, rules, pa, pb := planStore(t)
	pl := newPlanner(st, rules)
	q := kg.NewQuery(pa, pb)
	p := pl.Plan(q, 50)
	out := pl.Explain(p)
	for _, want := range []string{"query:", "plan:", "[0]", "[1]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "RELAX") {
		t.Fatalf("explain must mention the relaxation decision:\n%s", out)
	}
}

func TestPlanDecisionReasonsPopulated(t *testing.T) {
	st, rules, pa, pb := planStore(t)
	pl := newPlanner(st, rules)
	p := pl.Plan(kg.NewQuery(pa, pb), 10)
	for i, d := range p.Decisions {
		if d.Reason == "" {
			t.Fatalf("decision %d has empty reason", i)
		}
	}
}

func TestShapeKeyCanonicalisesVarNames(t *testing.T) {
	a := kg.NewQuery(
		kg.NewPattern(kg.Var("x"), kg.Const(1), kg.Const(2)),
		kg.NewPattern(kg.Var("x"), kg.Const(3), kg.Const(4)),
	)
	b := kg.NewQuery(
		kg.NewPattern(kg.Var("y"), kg.Const(1), kg.Const(2)),
		kg.NewPattern(kg.Var("y"), kg.Const(3), kg.Const(4)),
	)
	if ShapeKey(a, 10) != ShapeKey(b, 10) {
		t.Fatal("renamed variables must share a shape key")
	}
	// Breaking the cross-pattern sharing changes the join structure and must
	// change the key even though per-pattern keys are identical.
	c := kg.NewQuery(
		kg.NewPattern(kg.Var("x"), kg.Const(1), kg.Const(2)),
		kg.NewPattern(kg.Var("z"), kg.Const(3), kg.Const(4)),
	)
	if ShapeKey(a, 10) == ShapeKey(c, 10) {
		t.Fatal("different variable sharing must not share a shape key")
	}
	if ShapeKey(a, 10) == ShapeKey(a, 20) {
		t.Fatal("different k must not share a shape key")
	}
}
