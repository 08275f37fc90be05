package relax

import (
	"testing"

	"specqp/internal/kg"
)

func pat(d *kg.Dict, v, p, o string) kg.Pattern {
	return kg.NewPattern(kg.Var(v), kg.Const(d.Encode(p)), kg.Const(d.Encode(o)))
}

func TestRuleValidate(t *testing.T) {
	d := kg.NewDict()
	r := Rule{From: pat(d, "s", "type", "a"), To: pat(d, "s", "type", "b"), Weight: 0.5}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0, -0.1, 1.01} {
		r.Weight = w
		if err := r.Validate(); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
}

func TestRuleSetOrderedByWeight(t *testing.T) {
	d := kg.NewDict()
	rs := NewRuleSet()
	from := pat(d, "s", "type", "singer")
	for _, c := range []struct {
		to string
		w  float64
	}{{"artist", 0.4}, {"vocalist", 0.9}, {"jazz", 0.7}} {
		if err := rs.Add(Rule{From: from, To: pat(d, "s", "type", c.to), Weight: c.w}); err != nil {
			t.Fatal(err)
		}
	}
	rules := rs.For(from)
	if len(rules) != 3 {
		t.Fatalf("got %d rules", len(rules))
	}
	if rules[0].Weight != 0.9 || rules[1].Weight != 0.7 || rules[2].Weight != 0.4 {
		t.Fatalf("rules not sorted by weight: %v %v %v", rules[0].Weight, rules[1].Weight, rules[2].Weight)
	}
	top, ok := rs.Top(from)
	if !ok || top.Weight != 0.9 {
		t.Fatalf("top rule: got %v ok=%v", top.Weight, ok)
	}
	if rs.Len() != 3 {
		t.Fatalf("len: got %d", rs.Len())
	}
	if rs.MaxFanout() != 3 {
		t.Fatalf("fanout: got %d", rs.MaxFanout())
	}
}

func TestRuleSetForVariableRenamedPattern(t *testing.T) {
	d := kg.NewDict()
	rs := NewRuleSet()
	from := pat(d, "s", "type", "singer")
	if err := rs.Add(Rule{From: from, To: pat(d, "s", "type", "vocalist"), Weight: 0.8}); err != nil {
		t.Fatal(err)
	}
	// A query using ?x instead of ?s must still find the rules.
	queryPat := pat(d, "x", "type", "singer")
	if got := rs.For(queryPat); len(got) != 1 {
		t.Fatalf("renamed pattern: got %d rules want 1", len(got))
	}
	if _, ok := rs.Top(pat(d, "x", "type", "pianist")); ok {
		t.Fatal("unrelated pattern has a top rule")
	}
}

func TestApplyRenamesVariables(t *testing.T) {
	d := kg.NewDict()
	r := Rule{From: pat(d, "s", "type", "singer"), To: pat(d, "s", "type", "vocalist"), Weight: 0.8}
	qp := pat(d, "x", "type", "singer")
	out := Apply(r.To, qp)
	if !out.S.IsVar || out.S.Name != "x" {
		t.Fatalf("subject variable: got %+v want ?x", out.S)
	}
	vocalist, _ := d.Lookup("vocalist")
	if out.O.IsVar || out.O.ID != vocalist {
		t.Fatalf("object: got %+v want vocalist", out.O)
	}
}

func TestEnumerateCountsAndOrder(t *testing.T) {
	d := kg.NewDict()
	rs := NewRuleSet()
	p1 := pat(d, "s", "type", "singer")
	p2 := pat(d, "s", "type", "lyricist")
	// 2 relaxations for p1, 1 for p2 → (2+1)·(1+1) = 6 relaxed queries.
	mustAdd(t, rs, Rule{From: p1, To: pat(d, "s", "type", "vocalist"), Weight: 0.9})
	mustAdd(t, rs, Rule{From: p1, To: pat(d, "s", "type", "artist"), Weight: 0.5})
	mustAdd(t, rs, Rule{From: p2, To: pat(d, "s", "type", "writer"), Weight: 0.7})
	q := kg.NewQuery(p1, p2)

	all := rs.Enumerate(q, 0)
	if len(all) != 6 {
		t.Fatalf("enumeration size: got %d want 6", len(all))
	}
	// First is the original.
	if all[0].Weight != 1 || all[0].Applied[0] != -1 || all[0].Applied[1] != -1 {
		t.Fatalf("first enumerated query is not the original: %+v", all[0])
	}
	// Breadth-first by number of relaxations: 1 original, 3 single, 2 double.
	relaxedCount := func(rq RelaxedQuery) int {
		n := 0
		for _, a := range rq.Applied {
			if a >= 0 {
				n++
			}
		}
		return n
	}
	wantOrder := []int{0, 1, 1, 1, 2, 2}
	for i, rq := range all {
		if relaxedCount(rq) != wantOrder[i] {
			t.Fatalf("position %d: %d relaxations, want %d", i, relaxedCount(rq), wantOrder[i])
		}
	}
	// Weights multiply.
	last := all[5]
	if last.Weight != 0.5*0.7 && last.Weight != 0.9*0.7 {
		t.Fatalf("double relaxation weight: got %v", last.Weight)
	}
}

func TestEnumerateLimit(t *testing.T) {
	d := kg.NewDict()
	rs := NewRuleSet()
	p1 := pat(d, "s", "type", "a")
	for i := 0; i < 10; i++ {
		mustAdd(t, rs, Rule{From: p1, To: pat(d, "s", "type", string(rune('b'+i))), Weight: 0.5})
	}
	q := kg.NewQuery(p1)
	if got := rs.Enumerate(q, 4); len(got) != 4 {
		t.Fatalf("limit: got %d want 4", len(got))
	}
	if got := rs.Enumerate(q, 0); len(got) != 11 {
		t.Fatalf("no limit: got %d want 11", len(got))
	}
}

func TestEnumerateRenamesRuleVariables(t *testing.T) {
	d := kg.NewDict()
	rs := NewRuleSet()
	p := pat(d, "s", "type", "a")
	mustAdd(t, rs, Rule{From: p, To: pat(d, "s", "type", "b"), Weight: 0.5})
	q := kg.NewQuery(pat(d, "x", "type", "a"))
	all := rs.Enumerate(q, 0)
	if len(all) != 2 {
		t.Fatalf("got %d queries", len(all))
	}
	relaxed := all[1].Query.Patterns[0]
	if !relaxed.S.IsVar || relaxed.S.Name != "x" {
		t.Fatalf("relaxed pattern variable: got %+v want ?x", relaxed.S)
	}
}

func mustAdd(t *testing.T, rs *RuleSet, r Rule) {
	t.Helper()
	if err := rs.Add(r); err != nil {
		t.Fatal(err)
	}
}
