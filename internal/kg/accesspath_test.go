package kg

import "testing"

// These tests exercise every index access path in candidates(): fully bound,
// (P,O), (S,P), (S,O), single positions, and full scans — including
// variable-predicate patterns that only the byS/byO paths can serve.
func accessStore(t *testing.T) *Store {
	t.Helper()
	st := NewStore(nil)
	add := func(s, p, o string, sc float64) {
		if err := st.AddSPO(s, p, o, sc); err != nil {
			t.Fatal(err)
		}
	}
	add("a", "knows", "b", 5)
	add("a", "likes", "b", 4)
	add("a", "knows", "c", 3)
	add("b", "knows", "c", 2)
	add("c", "likes", "a", 1)
	st.Freeze()
	return st
}

func lookup(t *testing.T, st *Store, s string) ID {
	t.Helper()
	id, ok := st.Dict().Lookup(s)
	if !ok {
		t.Fatalf("term %q missing", s)
	}
	return id
}

func TestAccessPathVarPredicate(t *testing.T) {
	st := accessStore(t)
	a := lookup(t, st, "a")
	b := lookup(t, st, "b")
	// 〈a ?p b〉: S and O bound, predicate variable.
	p := NewPattern(Const(a), Var("p"), Const(b))
	if got := st.Cardinality(p); got != 2 {
		t.Fatalf("〈a ?p b〉: got %d want 2", got)
	}
	// 〈a ?p ?o〉: only S bound.
	p2 := NewPattern(Const(a), Var("p"), Var("o"))
	if got := st.Cardinality(p2); got != 3 {
		t.Fatalf("〈a ?p ?o〉: got %d want 3", got)
	}
	// 〈?s ?p c〉: only O bound.
	c := lookup(t, st, "c")
	p3 := NewPattern(Var("s"), Var("p"), Const(c))
	if got := st.Cardinality(p3); got != 2 {
		t.Fatalf("〈?s ?p c〉: got %d want 2", got)
	}
}

func TestAccessPathSPBound(t *testing.T) {
	st := accessStore(t)
	a := lookup(t, st, "a")
	knows := lookup(t, st, "knows")
	p := NewPattern(Const(a), Const(knows), Var("o"))
	if got := st.Cardinality(p); got != 2 {
		t.Fatalf("〈a knows ?o〉: got %d want 2", got)
	}
}

func TestAccessPathPredicateOnly(t *testing.T) {
	st := accessStore(t)
	likes := lookup(t, st, "likes")
	p := NewPattern(Var("s"), Const(likes), Var("o"))
	if got := st.Cardinality(p); got != 2 {
		t.Fatalf("〈?s likes ?o〉: got %d want 2", got)
	}
}

func TestAccessPathRepeatedVariable(t *testing.T) {
	st := NewStore(nil)
	if err := st.AddSPO("x", "rel", "x", 3); err != nil {
		t.Fatal(err)
	}
	if err := st.AddSPO("x", "rel", "y", 2); err != nil {
		t.Fatal(err)
	}
	st.Freeze()
	rel := lookup(t, st, "rel")
	// 〈?v rel ?v〉 matches only the self-loop.
	p := NewPattern(Var("v"), Const(rel), Var("v"))
	if got := st.Cardinality(p); got != 1 {
		t.Fatalf("self-loop pattern: got %d want 1", got)
	}
}

func TestEvaluateVarPredicateQuery(t *testing.T) {
	st := accessStore(t)
	// Which predicates link a to b? Two answers: knows, likes.
	a := lookup(t, st, "a")
	b := lookup(t, st, "b")
	q := NewQuery(NewPattern(Const(a), Var("p"), Const(b)))
	answers := Evaluate(st, q, nil)
	if len(answers) != 2 {
		t.Fatalf("answers: got %d want 2", len(answers))
	}
	// Top answer has normalised score 1 (knows, raw 5 / max 5).
	if answers[0].Score != 1 {
		t.Fatalf("top score: %v", answers[0].Score)
	}
}
