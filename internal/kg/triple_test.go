package kg

import (
	"testing"
	"unsafe"
)

func TestPatternVars(t *testing.T) {
	p := NewPattern(Var("s"), Const(1), Var("o"))
	vs := p.Vars()
	if len(vs) != 2 || vs[0] != "s" || vs[1] != "o" {
		t.Fatalf("vars: got %v want [s o]", vs)
	}
	rep := NewPattern(Var("x"), Const(1), Var("x"))
	if got := rep.Vars(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("repeated var: got %v want [x]", got)
	}
	c := NewPattern(Const(1), Const(2), Const(3))
	if got := c.Vars(); len(got) != 0 {
		t.Fatalf("constant pattern vars: got %v want none", got)
	}
}

func TestVarStripsQuestionMark(t *testing.T) {
	if Var("?s").Name != "s" {
		t.Fatalf("Var(?s) kept the question mark: %q", Var("?s").Name)
	}
	if Var("s").Name != "s" {
		t.Fatalf("Var(s): %q", Var("s").Name)
	}
}

func TestPatternMatches(t *testing.T) {
	tr := Triple{S: 10, P: 20, O: 30}
	cases := []struct {
		name string
		p    Pattern
		want bool
	}{
		{"all vars", NewPattern(Var("a"), Var("b"), Var("c")), true},
		{"exact", NewPattern(Const(10), Const(20), Const(30)), true},
		{"wrong subject", NewPattern(Const(11), Const(20), Const(30)), false},
		{"wrong predicate", NewPattern(Const(10), Const(21), Const(30)), false},
		{"wrong object", NewPattern(Const(10), Const(20), Const(31)), false},
		{"var subject", NewPattern(Var("s"), Const(20), Const(30)), true},
		{"repeated var mismatch", NewPattern(Var("x"), Const(20), Var("x")), false},
	}
	for _, c := range cases {
		if got := c.p.Matches(tr); got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}
	same := Triple{S: 10, P: 20, O: 10}
	if !NewPattern(Var("x"), Const(20), Var("x")).Matches(same) {
		t.Error("repeated var should match equal S and O")
	}
}

func TestPatternKeyErasesVariableNames(t *testing.T) {
	a := NewPattern(Var("x"), Const(5), Const(6))
	b := NewPattern(Var("y"), Const(5), Const(6))
	if a.Key() != b.Key() {
		t.Fatal("patterns differing only in variable name must share a key")
	}
	c := NewPattern(Var("x"), Const(5), Const(7))
	if a.Key() == c.Key() {
		t.Fatal("different constants must not share a key")
	}
}

func TestPatternKeyShapeBits(t *testing.T) {
	diag := NewPattern(Var("x"), Const(5), Var("x"))
	free := NewPattern(Var("x"), Const(5), Var("y"))
	if diag.Key() == free.Key() {
		t.Fatal("repeated-variable pattern must not share key with free pattern")
	}
}

func TestQueryVarsAndClone(t *testing.T) {
	q := NewQuery(
		NewPattern(Var("s"), Const(1), Var("o")),
		NewPattern(Var("o"), Const(2), Var("z")),
	)
	vs := q.Vars()
	if len(vs) != 3 || vs[0] != "s" || vs[1] != "o" || vs[2] != "z" {
		t.Fatalf("query vars: got %v", vs)
	}
	c := q.Clone()
	c.Patterns[0] = NewPattern(Var("w"), Const(9), Var("w"))
	if q.Patterns[0].S.Name != "s" {
		t.Fatal("Clone aliases the original pattern slice")
	}
}

func TestQueryReplace(t *testing.T) {
	q := NewQuery(
		NewPattern(Var("s"), Const(1), Const(2)),
		NewPattern(Var("s"), Const(1), Const(3)),
	)
	rep := NewPattern(Var("s"), Const(1), Const(99))
	q2 := q.Replace(1, rep)
	if q.Patterns[1].O.ID != 3 {
		t.Fatal("Replace mutated the receiver")
	}
	if q2.Patterns[1].O.ID != 99 {
		t.Fatalf("Replace result: got O=%d want 99", q2.Patterns[1].O.ID)
	}
	if q2.Patterns[0].O.ID != 2 {
		t.Fatal("Replace modified an unrelated pattern")
	}
}

func TestTermAndPatternSizes(t *testing.T) {
	if got := unsafe.Sizeof(Term{}); got != 24 {
		t.Errorf("Term is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Pattern{}); got != 72 {
		t.Errorf("Pattern is %d bytes, want 72", got)
	}
}
