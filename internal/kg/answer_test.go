package kg

import (
	"math"
	"testing"
)

func TestVarSet(t *testing.T) {
	q := NewQuery(
		NewPattern(Var("s"), Const(1), Var("o")),
		NewPattern(Var("o"), Const(2), Var("z")),
	)
	vs := NewVarSet(q)
	if vs.Len() != 3 {
		t.Fatalf("len: got %d want 3", vs.Len())
	}
	for i, name := range []string{"s", "o", "z"} {
		if vs.Index(name) != i {
			t.Errorf("index(%s): got %d want %d", name, vs.Index(name), i)
		}
		if vs.Name(i) != name {
			t.Errorf("name(%d): got %s want %s", i, vs.Name(i), name)
		}
	}
	if vs.Index("missing") != -1 {
		t.Fatal("missing variable should index -1")
	}
}

func TestBindingMergeAndCompatibility(t *testing.T) {
	a := NewBinding(3)
	b := NewBinding(3)
	a[0] = 7
	b[1] = 8
	if !a.CompatibleWith(b) {
		t.Fatal("disjoint bindings must be compatible")
	}
	m := a.Merge(b)
	if m[0] != 7 || m[1] != 8 || m[2] != NoID {
		t.Fatalf("merge: got %v", m)
	}
	c := NewBinding(3)
	c[0] = 9
	if a.CompatibleWith(c) {
		t.Fatal("conflicting bindings must be incompatible")
	}
	// Merge must not mutate the receiver.
	if a[1] != NoID {
		t.Fatal("Merge mutated receiver")
	}
}

func TestBindingKeyDistinguishes(t *testing.T) {
	a := NewBinding(2)
	b := NewBinding(2)
	if a.Key() != b.Key() {
		t.Fatal("equal bindings must share keys")
	}
	b[0] = 1
	if a.Key() == b.Key() {
		t.Fatal("different bindings must not share keys")
	}
}

func TestAnswerRelaxedCount(t *testing.T) {
	cases := []struct {
		mask uint32
		want int
	}{{0, 0}, {1, 1}, {0b1010, 2}, {0b1111, 4}}
	for _, c := range cases {
		if got := (Answer{Relaxed: c.mask}).RelaxedCount(); got != c.want {
			t.Errorf("mask %b: got %d want %d", c.mask, got, c.want)
		}
	}
}

func TestEvaluateStarQuery(t *testing.T) {
	st, ids := musicStore(t)
	q := NewQuery(typePattern(ids, "singer"), typePattern(ids, "lyricist"))
	answers := Evaluate(st, q, nil)
	// singers ∩ lyricists = {shakira, beyonce}.
	if len(answers) != 2 {
		t.Fatalf("answers: got %d want 2", len(answers))
	}
	top := answers[0]
	if got := st.Dict().Decode(top.Binding[0]); got != "shakira" {
		t.Fatalf("top answer: got %q want shakira", got)
	}
	// Score of shakira = 100/100 + 80/80 = 2.
	if math.Abs(top.Score-2.0) > 1e-12 {
		t.Fatalf("shakira score: got %v want 2", top.Score)
	}
	// beyonce = 90/100 + 70/80 = 0.9 + 0.875 = 1.775.
	if math.Abs(answers[1].Score-1.775) > 1e-12 {
		t.Fatalf("beyonce score: got %v want 1.775", answers[1].Score)
	}
}

func TestEvaluateEmptyJoin(t *testing.T) {
	st, ids := musicStore(t)
	q := NewQuery(typePattern(ids, "pianist"), typePattern(ids, "guitarist"))
	if got := Evaluate(st, q, nil); len(got) != 0 {
		t.Fatalf("pianist∧guitarist: got %d answers want 0", len(got))
	}
}

func TestEvaluatePathQuery(t *testing.T) {
	st := NewStore(nil)
	add := func(s, p, o string, sc float64) {
		if err := st.AddSPO(s, p, o, sc); err != nil {
			t.Fatal(err)
		}
	}
	add("a", "knows", "b", 10)
	add("b", "knows", "c", 8)
	add("a", "knows", "c", 5)
	add("c", "knows", "d", 7)
	st.Freeze()
	knows, _ := st.Dict().Lookup("knows")
	q := NewQuery(
		NewPattern(Var("x"), Const(knows), Var("y")),
		NewPattern(Var("y"), Const(knows), Var("z")),
	)
	answers := Evaluate(st, q, nil)
	// Paths: a→b→c, a→c→d, b→c→d.
	if len(answers) != 3 {
		t.Fatalf("paths: got %d want 3", len(answers))
	}
	if Count(st, q) != 3 {
		t.Fatalf("count: got %d want 3", Count(st, q))
	}
}

func TestCountMatchesEvaluate(t *testing.T) {
	st, ids := musicStore(t)
	qs := []Query{
		NewQuery(typePattern(ids, "singer")),
		NewQuery(typePattern(ids, "singer"), typePattern(ids, "lyricist")),
		NewQuery(typePattern(ids, "singer"), typePattern(ids, "vocalist")),
		NewQuery(typePattern(ids, "singer"), typePattern(ids, "lyricist"), typePattern(ids, "guitarist")),
	}
	for i, q := range qs {
		if got, want := Count(st, q), len(Evaluate(st, q, nil)); got != want {
			t.Errorf("query %d: Count=%d Evaluate=%d", i, got, want)
		}
	}
}

func TestEvaluateWeighted(t *testing.T) {
	st, ids := musicStore(t)
	q := NewQuery(typePattern(ids, "singer"), typePattern(ids, "lyricist"))
	w := []float64{0.5, 1}
	answers := Evaluate(st, q, w)
	if len(answers) != 2 {
		t.Fatalf("answers: got %d want 2", len(answers))
	}
	// shakira: 0.5·1 + 1 = 1.5.
	if math.Abs(answers[0].Score-1.5) > 1e-12 {
		t.Fatalf("weighted shakira: got %v want 1.5", answers[0].Score)
	}
	// Nil weights behave like all-ones.
	plain := Evaluate(st, q, nil)
	ref := Evaluate(st, q, nil)
	for i := range ref {
		if math.Abs(plain[i].Score-ref[i].Score) > 1e-12 {
			t.Fatalf("nil weights diverge at %d: %v vs %v", i, plain[i].Score, ref[i].Score)
		}
	}
}

func TestDedupMaxKeepsMaximum(t *testing.T) {
	b1 := NewBinding(1)
	b1[0] = 5
	b2 := NewBinding(1)
	b2[0] = 6
	in := []Answer{
		{Binding: b1, Score: 1.0},
		{Binding: b1.Clone(), Score: 3.0},
		{Binding: b2, Score: 2.0},
		{Binding: b1.Clone(), Score: 2.5},
	}
	out := DedupMax(in)
	if len(out) != 2 {
		t.Fatalf("dedup: got %d want 2", len(out))
	}
	var got5 float64
	for _, a := range out {
		if a.Binding[0] == 5 {
			got5 = a.Score
		}
	}
	if got5 != 3.0 {
		t.Fatalf("dedup kept %v for binding 5, want 3.0", got5)
	}
}

func TestSortAnswersDeterministic(t *testing.T) {
	mk := func(id ID, score float64) Answer {
		b := NewBinding(1)
		b[0] = id
		return Answer{Binding: b, Score: score}
	}
	in := []Answer{mk(3, 1), mk(1, 1), mk(2, 2)}
	SortAnswers(in)
	if in[0].Binding[0] != 2 {
		t.Fatal("highest score must come first")
	}
	if in[1].Binding[0] != 1 || in[2].Binding[0] != 3 {
		t.Fatalf("ties must break by binding key: got %v %v", in[1].Binding[0], in[2].Binding[0])
	}
}

func TestEvaluateDeduplicatesDuplicateTriples(t *testing.T) {
	st := NewStore(nil)
	// Two triples with identical s,p,o and different scores.
	if err := st.AddSPO("e", "type", "t", 10); err != nil {
		t.Fatal(err)
	}
	if err := st.AddSPO("e", "type", "t", 4); err != nil {
		t.Fatal(err)
	}
	if err := st.AddSPO("f", "type", "t", 8); err != nil {
		t.Fatal(err)
	}
	st.Freeze()
	ty, _ := st.Dict().Lookup("type")
	tt, _ := st.Dict().Lookup("t")
	q := NewQuery(NewPattern(Var("s"), Const(ty), Const(tt)))
	answers := Evaluate(st, q, nil)
	if len(answers) != 2 {
		t.Fatalf("dedup: got %d answers want 2", len(answers))
	}
	if answers[0].Score != 1.0 {
		t.Fatalf("duplicate must keep max score 10/10: got %v", answers[0].Score)
	}
}
