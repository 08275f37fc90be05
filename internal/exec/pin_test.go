package exec

import (
	"math/rand"
	"testing"

	"specqp/internal/kg"
	"specqp/internal/operators"
	"specqp/internal/planner"
)

// TestOperatorTreePinnedSnapshot pins the executor's snapshot-isolation
// contract: an operator tree captures one store version at construction, so
// inserts landing between construction and drain — triples that would
// dominate the top-k — change nothing. Before pinning, each operator loaded
// its own snapshot and a racing ingest could leak mixed-version state into
// one tree.
func TestOperatorTreePinnedSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	w := newRandomWorld(t, rng, 40, 5)
	ex := New(w.st, w.rules)
	q := kg.NewQuery(
		kg.NewPattern(kg.Var("s"), kg.Const(w.ty), kg.Const(w.types[0])),
		kg.NewPattern(kg.Var("s"), kg.Const(w.ty), kg.Const(w.types[1])),
	)
	plan := planner.TriniTPlan(q, 10)
	want := run(ex, plan)

	c := &operators.Counter{}
	root := ex.buildStream(plan, c)
	// Dominating inserts: every entity now matches both patterns with a
	// score far above the fixture's range. An unpinned tree would emit
	// these first.
	d := w.st.Dict()
	for e := 0; e < 10; e++ {
		ent := d.Encode("late-entity")
		for _, ty := range w.types[:2] {
			if err := w.st.Insert(kg.Triple{S: ent, P: w.ty, O: ty, Score: 1e6}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := operators.DrainK(root, plan.K)
	if len(got) != len(want.Answers) {
		t.Fatalf("pinned tree returned %d entries, want %d", len(got), len(want.Answers))
	}
	for i, e := range got {
		if e.Score != want.Answers[i].Score || e.Binding.Compare(want.Answers[i].Binding) != 0 {
			t.Fatalf("rank %d = %v/%v, want %v/%v",
				i, e.Binding, e.Score, want.Answers[i].Binding, want.Answers[i].Score)
		}
	}
	// The live store did move: a tree built now must see the new top.
	after := run(ex, planner.TriniTPlan(q, 10))
	if len(after.Answers) == 0 || after.Answers[0].Score == want.Answers[0].Score {
		t.Fatal("post-insert tree did not observe the dominating inserts")
	}
}
