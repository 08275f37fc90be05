package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"specqp/internal/kg"
	"specqp/internal/planner"
	"specqp/internal/relax"
	"specqp/internal/stats"
)

// run executes plan p to completion: Run with a context that never cancels
// and no emitter, which cannot fail.
func run(ex *Executor, p planner.Plan) Result {
	res, _ := ex.Run(context.Background(), p, RunOpts{})
	return res
}

// randomWorld generates a random typed KG with relaxation rules for
// differential testing of the executors.
type randomWorld struct {
	st    *kg.Store
	rules *relax.RuleSet
	ty    kg.ID
	types []kg.ID
}

func newRandomWorld(t *testing.T, rng *rand.Rand, entities, nTypes int) *randomWorld {
	t.Helper()
	st := kg.NewStore(nil)
	d := st.Dict()
	ty := d.Encode("type")
	types := make([]kg.ID, nTypes)
	for i := range types {
		types[i] = d.Encode(fmt.Sprintf("T%d", i))
	}
	for e := 0; e < entities; e++ {
		ent := d.Encode(fmt.Sprintf("e%d", e))
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			tt := types[rng.Intn(nTypes)]
			score := float64(1 + rng.Intn(1000))
			if err := st.Add(kg.Triple{S: ent, P: ty, O: tt, Score: score}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Freeze()
	rules := relax.NewRuleSet()
	for i := range types {
		from := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(types[i]))
		nRules := rng.Intn(3)
		for r := 0; r < nRules; r++ {
			to := types[rng.Intn(nTypes)]
			if to == types[i] {
				continue
			}
			w := 0.2 + 0.75*rng.Float64()
			rule := relax.Rule{From: from, To: kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(to)), Weight: w}
			if err := rules.Add(rule); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &randomWorld{st: st, rules: rules, ty: ty, types: types}
}

func (w *randomWorld) randomQuery(rng *rand.Rand, np int) kg.Query {
	var pats []kg.Pattern
	seen := map[kg.ID]bool{}
	for len(pats) < np {
		tt := w.types[rng.Intn(len(w.types))]
		if seen[tt] {
			continue
		}
		seen[tt] = true
		pats = append(pats, kg.NewPattern(kg.Var("s"), kg.Const(w.ty), kg.Const(tt)))
	}
	return kg.NewQuery(pats...)
}

// TestTriniTMatchesNaive is the central differential test: the operator
// pipeline with early termination must produce exactly the top-k the naive
// evaluate-everything baseline produces.
func TestTriniTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		w := newRandomWorld(t, rng, 60+rng.Intn(100), 6)
		ex := New(w.st, w.rules)
		for _, np := range []int{1, 2, 3} {
			q := w.randomQuery(rng, np)
			for _, k := range []int{1, 5, 10} {
				tr := run(ex, planner.TriniTPlan(q, k))
				nv := ex.Naive(q, k)
				if len(tr.Answers) != len(nv.Answers) {
					t.Fatalf("trial %d np=%d k=%d: TriniT %d answers, Naive %d",
						trial, np, k, len(tr.Answers), len(nv.Answers))
				}
				for i := range tr.Answers {
					if math.Abs(tr.Answers[i].Score-nv.Answers[i].Score) > 1e-9 {
						t.Fatalf("trial %d np=%d k=%d rank %d: TriniT %v vs Naive %v",
							trial, np, k, i, tr.Answers[i].Score, nv.Answers[i].Score)
					}
				}
			}
		}
	}
}

// TestSpecQPWithFullRelaxationMatchesTriniT: when the speculative plan
// relaxes every pattern it must be answer-for-answer identical to TriniT.
func TestSpecQPWithFullRelaxationMatchesTriniT(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 15; trial++ {
		w := newRandomWorld(t, rng, 80, 5)
		ex := New(w.st, w.rules)
		pl := planner.New(stats.NewCatalog(w.st, 2, nil), w.rules)
		q := w.randomQuery(rng, 2)
		k := 5
		// A speculative plan forced to relax every pattern (singletons in
		// PLANGEN's order, join group appended) must run as TriniT.
		full := pl.Plan(q, k)
		full.Singletons, full.JoinGroup = append(full.Singletons, full.JoinGroup...), nil
		viaPlan := run(ex, full)
		direct := run(ex, planner.TriniTPlan(q, k))
		if len(viaPlan.Answers) != len(direct.Answers) {
			t.Fatalf("trial %d: %d vs %d answers", trial, len(viaPlan.Answers), len(direct.Answers))
		}
		for i := range viaPlan.Answers {
			if math.Abs(viaPlan.Answers[i].Score-direct.Answers[i].Score) > 1e-9 {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, viaPlan.Answers[i].Score, direct.Answers[i].Score)
			}
		}
	}
}

// TestSpecQPAnswersSubsetValid: Spec-QP answers must always be genuine
// answers of some relaxed query with correctly computed scores — verified
// against the naive all-relaxations answer table.
func TestSpecQPAnswersScoresValid(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		w := newRandomWorld(t, rng, 80, 5)
		ex := New(w.st, w.rules)
		pl := planner.New(stats.NewCatalog(w.st, 2, nil), w.rules)
		q := w.randomQuery(rng, 2)
		k := 5
		s := run(ex, pl.Plan(q, k))
		nv := ex.Naive(q, 1<<20) // full sorted answer table
		valid := map[string]float64{}
		for _, a := range nv.Answers {
			valid[a.Binding.Key()] = a.Score
		}
		for i, a := range s.Answers {
			want, ok := valid[a.Binding.Key()]
			if !ok {
				t.Fatalf("trial %d: Spec-QP produced a non-answer at rank %d", trial, i)
			}
			// A Spec-QP answer's score can be lower than the best derivation
			// (it may miss a relaxation), but never higher.
			if a.Score > want+1e-9 {
				t.Fatalf("trial %d rank %d: Spec-QP score %v exceeds best derivation %v",
					trial, i, a.Score, want)
			}
		}
	}
}

func TestSpecQPSortedAndBoundedByK(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	w := newRandomWorld(t, rng, 120, 6)
	ex := New(w.st, w.rules)
	pl := planner.New(stats.NewCatalog(w.st, 2, nil), w.rules)
	for _, k := range []int{1, 3, 10, 100} {
		q := w.randomQuery(rng, 2)
		res := run(ex, pl.Plan(q, k))
		if len(res.Answers) > k {
			t.Fatalf("k=%d: got %d answers", k, len(res.Answers))
		}
		for i := 1; i < len(res.Answers); i++ {
			if res.Answers[i].Score > res.Answers[i-1].Score+1e-9 {
				t.Fatalf("k=%d: answers not sorted at %d", k, i)
			}
		}
	}
}

func TestResultMetricsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	w := newRandomWorld(t, rng, 80, 5)
	ex := New(w.st, w.rules)
	pl := planner.New(stats.NewCatalog(w.st, 2, nil), w.rules)
	q := w.randomQuery(rng, 2)

	tr := run(ex, planner.TriniTPlan(q, 5))
	if tr.MemoryObjects <= 0 {
		t.Fatal("TriniT memory objects not counted")
	}
	if tr.PlanTime != 0 {
		t.Fatal("TriniT must have no planning time")
	}
	// Run executes a plan it is handed; timing the planning is the caller's.
	s := run(ex, pl.Plan(q, 5))
	if s.PlanTime != 0 || s.ExecTime <= 0 {
		t.Fatalf("Spec-QP run: plan time %v, exec time %v", s.PlanTime, s.ExecTime)
	}
	s.PlanTime = time.Millisecond
	if s.TotalTime() != s.ExecTime+time.Millisecond {
		t.Fatal("total time must include planning")
	}
	n := ex.Naive(q, 5)
	if n.MemoryObjects <= 0 && len(n.Answers) > 0 {
		t.Fatal("naive memory objects not counted")
	}
}

func TestRelaxedProvenanceMasks(t *testing.T) {
	// One entity matches only via relaxation; its answer must carry the bit.
	st := kg.NewStore(nil)
	add := func(s, o string, sc float64) {
		if err := st.AddSPO(s, "type", o, sc); err != nil {
			t.Fatal(err)
		}
	}
	add("x", "A", 10)
	add("x", "B", 10)
	add("y", "A", 9)
	add("y", "C", 9) // y is B-like only through C
	st.Freeze()
	d := st.Dict()
	ty, _ := d.Lookup("type")
	a, _ := d.Lookup("A")
	b, _ := d.Lookup("B")
	c, _ := d.Lookup("C")
	pb := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(b))
	rules := relax.NewRuleSet()
	if err := rules.Add(relax.Rule{
		From: pb, To: kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(c)), Weight: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	ex := New(st, rules)
	q := kg.NewQuery(kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Const(a)), pb)
	res := run(ex, planner.TriniTPlan(q, 10))
	if len(res.Answers) != 2 {
		t.Fatalf("answers: got %d want 2", len(res.Answers))
	}
	var xMask, yMask uint32
	xid, _ := d.Lookup("x")
	for _, ans := range res.Answers {
		if ans.Binding[0] == xid {
			xMask = ans.Relaxed
		} else {
			yMask = ans.Relaxed
		}
	}
	if xMask != 0 {
		t.Fatalf("x answered without relaxation but mask=%b", xMask)
	}
	if yMask != 0b10 {
		t.Fatalf("y relaxed pattern 1 but mask=%b", yMask)
	}
}

func TestEmptyQueryAndNoAnswers(t *testing.T) {
	st := kg.NewStore(nil)
	if err := st.AddSPO("a", "p", "b", 1); err != nil {
		t.Fatal(err)
	}
	st.Freeze()
	rules := relax.NewRuleSet()
	ex := New(st, rules)
	d := st.Dict()
	p, _ := d.Lookup("p")
	q := kg.NewQuery(kg.NewPattern(kg.Var("s"), kg.Const(p), kg.Const(d.Encode("missing"))))
	res := run(ex, planner.TriniTPlan(q, 5))
	if len(res.Answers) != 0 {
		t.Fatalf("unanswerable query returned %d answers", len(res.Answers))
	}
}
