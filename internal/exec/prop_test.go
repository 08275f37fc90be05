package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"specqp/internal/kg"
	"specqp/internal/operators"
)

// This file is the safety net for the packed-key / scratch-binding / arena
// refactor: on randomized stores (duplicates included) it checks the
// physical operator pipeline — LeftDeep rank joins over ListScans, and
// IncrementalMerge over weighted relaxation scans — answer-for-answer
// against the kg.Evaluate oracle (plain and weighted).

// randStore builds a random store over a small vocabulary. Roughly a third
// of the trials get duplicate (s,p,o) triples with differing scores, so both
// the dedup and the dedup-free scan paths are exercised.
func randStore(t *testing.T, rng *rand.Rand, triples int) *kg.Store {
	t.Helper()
	st := kg.NewStore(nil)
	for i := 0; i < 16; i++ {
		st.Dict().Encode(fmt.Sprintf("t%d", i))
	}
	add := func(s, p, o kg.ID, sc float64) {
		if err := st.Add(kg.Triple{S: s, P: p, O: o, Score: sc}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < triples; i++ {
		s, p, o := kg.ID(rng.Intn(8)), kg.ID(8+rng.Intn(3)), kg.ID(11+rng.Intn(5))
		add(s, p, o, float64(1+rng.Intn(40)))
		if rng.Intn(3) == 0 {
			add(s, p, o, float64(1+rng.Intn(40))) // duplicate, different score
		}
	}
	st.Freeze()
	return st
}

// randQuery builds a 2–3 pattern query chained through shared variables,
// with constants drawn from the store vocabulary.
func randQuery(rng *rand.Rand) kg.Query {
	n := 2 + rng.Intn(2)
	varNames := []string{"x", "y", "z", "w"}
	var ps []kg.Pattern
	for i := 0; i < n; i++ {
		// Subject: share the previous pattern's object variable to chain.
		s := kg.Var(varNames[i])
		p := kg.Const(kg.ID(8 + rng.Intn(3)))
		var o kg.Term
		if rng.Intn(3) == 0 {
			o = kg.Const(kg.ID(11 + rng.Intn(5)))
		} else {
			o = kg.Var(varNames[i+1])
		}
		if rng.Intn(4) == 0 {
			// Occasionally share the first subject instead of chaining.
			s = kg.Var(varNames[0])
		}
		ps = append(ps, kg.NewPattern(s, p, o))
	}
	return kg.NewQuery(ps...)
}

// answersByKey indexes answers by binding key, asserting no key repeats.
func answersByKey(t *testing.T, as []kg.Answer, label string) map[string]kg.Answer {
	t.Helper()
	m := make(map[string]kg.Answer, len(as))
	for _, a := range as {
		k := a.Binding.Key()
		if _, dup := m[k]; dup {
			t.Fatalf("%s emitted duplicate binding %v", label, a.Binding)
		}
		m[k] = a
	}
	return m
}

func compareAnswerSets(t *testing.T, trial int64, got, want []kg.Answer, label string) {
	t.Helper()
	gm := answersByKey(t, got, label)
	wm := answersByKey(t, want, "oracle")
	if len(gm) != len(wm) {
		t.Fatalf("trial %d %s: got %d answers, oracle %d", trial, label, len(gm), len(wm))
	}
	for k, w := range wm {
		g, ok := gm[k]
		if !ok {
			t.Fatalf("trial %d %s: oracle answer %v missing", trial, label, w.Binding)
		}
		if math.Abs(g.Score-w.Score) > 1e-9 {
			t.Fatalf("trial %d %s: binding %v score %v, oracle %v", trial, label, w.Binding, g.Score, w.Score)
		}
	}
}

// TestPropertyLeftDeepAgainstEvaluateOracle drains a left-deep rank-join
// tree over plain ListScans and compares the complete result set against
// kg.Evaluate.
func TestPropertyLeftDeepAgainstEvaluateOracle(t *testing.T) {
	for trial := int64(0); trial < 60; trial++ {
		rng := rand.New(rand.NewSource(500 + trial))
		st := randStore(t, rng, 60+rng.Intn(120))
		q := randQuery(rng)
		vs := kg.NewVarSet(q)

		streams := make([]operators.Stream, len(q.Patterns))
		vars := make([]map[int]bool, len(q.Patterns))
		for i, p := range q.Patterns {
			streams[i] = operators.NewListScan(st, vs, p, 1, 0, nil)
			vars[i] = operators.PatternBoundVars(vs, p)
		}
		root := operators.LeftDeep(streams, vars, nil)
		entries := operators.Drain(root)
		if !operators.IsSortedDesc(entries) {
			t.Fatalf("trial %d: join output not sorted", trial)
		}
		got := make([]kg.Answer, len(entries))
		for i, e := range entries {
			got[i] = kg.Answer{Binding: e.Binding, Score: e.Score}
		}
		compareAnswerSets(t, trial, got, kg.Evaluate(st, q, nil), "LeftDeep")
	}
}

// TestPropertyIncrementalMergeAgainstWeightedOracle merges a pattern with
// two weighted relaxations and compares against per-pattern weighted Evaluate
// runs projected onto the original variable set and deduped by max score —
// the max-over-derivations rule the merge implements incrementally.
func TestPropertyIncrementalMergeAgainstWeightedOracle(t *testing.T) {
	for trial := int64(0); trial < 60; trial++ {
		rng := rand.New(rand.NewSource(9000 + trial))
		st := randStore(t, rng, 60+rng.Intn(120))

		orig := kg.NewPattern(kg.Var("x"), kg.Const(kg.ID(8+rng.Intn(3))), kg.Const(kg.ID(11+rng.Intn(5))))
		relaxed := []kg.Pattern{
			// Broaden the object to a fresh variable (out-of-varset: the
			// dedup-on path) and retarget the constant.
			kg.NewPattern(kg.Var("x"), orig.P, kg.Var("free")),
			kg.NewPattern(kg.Var("x"), kg.Const(kg.ID(8+rng.Intn(3))), kg.Const(kg.ID(11+rng.Intn(5)))),
		}
		weights := []float64{0.6, 0.4}

		q := kg.NewQuery(orig)
		vs := kg.NewVarSet(q)
		inputs := []operators.Stream{operators.NewListScan(st, vs, orig, 1, 0, nil)}
		for i, rp := range relaxed {
			inputs = append(inputs, operators.NewListScan(st, vs, rp, weights[i], 1, nil))
		}
		m := operators.NewIncrementalMerge(inputs, nil)
		entries := operators.Drain(m)
		if !operators.IsSortedDesc(entries) {
			t.Fatalf("trial %d: merge output not sorted", trial)
		}
		got := make([]kg.Answer, len(entries))
		for i, e := range entries {
			got[i] = kg.Answer{Binding: e.Binding, Score: e.Score}
		}

		// Oracle: evaluate each pattern as a one-pattern weighted query,
		// project onto the original variable set, keep the max per binding.
		var all []kg.Answer
		project := func(p kg.Pattern, w float64) {
			pq := kg.NewQuery(p)
			pvs := kg.NewVarSet(pq)
			for _, a := range kg.Evaluate(st, pq, []float64{w}) {
				proj := kg.NewBinding(vs.Len())
				for vi := 0; vi < pvs.Len(); vi++ {
					if oi := vs.Index(pvs.Name(vi)); oi >= 0 {
						proj[oi] = a.Binding[vi]
					}
				}
				all = append(all, kg.Answer{Binding: proj, Score: a.Score})
			}
		}
		project(orig, 1)
		for i, rp := range relaxed {
			project(rp, weights[i])
		}
		want := kg.DedupMax(all)
		compareAnswerSets(t, trial, got, want, "IncrementalMerge")
	}
}
