package exec

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"specqp/internal/kg"
	"specqp/internal/operators"
	"specqp/internal/planner"
	"specqp/internal/relax"
)

// This file is the differential oracle of the probe-join core: the tree the
// executor builds — ProbeJoin for every leg it can probe — against two
// references. One is operators.LeftDeep's RankJoin tree over the very same
// legs, each leg then a scan or an Incremental Merge over its pattern and
// relaxations. The other is the exact evaluation Executor.Naive performs,
// which both trees must match, also once a relaxation replaces a join
// variable with a constant and leaves it unbound.

// probeWorld is a random store over a tiny vocabulary, so probe keys repeat,
// (s,p,o) keys are duplicated and scores tie, plus relaxation rules for the
// query patterns drawn by probeQuery.
type probeWorld struct {
	triples []kg.Triple
	dict    *kg.Dict
}

const (
	probeEntities = 7  // IDs 0..6: subjects and objects
	probePreds    = 3  // IDs 7..9
	probeConsts   = 4  // IDs 10..13: object constants
	probeVocab    = 14 // dictionary terms
)

func newProbeWorld(rng *rand.Rand) probeWorld {
	d := kg.NewDict()
	for i := 0; i < probeVocab; i++ {
		d.Encode(fmt.Sprintf("t%d", i))
	}
	w := probeWorld{dict: d}
	n := 40 + rng.Intn(80)
	for i := 0; i < n; i++ {
		s := kg.ID(rng.Intn(probeEntities))
		p := kg.ID(probeEntities + rng.Intn(probePreds))
		o := kg.ID(rng.Intn(probeEntities))
		if rng.Intn(3) == 0 {
			o = kg.ID(probeEntities + probePreds + rng.Intn(probeConsts))
		}
		// Few distinct scores, so equal scores are common. They are powers
		// of two, as are the normalisation constants, so every weighted sum
		// is exact and the exact evaluation, which adds in another order,
		// gives the same score bits.
		w.triples = append(w.triples, kg.Triple{S: s, P: p, O: o, Score: float64(int(1) << rng.Intn(4))})
		if rng.Intn(4) == 0 {
			w.triples = append(w.triples, kg.Triple{S: s, P: p, O: o, Score: float64(int(1) << rng.Intn(4))})
		}
	}
	return w
}

// flat freezes every triple into one store.
func (w probeWorld) flat(t *testing.T) *kg.Store {
	st := kg.NewStore(w.dict)
	for _, tr := range w.triples {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	return st
}

// live freezes the first third, then inserts the rest with tiered
// compaction, so the store ends with a main segment, an L1 tier and a head,
// and deletes a few keys, leaving pending tombstones.
func (w probeWorld) live(t *testing.T, rng *rand.Rand) *kg.Store {
	st := kg.NewStore(w.dict)
	cut := len(w.triples) / 3
	for _, tr := range w.triples[:cut] {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	st.SetHeadLimit(8)
	st.SetL1Limit(1 << 20)
	for _, tr := range w.triples[cut:] {
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		tr := w.triples[rng.Intn(len(w.triples))]
		if _, err := st.Delete(tr.S, tr.P, tr.O); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// probeQuery draws a 2–4 pattern chain or star over variables a..e, with
// constant objects now and then.
func probeQuery(rng *rand.Rand) kg.Query {
	n := 2 + rng.Intn(3)
	star := rng.Intn(2) == 0
	names := []string{"a", "b", "c", "d", "e"}
	var ps []kg.Pattern
	for i := 0; i < n; i++ {
		s := kg.Var(names[i])
		if star {
			s = kg.Var(names[0])
		}
		p := kg.Const(kg.ID(probeEntities + rng.Intn(probePreds)))
		o := kg.Var(names[i+1])
		if rng.Intn(4) == 0 {
			o = kg.Const(kg.ID(probeEntities + probePreds + rng.Intn(probeConsts)))
		}
		ps = append(ps, kg.NewPattern(s, p, o))
	}
	return kg.NewQuery(ps...)
}

// probeRules draws up to three relaxations per query pattern: another
// predicate, a fresh variable in place of the predicate, a fresh variable in
// place of an object constant, another object constant, and now and then a
// chain rule, which keeps that leg on the RankJoin path. A fresh variable is
// one outside the query, so the match widens but binds nothing more. With
// dropJoins, a constant may also replace a subject or an object variable
// that another pattern shares, and no chain rule is drawn; without it a
// constant replaces only an object variable no other pattern shares. It
// reports whether a chain rule was drawn.
func probeRules(t *testing.T, rng *rand.Rand, q kg.Query, dropJoins bool) (rs *relax.RuleSet, chains bool) {
	rs = relax.NewRuleSet()
	weights := []float64{0.5, 0.75, 1}
	// Rules apply by pattern shape, so a constant may replace the object
	// variable of a shape only if no pattern of that shape shares it.
	uses := map[string]int{}
	for _, p := range q.Patterns {
		for _, v := range p.Vars() {
			uses[v]++
		}
	}
	joined := map[kg.PatternKey]bool{}
	for _, p := range q.Patterns {
		if p.O.IsVar && uses[p.O.Name] > 1 {
			joined[p.Key()] = true
		}
	}
	for _, p := range q.Patterns {
		for r := rng.Intn(4); r > 0; r-- {
			w := weights[rng.Intn(len(weights))]
			to := p
			switch rng.Intn(6) {
			case 0:
				to.P = kg.Const(kg.ID(probeEntities + rng.Intn(probePreds)))
			case 1:
				if p.O.IsVar {
					continue
				}
				to.O = kg.Var("fresh")
			case 2:
				if joined[p.Key()] && !dropJoins {
					continue
				}
				to.O = kg.Const(kg.ID(probeEntities + probePreds + rng.Intn(probeConsts)))
			case 3:
				to.P = kg.Var("fresh")
			case 4:
				if !dropJoins || !p.S.IsVar {
					continue
				}
				to.S = kg.Const(kg.ID(rng.Intn(probeEntities)))
			case 5:
				if dropJoins || !p.S.IsVar || !p.O.IsVar || rng.Intn(2) == 0 {
					continue
				}
				rule := relax.Rule{From: p, Weight: w, Chain: []kg.Pattern{
					kg.NewPattern(p.S, kg.Const(kg.ID(probeEntities+rng.Intn(probePreds))), kg.Var("m")),
					kg.NewPattern(kg.Var("m"), kg.Const(kg.ID(probeEntities+rng.Intn(probePreds))), p.O),
				}}
				if err := rs.Add(rule); err != nil {
					t.Fatal(err)
				}
				chains = true
				continue
			}
			if to == p {
				continue
			}
			if err := rs.Add(relax.Rule{From: p, To: to, Weight: w}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return rs, chains
}

// naiveAnswer is one binding of the exact reference: its best score and the
// Relaxed mask of every derivation reaching it.
type naiveAnswer struct {
	score float64
	masks []uint32
}

// naiveAnswers evaluates plan p over g the way Executor.Naive does, for rule
// sets without chain rules: every relaxed query the plan allows (its
// singletons relaxed, its join group not) is evaluated exactly by
// kg.Evaluate and projected onto the query's variables. Unlike Naive it
// keeps every mask reaching a binding's best score, since which of several
// equal-score derivations an engine reports is not fixed. A variable outside
// the query is existential to its pattern, as the operators treat it, so
// each relaxed pattern gets its own copy.
func naiveAnswers(g kg.Graph, rs *relax.RuleSet, p planner.Plan) map[string]*naiveAnswer {
	q := p.Query
	vs := kg.NewVarSet(q)
	relaxable := make([]bool, len(q.Patterns))
	for _, i := range p.Singletons {
		relaxable[i] = true
	}
	out := map[string]*naiveAnswer{}
	for _, rq := range rs.Enumerate(q, 0) {
		var mask uint32
		allowed := true
		for i, ri := range rq.Applied {
			if ri >= 0 {
				allowed = allowed && relaxable[i]
				mask |= 1 << uint(i)
			}
		}
		if !allowed {
			continue
		}
		pats := slices.Clone(rq.Query.Patterns)
		for i := range pats {
			own := func(t kg.Term) kg.Term {
				if t.IsVar && vs.Index(t.Name) < 0 {
					return kg.Var(fmt.Sprintf("%s.%d", t.Name, i))
				}
				return t
			}
			pats[i] = kg.NewPattern(own(pats[i].S), own(pats[i].P), own(pats[i].O))
		}
		rqq := kg.NewQuery(pats...)
		rvs := kg.NewVarSet(rqq)
		for _, a := range kg.Evaluate(g, rqq, rq.PatternWeights) {
			b := kg.NewBinding(vs.Len())
			for v := range b {
				if j := rvs.Index(vs.Name(v)); j >= 0 {
					b[v] = a.Binding[j]
				}
			}
			switch n := out[b.Key()]; {
			case n == nil || a.Score > n.score:
				out[b.Key()] = &naiveAnswer{score: a.Score, masks: []uint32{mask}}
			case a.Score == n.score:
				n.masks = append(n.masks, mask)
			}
		}
	}
	return out
}

// sameAsNaive checks got, a top-k, against the exact reference: the score
// bits at every rank equal the reference's at that rank, and every answer
// is a distinct reference binding carrying its best score's bits and the
// Relaxed mask of a derivation reaching it.
func sameAsNaive(t *testing.T, label string, got []operators.Entry, k int, ref map[string]*naiveAnswer) {
	t.Helper()
	scores := make([]float64, 0, len(ref))
	for _, a := range ref {
		scores = append(scores, a.score)
	}
	slices.SortFunc(scores, func(a, b float64) int { return cmp.Compare(b, a) })
	if len(scores) > k {
		scores = scores[:k]
	}
	if len(got) != len(scores) {
		t.Fatalf("%s: %d answers, exact evaluation %d", label, len(got), len(scores))
	}
	seen := make(map[string]bool, len(got))
	for i, g := range got {
		if math.Float64bits(g.Score) != math.Float64bits(scores[i]) {
			t.Fatalf("%s: rank %d score %v, exact evaluation %v", label, i, g.Score, scores[i])
		}
		key := g.Binding.Key()
		if seen[key] {
			t.Fatalf("%s: binding %v emitted twice", label, g.Binding)
		}
		seen[key] = true
		a := ref[key]
		switch {
		case a == nil:
			t.Fatalf("%s: rank %d binding %v not an exact answer", label, i, g.Binding)
		case math.Float64bits(g.Score) != math.Float64bits(a.score):
			t.Fatalf("%s: binding %v score %v, exact evaluation %v", label, g.Binding, g.Score, a.score)
		case !slices.Contains(a.masks, g.Relaxed):
			t.Fatalf("%s: binding %v relaxed %b, exact derivations %b", label, g.Binding, g.Relaxed, a.masks)
		}
	}
}

// probeCores drains plan p's tree twice over one pin: as the executor builds
// it, and as LeftDeep's RankJoin tree over the same legs. It returns both
// entry sequences, their memory objects, and 1 when the executor's root is
// a ProbeJoin.
func probeCores(ex *Executor, p planner.Plan) (got, want []operators.Entry, gotObjs, wantObjs int64, probes int) {
	var cg, cw operators.Counter
	root := ex.buildStream(p, &cg)
	got = operators.DrainK(root, p.K)
	if _, ok := root.(*operators.ProbeJoin); ok {
		probes = 1
	}

	g := ex.Store.Pin()
	vs := kg.NewVarSet(p.Query)
	legs := ex.buildLegs(g, p, vs, &cw)
	streams := make([]operators.Stream, len(legs))
	vars := make([]map[int]bool, len(legs))
	for i := range legs {
		ex.open(g, vs, &legs[i], &cw)
		streams[i], vars[i] = legs[i].stream, legs[i].vars
	}
	want = operators.DrainK(operators.LeftDeep(streams, vars, &cw), p.K)
	return got, want, cg.Value(), cw.Value(), probes
}

// sameEntries checks got against want answer for answer: the same length,
// the same score at every rank (equal-score answers may come in another
// order, since RankJoin orders ties by its pull schedule), and every answer
// of got carrying the score bits and Relaxed of the same binding in all,
// LeftDeep's complete answer set.
func sameEntries(t *testing.T, label string, got, want, all []operators.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, LeftDeep %d", label, len(got), len(want))
	}
	byKey := make(map[string]operators.Entry, len(all))
	for _, e := range all {
		byKey[e.Binding.Key()] = e
	}
	seen := make(map[string]bool, len(got))
	for i, g := range got {
		w := want[i]
		if math.Abs(g.Score-w.Score) > 1e-9 {
			t.Fatalf("%s: rank %d score %v, LeftDeep %v", label, i, g.Score, w.Score)
		}
		k := g.Binding.Key()
		if seen[k] {
			t.Fatalf("%s: binding %v emitted twice", label, g.Binding)
		}
		seen[k] = true
		ref, ok := byKey[k]
		switch {
		case !ok:
			t.Fatalf("%s: rank %d binding %v not a LeftDeep answer", label, i, g.Binding)
		case math.Float64bits(g.Score) != math.Float64bits(ref.Score):
			t.Fatalf("%s: binding %v score %v, LeftDeep %v", label, g.Binding, g.Score, ref.Score)
		case g.Relaxed != ref.Relaxed:
			t.Fatalf("%s: binding %v relaxed %b, LeftDeep %b", label, g.Binding, g.Relaxed, ref.Relaxed)
		}
	}
}

// TestProbeJoinMatchesRankJoin is the probe core's differential oracle: on
// random stores, queries, rules and plans, over a flat store, a live store
// with a head, an L1 tier and tombstones, and a 3-shard pin, the executor's
// tree must give LeftDeep's answers answer for answer and never create more
// memory objects. In every trial without a chain rule both trees must also
// give the exact evaluation's answers; in half of the trials a relaxation
// may replace a join variable with a constant, where the two may report
// different Relaxed bits for equal-score derivations, so only the exact
// evaluation is compared there.
func TestProbeJoinMatchesRankJoin(t *testing.T) {
	var probed, live, tiers, tombs, heads, dropped, exact int
	for trial := int64(0); trial < 150; trial++ {
		rng := rand.New(rand.NewSource(4100 + trial))
		w := newProbeWorld(rng)
		q := probeQuery(rng)
		dropJoins := rng.Intn(2) == 0
		rules, chains := probeRules(t, rng, q, dropJoins)
		flat := w.flat(t)
		lst := w.live(t, rng)
		live++
		if lst.L1Len() > 0 {
			tiers++
		}
		if lst.Tombstones() > 0 {
			tombs++
		}
		if lst.HeadLen() > 0 {
			heads++
		}
		if dropJoins {
			dropped++
		}
		plan := planner.TriniTPlan(q, 0)
		if rng.Intn(2) == 0 {
			// A mixed plan: some patterns join unrelaxed.
			plan = planner.Plan{Query: q.Clone()}
			for i := range q.Patterns {
				if rng.Intn(2) == 0 {
					plan.JoinGroup = append(plan.JoinGroup, i)
				} else {
					plan.Singletons = append(plan.Singletons, i)
				}
			}
		}
		// The sharded store holds the flat store's triples, so the two share
		// one exact reference.
		var flatRef, liveRef map[string]*naiveAnswer
		if !chains {
			flatRef, liveRef = naiveAnswers(flat, rules, plan), naiveAnswers(lst, rules, plan)
			exact++
		}
		graphs := []struct {
			name string
			g    kg.Graph
			ref  map[string]*naiveAnswer
		}{
			{"flat", flat, flatRef},
			{"live", lst, liveRef},
			{"sharded", kg.NewShardedStoreFrom(flat, 3), flatRef},
		}
		for _, gr := range graphs {
			ex := New(gr.g, rules)
			var all []operators.Entry
			if !dropJoins {
				plan.K = math.MaxInt
				_, all, _, _, _ = probeCores(ex, plan)
			}
			for _, k := range []int{1, 3, math.MaxInt} {
				plan.K = k
				label := fmt.Sprintf("trial %d %s k=%d", trial, gr.name, k)
				got, want, gotObjs, wantObjs, probes := probeCores(ex, plan)
				if gr.ref != nil {
					sameAsNaive(t, label, got, k, gr.ref)
					sameAsNaive(t, label+" LeftDeep", want, k, gr.ref)
				}
				probed += probes
				if dropJoins {
					continue
				}
				sameEntries(t, label, got, want, all)
				if gotObjs > wantObjs {
					t.Fatalf("%s: %d memory objects, LeftDeep %d", label, gotObjs, wantObjs)
				}
			}
		}
	}
	if probed == 0 || tiers == 0 || tombs == 0 || heads == 0 || dropped == 0 || exact == 0 {
		t.Fatalf("coverage: %d probe joins; of %d live stores %d with an L1 tier, %d with tombstones, %d with a head; %d trials dropping joins, %d exact references",
			probed, live, tiers, tombs, heads, dropped, exact)
	}
	t.Logf("%d probe joins; %d trials dropping joins, %d with an exact reference", probed, dropped, exact)
}
