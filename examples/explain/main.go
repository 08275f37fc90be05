// Command explain walks through the Spec-QP estimator step by step on a
// controlled knowledge graph, printing the quantities the paper defines:
// per-pattern two-bucket statistics {m, σr, Sr, Sm}, the expected k-th score
// of the original query EQ(k), each pattern's top-weighted relaxation
// estimate EQ'(1), and the resulting plan partition. It is the debugging
// companion to Algorithm 1 (PLANGEN).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"specqp"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	st := specqp.NewStore()

	// Three populations:
	//   A — 200 entities, strong scores (stars);
	//   B — 30 entities, scarce (forces relaxation for large k);
	//   C — 150 entities, strong; the relaxation target for B;
	//   D — 100 entities; a weak relaxation target for A.
	addPop := func(prefix, ty string, n int, maxScore float64) {
		for i := 0; i < n; i++ {
			score := maxScore / float64(1+i) * (0.8 + 0.4*rng.Float64())
			name := fmt.Sprintf("%s%03d", prefix, i)
			if err := st.AddSPO(name, "rdf:type", ty, score); err != nil {
				log.Fatal(err)
			}
		}
	}
	addPop("e", "A", 200, 10000)
	for i := 0; i < 30; i++ { // B overlaps A's top entities
		name := fmt.Sprintf("e%03d", i*3)
		if err := st.AddSPO(name, "rdf:type", "B", 5000/float64(1+i)); err != nil {
			log.Fatal(err)
		}
	}
	addPop("e", "C", 150, 9000)
	addPop("x", "D", 100, 2000)
	st.Freeze()

	dict := st.Dict()
	typeID, _ := dict.Lookup("rdf:type")
	pat := func(object string) specqp.Pattern {
		id, _ := dict.Lookup(object)
		return specqp.NewPattern(specqp.Var("s"), specqp.Const(typeID), specqp.Const(id))
	}

	rules := specqp.NewRuleSet()
	must(rules.Add(specqp.Rule{From: pat("B"), To: pat("C"), Weight: 0.85}))
	must(rules.Add(specqp.Rule{From: pat("A"), To: pat("D"), Weight: 0.4}))

	eng := specqp.NewEngine(st, rules)
	q := specqp.NewQuery(pat("A"), pat("B"))

	fmt.Println("per-pattern statistics (the paper's precomputed metadata):")
	for i, p := range q.Patterns {
		stats, err := eng.PatternStats(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  pattern %d %s: m=%d σr=%.4f Sr=%.2f Sm=%.2f\n",
			i, st.Dict().PatternString(p), stats.M, stats.SigmaR, stats.SR, stats.SM)
	}

	for _, k := range []int{5, 20, 60} {
		plan := eng.PlanQuery(q, k)
		fmt.Printf("\n===== k=%d =====\n", k)
		fmt.Print(eng.Explain(plan))

		res, err := eng.Query(q, k, specqp.ModeSpecQP)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := eng.Query(q, k, specqp.ModeTriniT)
		if err != nil {
			log.Fatal(err)
		}
		match := 0
		truthSet := map[string]bool{}
		for _, a := range truth.Answers {
			truthSet[a.Binding.Key()] = true
		}
		for _, a := range res.Answers {
			if truthSet[a.Binding.Key()] {
				match++
			}
		}
		fmt.Printf("answers: %d (vs TriniT %d), overlap %d; objects S=%d T=%d\n",
			len(res.Answers), len(truth.Answers), match, res.MemoryObjects, truth.MemoryObjects)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
