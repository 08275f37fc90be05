// Command quickstart is the smallest end-to-end use of the specqp public
// API: build a tiny scored knowledge graph, add two relaxation rules, and ask
// for the top-3 multi-talented musicians under the TriniT baseline and Spec-QP.
package main

import (
	"fmt"
	"log"

	"specqp"
)

func main() {
	st := specqp.NewStore()
	// 〈subject predicate object〉 with a popularity score.
	triples := []struct {
		s, p, o string
		score   float64
	}{
		{"shakira", "rdf:type", "singer", 100},
		{"beyonce", "rdf:type", "singer", 90},
		{"miley", "rdf:type", "singer", 50},
		{"prince", "rdf:type", "vocalist", 95},
		{"elton", "rdf:type", "vocalist", 85},
		{"shakira", "rdf:type", "guitarist", 40},
		{"prince", "rdf:type", "guitarist", 99},
		{"elton", "rdf:type", "pianist", 88},
		{"miley", "rdf:type", "musician", 45},
		{"beyonce", "rdf:type", "musician", 70},
	}
	for _, t := range triples {
		if err := st.AddSPO(t.s, t.p, t.o, t.score); err != nil {
			log.Fatal(err)
		}
	}
	st.Freeze()

	dict := st.Dict()
	typeID, _ := dict.Lookup("rdf:type")
	pat := func(object string) specqp.Pattern {
		id, _ := dict.Lookup(object)
		return specqp.NewPattern(specqp.Var("s"), specqp.Const(typeID), specqp.Const(id))
	}

	// Relaxation rules (Definition 7): singer may be relaxed to vocalist at
	// a 0.8 score penalty, guitarist to musician at 0.7.
	rules := specqp.NewRuleSet()
	must(rules.Add(specqp.Rule{From: pat("singer"), To: pat("vocalist"), Weight: 0.8}))
	must(rules.Add(specqp.Rule{From: pat("guitarist"), To: pat("musician"), Weight: 0.7}))

	eng := specqp.NewEngine(st, rules)

	q, err := eng.ParseSPARQL(`SELECT ?s WHERE {
		?s 'rdf:type' <singer> .
		?s 'rdf:type' <guitarist>
	}`)
	if err != nil {
		log.Fatal(err)
	}

	for _, mode := range []specqp.Mode{specqp.ModeTriniT, specqp.ModeSpecQP} {
		res, err := eng.Query(q, 3, mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s (objects=%d, time=%v)\n", mode, res.MemoryObjects, res.TotalTime())
		for rank, a := range res.Answers {
			vars := eng.DecodeAnswer(q, a)
			fmt.Printf("  %d. %-8s score=%.3f relaxed=%v\n", rank+1, vars["s"], a.Score, a.RelaxedCount() > 0)
		}
	}

	// Inspect the speculative plan.
	plan := eng.PlanQuery(q, 3)
	fmt.Println("\nplanner reasoning:")
	fmt.Print(eng.Explain(plan))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
