package relax

import (
	"fmt"

	"specqp/internal/kg"
)

// Chain relaxations implement the extension the paper names as future work
// in Section 6: "replacing a triple pattern with a chain of triple patterns".
// A Rule whose Chain field is non-empty rewrites its domain pattern into a
// conjunction of patterns instead of a single pattern; fresh variables in the
// chain act as existentials. Example:
//
//	〈?s hasGrandparent ?g〉  →  〈?s hasParent ?p〉 . 〈?p hasParent ?g〉
//
// Execution materialises the chain's answers, projects them onto the
// variables of the original pattern, and scores each projected match with
// the average of the chain triples' normalised scores (keeping the value in
// [0,1] so Definition 5's "top score equals the rule weight" property is
// preserved).

// IsChain reports whether the rule rewrites into a chain of patterns.
func (r Rule) IsChain() bool { return len(r.Chain) > 0 }

// ValidateChain checks chain-specific invariants: every variable of the
// domain pattern must be bound somewhere in the chain, so the rewritten
// query stays connected.
func (r Rule) ValidateChain() error {
	if !r.IsChain() {
		return nil
	}
	bound := map[string]bool{}
	for _, p := range r.Chain {
		for _, v := range p.Vars() {
			bound[v] = true
		}
	}
	for _, v := range r.From.Vars() {
		if !bound[v] {
			return fmt.Errorf("relax: chain does not bind domain variable ?%s", v)
		}
	}
	return nil
}

// ApplyChain rewrites query pattern p with the chain rule r: the domain
// pattern's variables are renamed positionally to p's variable names
// (mirroring Apply), and every other chain variable gets a fresh name that
// cannot collide with query variables.
func ApplyChain(r Rule, p kg.Pattern) []kg.Pattern {
	rename := map[string]string{}
	bindPos := func(from, orig kg.Term) {
		if from.IsVar && orig.IsVar {
			rename[from.Name] = orig.Name
		}
	}
	bindPos(r.From.S, p.S)
	bindPos(r.From.P, p.P)
	bindPos(r.From.O, p.O)

	fresh := 0
	mapTerm := func(t kg.Term) kg.Term {
		if !t.IsVar {
			return t
		}
		if to, ok := rename[t.Name]; ok {
			return kg.Var(to)
		}
		// Existential variable: allocate a stable fresh name.
		name := fmt.Sprintf("_chain%d_%s", fresh, t.Name)
		rename[t.Name] = name
		fresh++
		return kg.Var(name)
	}
	out := make([]kg.Pattern, len(r.Chain))
	for i, cp := range r.Chain {
		out[i] = kg.NewPattern(mapTerm(cp.S), mapTerm(cp.P), mapTerm(cp.O))
	}
	return out
}

// ChainMatches materialises the answers of a chain (already rewritten with
// ApplyChain) projected onto the enclosing query's variable set vs. Each
// projected match is scored with the average of the chain triples'
// normalised scores; duplicate projections keep the maximum. The result is
// sorted by score descending — the "sorted answer list" shape the operators
// expect.
func ChainMatches(st kg.Graph, chain []kg.Pattern, vs *kg.VarSet) []kg.Answer {
	sub := kg.NewQuery(chain...)
	subVS := kg.NewVarSet(sub)
	raw := kg.Evaluate(st, sub, nil)

	n := float64(len(chain))
	out := make([]kg.Answer, 0, len(raw))
	for _, a := range raw {
		proj := kg.NewBinding(vs.Len())
		for i := 0; i < subVS.Len(); i++ {
			if a.Binding[i] == kg.NoID {
				continue
			}
			if qi := vs.Index(subVS.Name(i)); qi >= 0 {
				proj[qi] = a.Binding[i]
			}
		}
		out = append(out, kg.Answer{Binding: proj, Score: a.Score / n})
	}
	out = kg.DedupMax(out)
	kg.SortAnswers(out)
	return out
}
