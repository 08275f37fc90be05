// Package relax implements weighted relaxation rules over triple patterns
// (Definition 7 of the paper), rule sets keyed by pattern, enumeration of
// relaxed queries (Definition 8), and two rule miners matching the paper's
// datasets: a type-hierarchy miner (XKG-style) and a co-occurrence miner
// (Twitter-style, w = #items(T1∧T2)/#items(T1)).
//
// A RuleSet is three flat columns, not a map: the distinct domain-pattern
// keys in ascending order, an offset per key, and one 88-byte Entry per rule
// (target pattern, weight, two small side-table indexes). For(p) is a binary
// search on p.Key() that returns a sub-slice of the entries.
package relax

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"specqp/internal/kg"
)

// Rule is a weighted relaxation rule r = (q, q', w): pattern q may be
// rewritten to q' at a score penalty factor w ∈ (0,1]. When Chain is
// non-empty the rule is a chain relaxation (the paper's Section 6 extension)
// and To is ignored — see chain.go. Rule is what RuleSet.Add takes and
// RuleSet.Rule and Top give back; the set stores it as an Entry.
type Rule struct {
	From   kg.Pattern
	To     kg.Pattern
	Chain  []kg.Pattern
	Weight float64
}

// Validate checks rule invariants.
func (r Rule) Validate() error {
	if !(r.Weight > 0 && r.Weight <= 1) {
		return fmt.Errorf("relax: rule weight %v outside (0,1]", r.Weight)
	}
	return r.ValidateChain()
}

// Entry is one stored rule, as For returns it: the target pattern and the
// weight. It does not hold the domain pattern — For(p) finds entries by
// p.Key(), so p carries the domain's constants and variable positions, and
// RuleSet.Rule rebuilds the whole rule when the domain's variable names or a
// chain are needed.
type Entry struct {
	To     kg.Pattern
	Weight float64
	vars   uint32 // index into RuleSet.vars: the domain's variable names
	chain  uint32 // 1 + index into RuleSet.chains; 0 for a plain rule
}

// IsChain reports whether the entry is a chain relaxation; RuleSet.Rule
// gives its chain.
func (e Entry) IsChain() bool { return e.chain != 0 }

// RuleSet stores relaxation rules ordered by the domain pattern's canonical
// key, then by weight descending (ties by target key, then insertion order),
// so the first rule of a domain is the "top-weighted relaxation" PLANGEN
// tests. Add stages rules; the first read after an Add sorts everything
// staged into the columns at once. For, Top, Rule, Len, MaxFanout, Enumerate
// and WriteTSV are safe for concurrent use; Add must not run beside them.
type RuleSet struct {
	mu      sync.Mutex
	stale   atomic.Bool // pending holds rules the columns do not
	pending []staged

	keys    []kg.PatternKey // distinct domain keys, ascending
	offs    []int32         // entries[offs[i]:offs[i+1]] have domain keys[i]
	entries []Entry
	vars    [][3]string    // distinct domain variable-name triples, "" at constants
	chains  [][]kg.Pattern // chain bodies, referenced by Entry.chain
}

// staged is a rule waiting for the next settle, or one being re-sorted.
type staged struct {
	key  kg.PatternKey
	vars [3]string
	e    Entry
}

// NewRuleSet returns an empty rule set.
func NewRuleSet() *RuleSet { return &RuleSet{} }

// Add inserts a rule. Variable names are interned when the rule is sorted
// in, so a rule parsed from text does not keep its input line alive.
func (rs *RuleSet) Add(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	e := Entry{To: r.To, Weight: r.Weight}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if r.IsChain() {
		rs.chains = append(rs.chains, slices.Clone(r.Chain))
		e.chain = uint32(len(rs.chains))
	}
	var names [3]string
	for i, t := range terms(&r.From) {
		if t.IsVar {
			names[i] = t.Name
		}
	}
	rs.pending = append(rs.pending, staged{r.From.Key(), names, e})
	rs.stale.Store(true)
	return nil
}

// ready sorts staged rules into the columns; every read calls it first.
func (rs *RuleSet) ready() {
	if rs.stale.Load() {
		rs.settle()
	}
}

// settle rebuilds the columns from the stored and the staged rules with one
// sort, and interns every variable name. It builds fresh slices, so
// sub-slices handed out by For before a later Add stay intact.
func (rs *RuleSet) settle() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.stale.Load() {
		return
	}
	all := make([]staged, 0, len(rs.entries)+len(rs.pending))
	for i, k := range rs.keys {
		for _, e := range rs.entries[rs.offs[i]:rs.offs[i+1]] {
			all = append(all, staged{k, rs.vars[e.vars], e})
		}
	}
	all = append(all, rs.pending...)
	// Sort a permutation, not the 150-byte records; the index tie-break
	// keeps equal rules in insertion order.
	order := make([]int32, len(all))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := &all[i], &all[j]
		if c := cmpKey(a.key, b.key); c != 0 {
			return c
		}
		if c := cmp.Compare(b.e.Weight, a.e.Weight); c != 0 {
			return c
		}
		if c := cmpKey(a.e.To.Key(), b.e.To.Key()); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})

	// One copy of each variable name, and one of each domain's name triple,
	// serves every rule. The maps live for this rebuild only.
	names := map[string]string{}
	name := func(s string) string {
		c, ok := names[s]
		if !ok {
			c = strings.Clone(s)
			names[s] = c
		}
		return c
	}
	intern := func(p *kg.Pattern) {
		for _, t := range terms(p) {
			if t.IsVar {
				t.Name = name(t.Name)
			}
		}
	}
	for _, s := range rs.pending {
		if s.e.chain != 0 {
			chain := rs.chains[s.e.chain-1]
			for i := range chain {
				intern(&chain[i])
			}
		}
	}
	varsIdx := map[[3]string]uint32{}
	var vars [][3]string

	nk := 0
	for n, i := range order {
		if n == 0 || all[i].key != all[order[n-1]].key {
			nk++
		}
	}
	keys := make([]kg.PatternKey, 0, nk)
	offs := make([]int32, 0, nk+1)
	entries := make([]Entry, len(all))
	for n, i := range order {
		s := &all[i]
		if n == 0 || s.key != keys[len(keys)-1] {
			keys = append(keys, s.key)
			offs = append(offs, int32(n))
		}
		for j := range s.vars {
			s.vars[j] = name(s.vars[j])
		}
		vi, ok := varsIdx[s.vars]
		if !ok {
			vi = uint32(len(vars))
			vars = append(vars, s.vars)
			varsIdx[s.vars] = vi
		}
		e := s.e
		intern(&e.To)
		e.vars = vi
		entries[n] = e
	}
	offs = append(offs, int32(len(all)))
	rs.keys, rs.offs, rs.entries, rs.vars = keys, offs, entries, vars
	rs.pending = nil
	rs.stale.Store(false)
}

// terms returns pointers to p's three positions, in S, P, O order.
func terms(p *kg.Pattern) [3]*kg.Term { return [3]*kg.Term{&p.S, &p.P, &p.O} }

// cmpKey orders pattern keys by S, P, O, then shape.
func cmpKey(a, b kg.PatternKey) int {
	if c := cmp.Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	if c := cmp.Compare(a.O, b.O); c != 0 {
		return c
	}
	return cmp.Compare(a.Shape, b.Shape)
}

// For returns the rules whose domain matches pattern p, best weight first.
// It allocates nothing; the returned slice must not be mutated.
func (rs *RuleSet) For(p kg.Pattern) []Entry {
	rs.ready()
	i, ok := slices.BinarySearchFunc(rs.keys, p.Key(), cmpKey)
	if !ok {
		return nil
	}
	lo, hi := rs.offs[i], rs.offs[i+1]
	return rs.entries[lo:hi:hi]
}

// Rule rebuilds the rule behind e, an entry of For(p): its domain has p's
// constants and the rule's own variable names, and a chain rule carries its
// chain (which must not be mutated).
func (rs *RuleSet) Rule(p kg.Pattern, e Entry) Rule {
	rs.ready()
	r := Rule{From: domain(p.Key(), rs.vars[e.vars]), To: e.To, Weight: e.Weight}
	if e.chain != 0 {
		r.Chain = rs.chains[e.chain-1]
	}
	return r
}

// domain rebuilds a domain pattern from its key and variable names.
func domain(k kg.PatternKey, names [3]string) kg.Pattern {
	term := func(id kg.ID, name string) kg.Term {
		if id == kg.NoID {
			return kg.Term{Name: name, IsVar: true}
		}
		return kg.Const(id)
	}
	return kg.NewPattern(term(k.S, names[0]), term(k.P, names[1]), term(k.O, names[2]))
}

// Top returns the top-weighted relaxation for p, or false if p has none.
func (rs *RuleSet) Top(p kg.Pattern) (Rule, bool) {
	l := rs.For(p)
	if len(l) == 0 {
		return Rule{}, false
	}
	return rs.Rule(p, l[0]), true
}

// Len reports the total number of rules.
func (rs *RuleSet) Len() int {
	rs.ready()
	return len(rs.entries)
}

// MaxFanout returns the largest number of rules attached to any single
// pattern (useful for dataset sanity checks: the paper requires ≥10 for XKG
// and ≥5 for Twitter).
func (rs *RuleSet) MaxFanout() int {
	rs.ready()
	m := 0
	for i := range rs.keys {
		m = max(m, int(rs.offs[i+1]-rs.offs[i]))
	}
	return m
}

// RelaxedQuery names one application of rules to a query: for each original
// pattern index, which rule (if any) was applied. Weights multiply
// (Definition 8: "The score is reduced further for each subsequent
// relaxation"). Chain rules splice several patterns into the rewritten
// query, so PatternWeights is aligned to Query.Patterns (not to the original
// query): a chain of length L applied with weight w contributes w/L per
// spliced pattern, making the chain's total contribution w × the average
// normalised score.
type RelaxedQuery struct {
	Query          kg.Query
	Applied        []int // per original pattern: -1 original, else rule index
	Weight         float64
	PatternWeights []float64 // per rewritten pattern
}

// Enumerate lists every relaxed query obtainable by independently choosing,
// for each pattern, either the original or one of its relaxations (including
// chain relaxations, which splice multiple patterns). The original query
// (all -1) is included first. For a query with relaxation fan-outs f1..fn
// this yields ∏(fi+1) queries — the combinatorial space whose full
// exploration the paper's Introduction costs at 48 for its example.
//
// limit > 0 caps the number of returned queries (breadth-first by number of
// relaxed patterns, so cheaper rewrites come first); limit <= 0 means no cap.
func (rs *RuleSet) Enumerate(q kg.Query, limit int) []RelaxedQuery {
	type choice struct {
		patterns []kg.Pattern
		weights  []float64
		weight   float64
		rule     int
	}
	perPattern := make([][]choice, len(q.Patterns))
	for i, p := range q.Patterns {
		cs := []choice{{patterns: []kg.Pattern{p}, weights: []float64{1}, weight: 1, rule: -1}}
		for ri, r := range rs.For(p) {
			if r.IsChain() {
				// Chains splice; per-pattern weight w/L keeps the chain's
				// total contribution at w × average normalised score.
				chain := ApplyChain(rs.Rule(p, r), p)
				ws := make([]float64, len(chain))
				for ci := range ws {
					ws[ci] = r.Weight / float64(len(chain))
				}
				cs = append(cs, choice{patterns: chain, weights: ws, weight: r.Weight, rule: ri})
				continue
			}
			// Apply renames the rule's placeholder variables to the query
			// pattern's variable names so joins stay connected.
			cs = append(cs, choice{
				patterns: []kg.Pattern{Apply(r.To, p)},
				weights:  []float64{r.Weight},
				weight:   r.Weight,
				rule:     ri,
			})
		}
		perPattern[i] = cs
	}

	var out []RelaxedQuery
	var rec func(i int, pats []kg.Pattern, pws []float64, applied []int, w float64, relaxed, wantRelaxed int)
	rec = func(i int, pats []kg.Pattern, pws []float64, applied []int, w float64, relaxed, wantRelaxed int) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if i == len(q.Patterns) {
			if relaxed == wantRelaxed {
				ap := make([]int, len(applied))
				copy(ap, applied)
				ps := make([]kg.Pattern, len(pats))
				copy(ps, pats)
				ws := make([]float64, len(pws))
				copy(ws, pws)
				out = append(out, RelaxedQuery{
					Query:          kg.Query{Patterns: ps},
					Applied:        ap,
					Weight:         w,
					PatternWeights: ws,
				})
			}
			return
		}
		// Prune: cannot reach wantRelaxed relaxations with remaining patterns.
		if relaxed+len(q.Patterns)-i < wantRelaxed {
			return
		}
		for _, c := range perPattern[i] {
			nr := relaxed
			if c.rule >= 0 {
				nr++
			}
			if nr > wantRelaxed {
				continue
			}
			applied[i] = c.rule
			rec(i+1, append(pats, c.patterns...), append(pws, c.weights...), applied, w*c.weight, nr, wantRelaxed)
		}
	}
	for wantRelaxed := 0; wantRelaxed <= len(q.Patterns); wantRelaxed++ {
		rec(0, nil, nil, make([]int, len(q.Patterns)), 1, 0, wantRelaxed)
		if limit > 0 && len(out) >= limit {
			out = out[:limit]
			break
		}
	}
	return out
}
