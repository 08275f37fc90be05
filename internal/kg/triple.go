package kg

import (
	"fmt"
	"strings"
)

// Triple is a scored 〈s p o〉 tuple (Definition 1). Score carries the raw,
// unnormalised triple score (e.g. extraction count, inlink count, retweets).
type Triple struct {
	S, P, O ID
	Score   float64
}

// Term is one position of a triple pattern: either a constant KG term or a
// variable (Definition 2). Variables are identified by name; the query
// compiler additionally assigns dense variable indexes (see Query). The field
// order keeps a Term at 24 bytes (a Pattern at 72): the one-byte IsVar packs
// after the four-byte ID instead of padding ahead of Name.
type Term struct {
	Name  string // variable name without the leading '?', when IsVar
	ID    ID     // constant term ID, when !IsVar
	IsVar bool
}

// Var returns a variable term.
func Var(name string) Term {
	return Term{IsVar: true, Name: strings.TrimPrefix(name, "?")}
}

// Const returns a constant term for an already-encoded ID.
func Const(id ID) Term { return Term{ID: id} }

// Pattern is a triple pattern 〈S P O〉 (Definition 2).
type Pattern struct {
	S, P, O Term
}

// NewPattern builds a pattern from three terms.
func NewPattern(s, p, o Term) Pattern { return Pattern{S: s, P: p, O: o} }

// Vars returns the distinct variable names of the pattern in S,P,O order.
func (p Pattern) Vars() []string {
	var vs []string
	seen := map[string]bool{}
	for _, t := range []Term{p.S, p.P, p.O} {
		if t.IsVar && !seen[t.Name] {
			seen[t.Name] = true
			vs = append(vs, t.Name)
		}
	}
	return vs
}

// Matches reports whether triple t matches the pattern, ignoring variables
// (variables match anything; repeated variables must bind consistently).
// It never allocates — the head-overlay filters of a live store call it per
// head triple per lookup.
func (p Pattern) Matches(t Triple) bool {
	if !p.S.IsVar && p.S.ID != t.S {
		return false
	}
	if !p.P.IsVar && p.P.ID != t.P {
		return false
	}
	if !p.O.IsVar && p.O.ID != t.O {
		return false
	}
	if p.S.IsVar {
		if p.P.IsVar && p.S.Name == p.P.Name && t.S != t.P {
			return false
		}
		if p.O.IsVar && p.S.Name == p.O.Name && t.S != t.O {
			return false
		}
	}
	if p.P.IsVar && p.O.IsVar && p.P.Name == p.O.Name && t.P != t.O {
		return false
	}
	return true
}

// Key returns a canonical comparable key for the pattern, suitable for use as
// a map key in caches and statistics stores. Variable identity is erased to a
// positional marker so that 〈?x p o〉 and 〈?y p o〉 share statistics, which is
// correct because score distributions depend only on the constant positions.
func (p Pattern) Key() PatternKey {
	enc := func(t Term) ID {
		if t.IsVar {
			return NoID
		}
		return t.ID
	}
	// Repeated-variable patterns (e.g. 〈?x p ?x〉) are rare; distinguish them
	// with the shape bits so they do not share stats with 〈?x p ?y〉.
	shape := uint8(0)
	if p.S.IsVar && p.O.IsVar && p.S.Name == p.O.Name {
		shape |= 1
	}
	if p.S.IsVar && p.P.IsVar && p.S.Name == p.P.Name {
		shape |= 2
	}
	if p.P.IsVar && p.O.IsVar && p.P.Name == p.O.Name {
		shape |= 4
	}
	return PatternKey{S: enc(p.S), P: enc(p.P), O: enc(p.O), Shape: shape}
}

// PatternKey is a canonical, comparable rendering of a Pattern.
type PatternKey struct {
	S, P, O ID
	Shape   uint8
}

// String renders the pattern using raw IDs; use Dict.PatternString for a
// human-readable rendering with decoded terms.
func (p Pattern) String() string {
	f := func(t Term) string {
		if t.IsVar {
			return "?" + t.Name
		}
		return fmt.Sprintf("#%d", t.ID)
	}
	return fmt.Sprintf("〈%s %s %s〉", f(p.S), f(p.P), f(p.O))
}

// Query is a triple pattern query (Definition 3): a set of triple patterns
// sharing variables. Patterns preserves user order; the executor may reorder.
type Query struct {
	Patterns []Pattern
}

// NewQuery builds a query over the given patterns.
func NewQuery(ps ...Pattern) Query { return Query{Patterns: ps} }

// Vars returns the distinct variable names across all patterns, in first-use
// order.
func (q Query) Vars() []string {
	var vs []string
	seen := map[string]bool{}
	for _, p := range q.Patterns {
		for _, v := range p.Vars() {
			if !seen[v] {
				seen[v] = true
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// Clone returns a deep copy of the query.
func (q Query) Clone() Query {
	ps := make([]Pattern, len(q.Patterns))
	copy(ps, q.Patterns)
	return Query{Patterns: ps}
}

// Replace returns a copy of the query with pattern index i replaced by p.
func (q Query) Replace(i int, p Pattern) Query {
	c := q.Clone()
	c.Patterns[i] = p
	return c
}
