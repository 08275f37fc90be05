package kg

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is the read interface of a frozen triple store: the primitives the
// planner, the statistics catalog, the relaxation miners and the physical
// operators pull from the storage layer. It is implemented by *Store (one
// flat posting layout), *ShardedStore (N hash-partitioned segments) and
// their pinned views. Everything derived from these primitives — the exact
// evaluator (Evaluate), the exact counter (Count), the Definition 5 score
// lists (NormalizedScores) — is a free function over a Graph, and rendering
// needs only the dictionary (Dict.PatternString, Dict.QueryString).
//
// Triple indexes handed out by MatchList and accepted by Triple are global:
// dense, insertion-ordered, and stable across the store's lifetime. Every
// match list is sorted by raw score descending with the global index as
// tiebreak — the canonical order all operators and oracles rely on.
type Graph interface {
	// Dict returns the term dictionary shared by every triple.
	Dict() *Dict
	// Len reports the number of triples.
	Len() int
	// Frozen reports whether the store is frozen (readable).
	Frozen() bool
	// Triple returns the triple at global index i.
	Triple(i int32) Triple
	// MatchList returns the global indexes of triples matching p, sorted by
	// raw score descending (global index ascending on ties). The result must
	// not be mutated.
	MatchList(p Pattern) []int32
	// Cardinality returns the number of triples matching p.
	Cardinality(p Pattern) int
	// MaxScore returns the maximum raw score among matches of p (0 if none) —
	// the normalisation constant of Definition 5.
	MaxScore(p Pattern) float64
	// HasDuplicates reports whether any (s,p,o) key was added more than once.
	HasDuplicates() bool
	// Version reports the logical content version: 0 for a store frozen once
	// and never mutated, incremented by every applied Mutation. Compaction
	// leaves it unchanged (the visible triple set is identical). Caches keyed
	// on patterns or queries must be discarded when it moves.
	Version() uint64
	// Pin returns an immutable read view of the store's current contents: an
	// exact insertion-order prefix frozen at the moment of the call. Every
	// read through the pinned view — match lists, cardinalities,
	// normalisation constants, candidate enumeration — reflects that one
	// content version regardless of concurrent Inserts, so an operator tree
	// (or Evaluate call) built over a pin has full snapshot isolation.
	// Pinning an already pinned view returns the view itself. Must not be
	// called before Freeze.
	Pin() Graph
}

// ShardedGraph is the per-segment read interface of a hash-partitioned
// store, implemented by *ShardedStore and by its pinned views. The merged
// scan operator uses it to run one sub-scan per segment against shard-local
// match-list views and interleave them into exact global order.
type ShardedGraph interface {
	Graph
	// NumShards reports the number of segments.
	NumShards() int
	// ShardView returns segment i as a Graph over shard-local triple
	// indexes.
	ShardView(i int) Graph
	// GlobalIndexes returns the table mapping shard i's local triple indexes
	// to global indexes. The result must not be mutated; local indexes at or
	// beyond its length are not (yet) part of this view.
	GlobalIndexes(i int) []int32
}

// Op names what a Mutation does to its (s,p,o) key.
type Op uint8

// The three mutation kinds. Their values are the WAL record kinds that log
// them (the durability layer asserts this at compile time), so a record
// converts to the mutation it logged by value.
const (
	// OpInsert appends one copy of the triple.
	OpInsert Op = iota + 1
	// OpDelete retracts every live copy of the key; the score is ignored.
	OpDelete
	// OpUpdate re-scores the key latest-wins: every live copy is retracted
	// and one copy with the triple's score takes their place. Updating an
	// absent key inserts it.
	OpUpdate
)

// Mutation is one write to a live store: the unit a store applies, publishes
// as one snapshot, counts as one operation and moves the version by one — and
// the unit the durability layer logs as one WAL record.
type Mutation struct {
	Op     Op
	Triple Triple
}

// ErrInvalidScore is the sentinel every rejected triple score matches
// (errors.Is): scores must be finite and non-negative.
var ErrInvalidScore = errors.New("kg: invalid triple score")

// Validate reports whether a store would accept m: a known Op and, unless m
// deletes, a storable score (an error matching ErrInvalidScore otherwise).
// The durability layer validates before logging, so no record is ever
// written for a mutation the store would then reject.
func (m Mutation) Validate() error {
	if m.Op < OpInsert || m.Op > OpUpdate {
		return fmt.Errorf("kg: unknown mutation op %d", m.Op)
	}
	if m.Op == OpDelete {
		return nil
	}
	return validScore(m.Triple.Score)
}

// LiveGraph is the mutable extension of Graph: stores that accept inserts,
// deletes and updates after Freeze through a per-segment mutable head
// (retractions as per-key tombstones), merged into the frozen arenas on
// demand. Implemented by *Store (one head) and *ShardedStore (one head per
// segment, compacted independently).
type LiveGraph interface {
	Graph
	// Apply applies one mutation and publishes it atomically: a reader sees
	// the store before m or after it, never half of an update. It returns
	// how many live copies m retracted (deletes and updates) and any
	// automatic compaction m triggered, handed back to the caller instead of
	// run inline (nil when none is due) — the durability layer runs it
	// outside its write-ordering mutex; everyone else calls it at once.
	// Before Freeze only OpInsert is accepted (it stages like Add); deletes
	// and updates return ErrNotLive.
	Apply(m Mutation) (removed int, compact func(), err error)
	// Compact merges every pending head (and L1 tier) into its frozen
	// segment, annihilating covered tombstones. Readers are never blocked
	// and answers are identical before and after.
	Compact()
	// SetHeadLimit sets the per-segment head size at which Insert compacts
	// automatically (0 = DefaultHeadLimit, negative = manual only).
	SetHeadLimit(n int)
	// SetL1Limit configures per-segment tiered compaction (positive n) or
	// restores single-level merges (0, the default).
	SetL1Limit(n int)
	// HeadLen reports the total number of un-compacted head triples.
	HeadLen() int
	// LiveLen reports the number of live (non-retracted) triples; Len keeps
	// counting retracted slots for index stability.
	LiveLen() int
	// Tombstones reports the number of pending (not yet compacted-away)
	// retraction keys; a full Compact drives it to zero.
	Tombstones() int
	// Ops reports applied mutation operations: the triple count at Freeze
	// plus one per applied Mutation — one per WAL record. The durability
	// layer's store-side mirror of the WAL sequence.
	Ops() uint64
	// Compactions reports how many head merges have been performed.
	Compactions() uint64
}

// Compile-time interface checks for the live layer.
var (
	_ LiveGraph    = (*Store)(nil)
	_ LiveGraph    = (*ShardedStore)(nil)
	_ ShardedGraph = (*ShardedStore)(nil)
)

// matcher is the package-internal contract the exact evaluator needs beyond
// Graph: candidate enumeration for a (possibly variable-substituted) pattern
// without materialising a match list per recursion step. Only pinned views
// implement it, so every evaluation reads one content version.
type matcher interface {
	Graph
	// forCandidates calls f with every candidate triple for sub — a superset
	// of the exact matches, drawn from the cheapest applicable index.
	forCandidates(sub Pattern, f func(t Triple))
}

// substPattern substitutes variables of p already bound in b, yielding the
// pattern whose candidates constrain the next recursion step.
func substPattern(p Pattern, vs *VarSet, b Binding) Pattern {
	subst := func(t Term) Term {
		if !t.IsVar {
			return t
		}
		if i := vs.Index(t.Name); i >= 0 && b[i] != NoID {
			return Const(b[i])
		}
		return t
	}
	return Pattern{S: subst(p.S), P: subst(p.P), O: subst(p.O)}
}

// evalOrder orders patterns by ascending cardinality, which keeps the
// backtracking join cheap and deterministic.
func evalOrder(g Graph, q Query) []int {
	order := make([]int, len(q.Patterns))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Cardinality(q.Patterns[order[a]]) < g.Cardinality(q.Patterns[order[b]])
	})
	return order
}

// Evaluate computes the complete answer set of q with Definition 6 scoring
// (sum of per-pattern normalised scores), each pattern's contribution
// multiplied by weights[i] (per-pattern relaxation weighting; nil weights
// mean all 1). It is the exhaustive reference the engine modes are tested
// against and the evaluator behind chain relaxations. Patterns are joined
// smallest-cardinality first by a backtracking walk over index-backed
// candidates, all of it over one pin of g, so the answers correspond to a
// single content version even under concurrent mutations. Candidate
// enumeration order never affects the result: every derivation is visited,
// DedupMax keeps the maximum score per binding, and SortAnswers fixes the
// output order.
func Evaluate(g Graph, q Query, weights []float64) []Answer {
	m := g.Pin().(matcher) // a pinned view pins to itself
	vs := NewVarSet(q)
	order := evalOrder(m, q)
	var out []Answer
	var rec func(step int, b Binding, score float64)
	rec = func(step int, b Binding, score float64) {
		if step == len(order) {
			out = append(out, Answer{Binding: b.Clone(), Score: score})
			return
		}
		pi := order[step]
		p := q.Patterns[pi]
		max := m.MaxScore(p)
		w := 1.0
		if weights != nil && weights[pi] > 0 {
			w = weights[pi]
		}
		m.forCandidates(substPattern(p, vs, b), func(t Triple) {
			nb, ok := bindPattern(vs, p, t, b)
			if !ok {
				return
			}
			s := 0.0
			if max > 0 {
				s = w * t.Score / max
			}
			rec(step+1, nb, score+s)
		})
	}
	rec(0, NewBinding(vs.Len()), 0)
	out = DedupMax(out)
	SortAnswers(out)
	return out
}

// Count returns the exact number of distinct answers to q (join
// cardinality), over one pin of g — the "exact join selectivity" source the
// paper uses (footnote 3). Answers are distinct variable bindings: duplicate
// (s,p,o) triples contribute several derivations but one answer, matching
// Evaluate's DedupMax semantics. Without duplicate triples every derivation
// is a distinct binding, so counting stays allocation-free; only
// duplicate-bearing stores pay for the dedup map.
func Count(g Graph, q Query) int {
	m := g.Pin().(matcher) // a pinned view pins to itself
	vs := NewVarSet(q)
	order := evalOrder(m, q)
	if !m.HasDuplicates() {
		return countDerivations(m, q, vs, order)
	}
	seen := make(map[BindingKey]bool)
	keyer := NewKeyer()
	var rec func(step int, b Binding)
	rec = func(step int, b Binding) {
		if step == len(order) {
			seen[keyer.Key(b)] = true
			return
		}
		p := q.Patterns[order[step]]
		m.forCandidates(substPattern(p, vs, b), func(t Triple) {
			if nb, ok := bindPattern(vs, p, t, b); ok {
				rec(step+1, nb)
			}
		})
	}
	rec(0, NewBinding(vs.Len()))
	return len(seen)
}

// countDerivations counts complete derivations without deduplication —
// exact on duplicate-free stores, where derivations and bindings are in
// bijection.
//
// Each join level owns one binding and one candidate callback, built before
// the search: a level rewrites its binding for every candidate, and no
// deeper level touches it, so the count allocates per level rather than per
// derivation.
func countDerivations(m matcher, q Query, vs *VarSet, order []int) int {
	n := 0
	bs := make([]Binding, len(order)+1) // bs[step]: binding entering level step
	for i := range bs {
		bs[i] = NewBinding(vs.Len())
	}
	var rec func(step int)
	emits := make([]func(Triple), len(order))
	for step, pi := range order {
		p := q.Patterns[pi]
		emits[step] = func(t Triple) {
			if bindInto(vs, p, t, bs[step], bs[step+1]) {
				rec(step + 1)
			}
		}
	}
	rec = func(step int) {
		if step == len(order) {
			n++
			return
		}
		m.forCandidates(substPattern(q.Patterns[order[step]], vs, bs[step]), emits[step])
	}
	rec(0)
	return n
}

// NormalizedScores is the Definition 5 normalisation of p's match list: each
// match's raw score divided by the head (maximum) score, sorted descending
// and aligned with g.MatchList(p). The slice is freshly allocated and owned
// by the caller. Centralised so no layout can diverge on the max==0 guard or
// the division — the bit-identical contract depends on identical floats.
func NormalizedScores(g Graph, p Pattern) []float64 {
	l := g.MatchList(p)
	out := make([]float64, len(l))
	if len(l) == 0 {
		return out
	}
	max := g.Triple(l[0]).Score
	if max == 0 {
		return out
	}
	for i, ti := range l {
		out[i] = g.Triple(ti).Score / max
	}
	return out
}
