package operators

import (
	"fmt"

	"specqp/internal/kg"
	"specqp/internal/trace"
)

// ListScan streams the matches of a single triple pattern in descending
// normalised-score order, optionally weighted by a relaxation rule's weight
// and tagged with the relaxed-pattern bit. It deduplicates bindings when —
// and only when — duplicates are possible (two identical triples with
// different raw scores keep the higher, which comes first in the sorted
// list); patterns that provably cannot repeat a binding skip the dedup set
// entirely.
//
// The scan binds each candidate triple into a reusable scratch binding and
// clones — from a slab arena — only on emit, so non-matching candidates and
// dedup-suppressed repeats cost zero allocations, and emits amortise to one
// allocation per arenaChunkEntries entries.
type ListScan struct {
	store   kg.Graph
	weight  float64
	mask    uint32
	counter *Counter

	list []int32
	max  float64
	pos  int
	// lastIdx is the store-local index of the triple behind the most recent
	// emission — the tiebreak ShardedListScan needs to interleave per-shard
	// sub-scans in exact global order.
	lastIdx int32

	// Compiled binder: one slot per pattern position, resolved against the
	// variable set once at construction so Next never does a map lookup.
	slots   [3]bindSlot
	touched []int      // distinct variable indexes this pattern binds
	scratch kg.Binding // reused across candidates; cloned only on emit
	arena   bindingArena

	// keyer is nil, and seen unused, when the pattern provably cannot
	// produce duplicate bindings: the store holds no duplicate (s,p,o)
	// triples and every position is a constant or a variable of the query's
	// variable set (so any two distinct triples differ in some captured
	// position).
	keyer *kg.Keyer
	seen  keyTab // set form: keys of emitted bindings

	last float64
	top  float64

	// stats is the scan's trace node — nil unless the execution's Counter has
	// tracing enabled, in which case every candidate, suppression and emission
	// is recorded. All recording methods are nil-safe, so the untraced hot
	// path pays one nil check per event.
	stats *trace.Node
}

// bindSlot is the compiled form of one pattern position.
type bindSlot struct {
	varIdx  int   // ≥0: scratch slot to bind; slotConst / slotIgnore otherwise
	constID kg.ID // constant to match, when varIdx == slotConst
}

const (
	slotConst  = -1 // position is a constant term
	slotIgnore = -2 // variable outside the query's variable set
)

// NewListScan builds a scan over pattern p. weight scales normalised scores
// (use 1 for the original pattern, the rule weight for a relaxation). mask is
// OR-ed into every entry's Relaxed field (0 for originals, 1<<patternIdx for
// relaxations). vs must be the variable set of the enclosing query.
//
// The argument order below is load-bearing on live stores: the match list is
// loaded before the normalisation constant, and triples are only ever
// appended, so MaxScore — from the same or a newer snapshot — always covers
// every raw score in the captured list. Normalised scores therefore never
// exceed weight even when an insert races the construction.
func NewListScan(store kg.Graph, vs *kg.VarSet, p kg.Pattern, weight float64, mask uint32, c *Counter) *ListScan {
	list := store.MatchList(p)
	return newListScanOver(store, vs, p, weight, mask, c, list, store.MaxScore(p))
}

// newListScanOver builds a scan over an explicit match list and an explicit
// normalisation constant. ShardedListScan uses it to run each per-shard
// sub-scan against the shard's zero-alloc list view while normalising by the
// global maximum, so sub-scan scores equal the unsharded scan's exactly.
func newListScanOver(store kg.Graph, vs *kg.VarSet, p kg.Pattern, weight float64, mask uint32, c *Counter, list []int32, max float64) *ListScan {
	s := &ListScan{
		store:   store,
		weight:  weight,
		mask:    mask,
		counter: c,
		list:    list,
		max:     max,
		scratch: kg.NewBinding(vs.Len()),
		arena:   bindingArena{ws: c.Workspace()},
		seen:    keyTab{ws: c.Workspace()},
	}
	dedup := store.HasDuplicates()
	for i, term := range [3]kg.Term{p.S, p.P, p.O} {
		switch {
		case !term.IsVar:
			s.slots[i] = bindSlot{varIdx: slotConst, constID: term.ID}
		default:
			vi := vs.Index(term.Name)
			if vi < 0 {
				// Variable not part of the query's variable set (e.g. a
				// relaxation introduced a fresh variable name): the binding
				// carries only query variables, so two triples differing
				// only here collapse to one binding — dedup is required.
				s.slots[i] = bindSlot{varIdx: slotIgnore}
				dedup = true
				continue
			}
			s.slots[i] = bindSlot{varIdx: vi}
			known := false
			for _, t := range s.touched {
				if t == vi {
					known = true
					break
				}
			}
			if !known {
				s.touched = append(s.touched, vi)
			}
		}
	}
	if dedup {
		// Key only the slots this pattern binds — every other position is
		// NoID in all of the scan's bindings — so patterns of ≤2 variables
		// stay on the packed, allocation-free path.
		s.keyer = kg.NewProjKeyer(s.touched)
	}
	if len(s.list) > 0 && s.max > 0 {
		s.top = weight * store.Triple(s.list[0]).Score / s.max
	}
	s.last = s.top
	if c.Tracing() {
		s.stats = trace.NewNode("ListScan")
		s.stats.Detail = store.Dict().PatternString(p)
		if weight != 1 {
			s.stats.Detail = fmt.Sprintf("%s w=%.3f", s.stats.Detail, weight)
		}
		s.stats.SetTop(s.top)
	}
	return s
}

// TopScore implements Stream.
func (s *ListScan) TopScore() float64 { return s.top }

// Bound implements Stream.
func (s *ListScan) Bound() float64 { return s.last }

// bind matches t against the compiled pattern, writing variable values into
// the scratch binding. It returns false when a constant mismatches or a
// repeated variable binds inconsistently.
func (s *ListScan) bind(t kg.Triple) bool {
	for _, vi := range s.touched {
		s.scratch[vi] = kg.NoID
	}
	vals := [3]kg.ID{t.S, t.P, t.O}
	for i, sl := range s.slots {
		v := vals[i]
		switch sl.varIdx {
		case slotConst:
			if sl.constID != v {
				return false
			}
		case slotIgnore:
			// Fresh variable: matches anything, captured nowhere.
		default:
			if s.scratch[sl.varIdx] != kg.NoID && s.scratch[sl.varIdx] != v {
				return false
			}
			s.scratch[sl.varIdx] = v
		}
	}
	return true
}

// Next implements Stream.
func (s *ListScan) Next() (Entry, bool) {
	for s.pos < len(s.list) {
		ti := s.list[s.pos]
		t := s.store.Triple(ti)
		s.pos++
		s.stats.Pull()
		if !s.bind(t) {
			continue
		}
		if s.keyer != nil && !s.seen.add(s.keyer.Key(s.scratch)) {
			s.stats.DedupDrop()
			continue
		}
		score := 0.0
		if s.max > 0 {
			score = s.weight * t.Score / s.max
		}
		s.last = score
		s.lastIdx = ti
		s.counter.Inc()
		if s.stats != nil {
			s.stats.Emit()
			s.stats.SampleBound(score)
			s.stats.SetArenaBytes(s.arena.bytes())
		}
		return Entry{Binding: s.arena.clone(s.scratch), Score: score, Relaxed: s.mask}, true
	}
	s.last = 0
	return Entry{}, false
}

// Reset implements Resettable. It invalidates entries previously returned by
// Next: their bindings are reused by the next pass over the list.
func (s *ListScan) Reset() {
	s.pos = 0
	s.last = s.top
	s.arena.reset()
	if s.keyer != nil {
		s.seen.reset()
		s.keyer.Reset()
	}
}
