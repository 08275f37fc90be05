package kg

import (
	"fmt"
	"sort"
)

// VarSet assigns dense indexes to the variables of a query. Operators and
// answers use these indexes instead of variable names.
type VarSet struct {
	names []string
	idx   map[string]int
}

// NewVarSet builds the variable set for a query.
func NewVarSet(q Query) *VarSet {
	vs := &VarSet{idx: make(map[string]int)}
	for _, name := range q.Vars() {
		vs.idx[name] = len(vs.names)
		vs.names = append(vs.names, name)
	}
	return vs
}

// Len reports the number of variables.
func (vs *VarSet) Len() int { return len(vs.names) }

// Index returns the dense index for a variable name, or -1 if unknown.
func (vs *VarSet) Index(name string) int {
	if i, ok := vs.idx[name]; ok {
		return i
	}
	return -1
}

// Name returns the variable name at index i.
func (vs *VarSet) Name(i int) string { return vs.names[i] }

// Names returns all variable names in index order.
func (vs *VarSet) Names() []string {
	out := make([]string, len(vs.names))
	copy(out, vs.names)
	return out
}

// Binding maps variable index → bound term ID. Unbound positions hold NoID.
type Binding []ID

// NewBinding returns an all-unbound binding for n variables.
func NewBinding(n int) Binding {
	b := make(Binding, n)
	for i := range b {
		b[i] = NoID
	}
	return b
}

// Clone copies the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	copy(c, b)
	return c
}

// CompatibleWith reports whether two bindings agree on every variable bound
// in both.
func (b Binding) CompatibleWith(o Binding) bool {
	for i := range b {
		if b[i] != NoID && o[i] != NoID && b[i] != o[i] {
			return false
		}
	}
	return true
}

// Merge returns the union of two compatible bindings.
func (b Binding) Merge(o Binding) Binding {
	m := b.Clone()
	for i, v := range o {
		if v != NoID {
			m[i] = v
		}
	}
	return m
}

// Compare orders bindings of equal length lexicographically by bound ID
// (unbound NoID positions sort last, being the maximum uint32). It is the
// allocation-free tie-break used by SortAnswers and the operators' result
// heaps; Key() remains for cold paths that want a map-friendly string.
func (b Binding) Compare(o Binding) int {
	for i := range b {
		if b[i] != o[i] {
			if b[i] < o[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Key returns a comparable string key for the bound positions (for
// deduplication and hashing). Bindings of equal length produce equal keys
// iff they bind the same values. It allocates per call; hot paths use
// BindingKey via a Keyer instead.
func (b Binding) Key() string {
	buf := make([]byte, 0, len(b)*4)
	for _, v := range b {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

// Answer is a scored query answer (Definition 4/6). Relaxed is a bitmask over
// pattern indexes recording which patterns were satisfied through a relaxed
// triple pattern rather than the original — the provenance needed for the
// paper's prediction-accuracy analysis (Table 3).
type Answer struct {
	Binding Binding
	Score   float64
	Relaxed uint32
}

// RelaxedCount returns the number of patterns answered via relaxations.
func (a Answer) RelaxedCount() int {
	c := 0
	for m := a.Relaxed; m != 0; m &= m - 1 {
		c++
	}
	return c
}

// String renders the answer with raw variable IDs.
func (a Answer) String() string {
	return fmt.Sprintf("answer{%v score=%.4f relaxed=%b}", []ID(a.Binding), a.Score, a.Relaxed)
}

// SortAnswers orders answers by score descending, breaking ties by binding
// order (Binding.Compare) ascending for determinism.
func SortAnswers(as []Answer) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].Score != as[j].Score {
			return as[i].Score > as[j].Score
		}
		return as[i].Binding.Compare(as[j].Binding) < 0
	})
}

// DedupMax collapses answers with identical bindings, keeping the maximum
// score (Definition 8: the score of an answer under a space of relaxations
// is the maximum over derivations). Relaxed provenance masks of collapsed
// answers follow the kept maximum.
func DedupMax(as []Answer) []Answer {
	keyer := NewKeyer()
	best := make(map[BindingKey]int, len(as))
	out := as[:0]
	for _, a := range as {
		k := keyer.Key(a.Binding)
		if i, ok := best[k]; ok {
			if a.Score > out[i].Score {
				out[i] = a
			}
			continue
		}
		best[k] = len(out)
		out = append(out, a)
	}
	return out
}

// bindPattern attempts to extend binding b with the triple t matched against
// pattern p. It returns the extended binding and true on success.
func bindPattern(vs *VarSet, p Pattern, t Triple, b Binding) (Binding, bool) {
	nb := b
	cloned := false
	set := func(term Term, v ID) bool {
		if !term.IsVar {
			return term.ID == v
		}
		i := vs.Index(term.Name)
		if i < 0 {
			return false
		}
		if nb[i] != NoID {
			return nb[i] == v
		}
		if !cloned {
			nb = b.Clone()
			cloned = true
		}
		nb[i] = v
		return true
	}
	if set(p.S, t.S) && set(p.P, t.P) && set(p.O, t.O) {
		return nb, true
	}
	return b, false
}

// bindInto is bindPattern without the clone: it overwrites nb, which must
// not alias b, with b extended by t's bindings and reports whether t matched.
func bindInto(vs *VarSet, p Pattern, t Triple, b, nb Binding) bool {
	copy(nb, b)
	set := func(term Term, v ID) bool {
		if !term.IsVar {
			return term.ID == v
		}
		i := vs.Index(term.Name)
		if i < 0 {
			return false
		}
		if nb[i] != NoID {
			return nb[i] == v
		}
		nb[i] = v
		return true
	}
	return set(p.S, t.S) && set(p.P, t.P) && set(p.O, t.O)
}

// forCandidates is the snapshot-level candidate enumeration behind the
// pinned views' matcher: it feeds f every triple of the cheapest candidate
// posting for sub (a superset of the exact matches), then every head triple.
// The frozen side deliberately uses the frozen-only lists — the merged
// frozen⊕head list would replay head triples twice, which would double-count
// derivations in the exact evaluator. Pending-tombstone victims are
// masked out — a retracted fact must not contribute derivations — while the
// head needs no mask (deletes remove its entries physically).
func (s *storeState) forCandidates(sub Pattern, f func(t Triple)) {
	emit := func(po *postings) {
		cand, ok := po.candidates(sub)
		if !ok {
			cand = po.matchList(sub)
		}
		for _, ti := range cand {
			if !s.killed(ti) {
				f(s.triples[ti])
			}
		}
	}
	emit(s.post)
	if s.l1 != nil {
		emit(s.l1)
	}
	for _, hi := range s.headSorted {
		f(s.triples[hi])
	}
}
