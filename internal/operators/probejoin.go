package operators

import (
	"cmp"
	"fmt"
	"slices"

	"specqp/internal/kg"
	"specqp/internal/trace"
)

// ProbeJoin is an index-probe rank join: it joins a score-descending left
// stream with a leg that is a triple pattern plus weighted relaxations, but
// instead of scanning the leg's match lists and merging them into a stream —
// which the corner bound cannot cut short when normalised tops are 1 — it
// substitutes each left entry's bindings into the leg's patterns and
// enumerates their matches from the store's indexes (kg.Prober). The leg's
// scans and merge are never built.
//
// While every left entry and every input binds the leg's join variables, the
// result equals RankJoin(left, IncrementalMerge(leg scans)) answer for
// answer: per inner binding it keeps the best match across the leg's inputs
// with the merge's rule (higher weighted score first, then lower input
// index), and join results carry the same scores and Relaxed bits.
//
// Where a relaxation replaced a join variable with a constant, so that an
// input or a left entry leaves a join variable unbound (NoID), both joins
// treat the variable as unconstrained and give the answers and scores of
// the exact evaluation of the relaxed query (Executor.Naive). An input that
// does not bind a key variable takes the probing entry's value for it, so a
// match that the merge would keep apart from the original pattern's match
// of the same triple collapses into it here, keeping the better one, where
// RankJoin keeps the better of the two results of one binding at its
// emitted set; of two equal-score derivations the joins may report
// different Relaxed bits. A left entry with NoID at a key variable probes
// with that variable free.
//
// Results are emitted in descending score order once they reach the
// threshold
//
//	T = bound(L) + top(leg)
//
// which bounds every result of a left entry not yet pulled: a pulled entry's
// results are all known the moment it is probed.
//
// Work is lazy in both directions. Each pulled left entry probes once: its
// candidates are collected, deduplicated per binding and sorted best first
// into a group. When the probing entry binds every leg variable, all its
// candidates give one inner binding, so the probe keeps only the best as it
// goes. Each left entry with candidates becomes a cursor into its group, and
// one heap orders the cursors by the score of their next join result. A
// result is built in scratch from the left binding and the candidate triple,
// checked against the emitted set, and materialised and counted only when it
// is new; no inner binding is ever materialised. Every structure comes from
// the execution's Workspace; the per-entry path touches no Go map.
type ProbeJoin struct {
	left    Stream
	g       kg.Prober
	inputs  []probeInput
	classes []probeClass
	counter *Counter

	// keyVars are the leg's variables the left side can bind; a left entry's
	// projection onto them is its probe key. legVars are all query variables
	// the leg's inputs bind, ascending.
	keyVars, legVars []int
	cands            []probeCand
	fixed            kg.Binding // the probing entry's key values, NoID elsewhere
	probing          []int32    // inputs the current lookup serves
	byO              []objInput // the current lookup's inputs by object, or nil
	look             kg.Pattern // the current lookup
	// fold is set per probe when every leg variable is a key variable the
	// probing entry binds, so its candidates share one inner binding and add
	// keeps the best one, at cands[lo].
	fold bool
	lo   int

	// heap orders the cursors by their next join result.
	curs []probeCursor
	heap []int32

	emitKeyer *kg.Keyer
	emitted   keyTab // set form: keys of emitted bindings
	arena     bindingArena
	scratch   kg.Binding // the join result pop builds

	ws                 *Workspace
	visit              func(kg.Triple)
	byBinding, byScore func(a, b probeCand) int
	legTop             float64 // the leg's top score: its best input's
	leftDone, aborted  bool
	pulls              int // left pulls since the last abort poll
	top, last, cert    float64
	primed             bool
	stats              *trace.Node // nil unless the execution is traced
}

var _ Certified = (*ProbeJoin)(nil)

// ProbeInput is one input of a probed leg: the leg's pattern or one of its
// relaxations, the weight its normalised scores are scaled by, and the
// Relaxed bit its matches carry — the arguments its ListScan would take.
type ProbeInput struct {
	Pattern kg.Pattern
	Weight  float64
	Mask    uint32
}

type probeInput struct {
	ProbeInput
	slots [3]bindSlot
	// same lists position pairs that hold the same variable, which a
	// candidate must bind consistently.
	same [][2]int
	// at[v] is the triple position binding query variable v, or -1.
	at  []int8
	max float64 // the pattern's normalisation constant
}

// probeClass is a set of inputs with identical S and P terms, in input
// order: when both are bound at probe time, one (S, P) lookup serves them
// all.
type probeClass struct {
	inputs []int32
	// byO lists the inputs by their object when each has a constant object
	// and no repeated variable: a triple of the shared lookup then matches
	// exactly the inputs carrying its object, found by binary search instead
	// of one match attempt per input.
	byO []objInput
}

type objInput struct {
	o  kg.ID
	in int32
}

// probeCand is one candidate inner binding of a group: the matching triple's
// IDs, its weighted score and its input. The inner binding itself is never
// materialised: innerAt and pop read it off the triple.
type probeCand struct {
	score float64
	t     [3]kg.ID
	input int32
}

// probeCursor is a left entry walking its group's candidates: the next join
// result is left with candidate pos, and score is that result's score.
type probeCursor struct {
	left     Entry
	score    float64
	pos, end int32 // candidate range left in the group
}

// NewProbeJoin joins left, which binds the variable indexes in leftVars, with
// the leg whose inputs are given in merge order (the pattern first). g must
// be the pinned snapshot the rest of the tree reads.
func NewProbeJoin(left Stream, leftVars map[int]bool, g kg.Prober, vs *kg.VarSet, inputs []ProbeInput, c *Counter) *ProbeJoin {
	ws := c.Workspace()
	pj := &ProbeJoin{
		left:      left,
		g:         g,
		counter:   c,
		ws:        ws,
		emitKeyer: kg.NewKeyer(),
		emitted:   keyTab{ws: ws},
		arena:     bindingArena{ws: ws},
		fixed:     kg.NewBinding(vs.Len()),
		scratch:   kg.NewBinding(vs.Len()),
	}
	inLeg := make([]bool, vs.Len())
	pj.inputs = make([]probeInput, len(inputs))
	for i, in := range inputs {
		pi := &pj.inputs[i]
		pi.ProbeInput = in
		pi.at = make([]int8, vs.Len())
		for v := range pi.at {
			pi.at[v] = -1
		}
		terms := [3]kg.Term{in.Pattern.S, in.Pattern.P, in.Pattern.O}
		for p, term := range terms {
			switch {
			case !term.IsVar:
				pi.slots[p] = bindSlot{varIdx: slotConst, constID: term.ID}
			case vs.Index(term.Name) < 0:
				pi.slots[p] = bindSlot{varIdx: slotIgnore}
			default:
				v := vs.Index(term.Name)
				pi.slots[p] = bindSlot{varIdx: v}
				if pi.at[v] < 0 {
					pi.at[v] = int8(p)
				}
				inLeg[v] = true
			}
			for q := 0; q < p; q++ {
				if term.IsVar && terms[q].IsVar && terms[q].Name == term.Name {
					pi.same = append(pi.same, [2]int{q, p})
				}
			}
		}
		pi.max = g.MaxScore(in.Pattern)
		if pi.max > 0 {
			// ListScan's top: the weighted score of the best match.
			if t := in.Weight * pi.max / pi.max; t > pj.legTop {
				pj.legTop = t
			}
		}
		shared := false
		for ci := range pj.classes {
			cl := &pj.classes[ci]
			if lead := inputs[cl.inputs[0]].Pattern; lead.S == in.Pattern.S && lead.P == in.Pattern.P {
				cl.inputs = append(cl.inputs, int32(i))
				shared = true
				break
			}
		}
		if !shared {
			pj.classes = append(pj.classes, probeClass{inputs: []int32{int32(i)}})
		}
	}
	for ci := range pj.classes {
		cl := &pj.classes[ci]
		for _, i := range cl.inputs {
			in := &pj.inputs[i]
			if in.Pattern.O.IsVar || len(in.same) > 0 {
				cl.byO = nil
				break
			}
			cl.byO = append(cl.byO, objInput{o: in.Pattern.O.ID, in: i})
		}
		slices.SortStableFunc(cl.byO, func(a, b objInput) int { return cmp.Compare(a.o, b.o) })
	}
	for v, ok := range inLeg {
		if ok {
			pj.legVars = append(pj.legVars, v)
			if leftVars[v] {
				pj.keyVars = append(pj.keyVars, v)
			}
		}
	}
	pj.visit = pj.collect
	pj.byBinding = func(a, b probeCand) int {
		if c := pj.compareInner(&a, &b); c != 0 {
			return c
		}
		return compareBest(&a, &b)
	}
	pj.byScore = func(a, b probeCand) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return pj.compareInner(&a, &b)
	}
	if c.Tracing() {
		pj.stats = trace.NewNode("ProbeJoin")
		if len(inputs) > 0 {
			pj.stats.Detail = g.Dict().PatternString(inputs[0].Pattern)
		}
		if len(inputs) > 1 {
			pj.stats.Detail += fmt.Sprintf(" +%d relaxations", len(inputs)-1)
		}
	}
	return pj
}

// compareBest orders two candidates of one binding by the merge's rule:
// higher weighted score first, then lower input index.
func compareBest(a, b *probeCand) int {
	if a.score != b.score {
		if a.score > b.score {
			return -1
		}
		return 1
	}
	return int(a.input) - int(b.input)
}

// innerAt is candidate c's value for query variable v within its group: the
// triple's value where c's input binds v, the group's key value otherwise.
func (pj *ProbeJoin) innerAt(c *probeCand, v int) kg.ID {
	if p := pj.inputs[c.input].at[v]; p >= 0 {
		return c.t[p]
	}
	return pj.fixed[v]
}

// compareInner orders two candidates of the group being built by the join
// result each would give: Binding.Compare over the leg's variables, the only
// positions where results of one left entry differ.
func (pj *ProbeJoin) compareInner(a, b *probeCand) int {
	for _, v := range pj.legVars {
		if x, y := pj.innerAt(a, v), pj.innerAt(b, v); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// collect is the probe callback: it matches t against every input the
// current lookup serves and records each match as a candidate.
func (pj *ProbeJoin) collect(t kg.Triple) {
	if pj.byO != nil {
		// A shared (S, P) lookup: the head overlay's subject index yields a
		// superset, so check the lookup once, then find the inputs by object.
		if t.S != pj.look.S.ID || t.P != pj.look.P.ID {
			return
		}
		i, j := 0, len(pj.byO)
		for i < j {
			h := int(uint(i+j) >> 1)
			if pj.byO[h].o < t.O {
				i = h + 1
			} else {
				j = h
			}
		}
		for ; i < len(pj.byO) && pj.byO[i].o == t.O; i++ {
			pj.add(pj.byO[i].in, t)
		}
		return
	}
	vals := [3]kg.ID{t.S, t.P, t.O}
	for _, i := range pj.probing {
		in := &pj.inputs[i]
		ok := true
		for p, sl := range in.slots {
			switch sl.varIdx {
			case slotConst:
				ok = sl.constID == vals[p]
			case slotIgnore:
			default:
				f := pj.fixed[sl.varIdx]
				ok = f == kg.NoID || f == vals[p]
			}
			if !ok {
				break
			}
		}
		for _, s := range in.same {
			ok = ok && vals[s[0]] == vals[s[1]]
		}
		if ok {
			pj.add(i, t)
		}
	}
}

// add records t as a candidate of input i; a folding probe keeps only the
// best candidate by the merge's rule.
func (pj *ProbeJoin) add(i int32, t kg.Triple) {
	in := &pj.inputs[i]
	score := 0.0
	if in.max > 0 {
		score = in.Weight * t.Score / in.max
	}
	c := probeCand{score: score, t: [3]kg.ID{t.S, t.P, t.O}, input: i}
	if pj.fold && len(pj.cands) > pj.lo {
		if best := &pj.cands[pj.lo]; compareBest(&c, best) < 0 {
			*best = c
		}
		return
	}
	pj.cands = append(grow2(pj.ws.candPool(), pj.cands), c)
}

// subst substitutes the probing entry's key values into term.
func (pj *ProbeJoin) subst(term kg.Term, sl bindSlot) kg.Term {
	if sl.varIdx >= 0 && pj.fixed[sl.varIdx] != kg.NoID {
		return kg.Const(pj.fixed[sl.varIdx])
	}
	return term
}

// probe builds the candidate group of left entry l and returns its
// range in cands. Inputs of one class whose S and P are both bound share a
// single (S, P) lookup; every other input looks up its own substituted
// pattern.
func (pj *ProbeJoin) probe(l Entry) (int32, int32) {
	pj.stats.Probe()
	pj.fold = len(pj.keyVars) == len(pj.legVars)
	for _, v := range pj.keyVars {
		pj.fixed[v] = l.Binding[v]
		pj.fold = pj.fold && l.Binding[v] != kg.NoID
	}
	lo := len(pj.cands)
	pj.lo = lo
	for ci := range pj.classes {
		cl := &pj.classes[ci]
		in := &pj.inputs[cl.inputs[0]]
		s := pj.subst(in.Pattern.S, in.slots[0])
		p := pj.subst(in.Pattern.P, in.slots[1])
		if len(cl.inputs) > 1 && !s.IsVar && !p.IsVar {
			pj.probing, pj.byO = cl.inputs, cl.byO
			pj.look = kg.Pattern{S: s, P: p, O: kg.Var("")}
			pj.g.Probe(pj.look, pj.visit)
			continue
		}
		pj.byO = nil
		for j := range cl.inputs {
			in := &pj.inputs[cl.inputs[j]]
			pj.probing = cl.inputs[j : j+1]
			pj.g.Probe(kg.Pattern{
				S: pj.subst(in.Pattern.S, in.slots[0]),
				P: pj.subst(in.Pattern.P, in.slots[1]),
				O: pj.subst(in.Pattern.O, in.slots[2]),
			}, pj.visit)
		}
	}
	hi := len(pj.cands)
	if hi-lo > 1 {
		// Keep each binding's best candidate, then order the survivors by
		// the join result they give.
		group := pj.cands[lo:hi]
		slices.SortFunc(group, pj.byBinding)
		n := 1
		for i := 1; i < len(group); i++ {
			if pj.compareInner(&group[i], &group[n-1]) != 0 {
				group[n] = group[i]
				n++
			}
		}
		group = group[:n]
		slices.SortFunc(group, pj.byScore)
		hi = lo + n
		pj.cands = pj.cands[:hi]
	}
	return int32(lo), int32(hi)
}

// admit probes a pulled left entry and turns it into a cursor over its
// group.
func (pj *ProbeJoin) admit(l Entry) {
	lo, hi := pj.probe(l)
	if lo == hi {
		return
	}
	c := int32(len(pj.curs))
	pj.curs = append(grow2(pj.ws.cursorPool(), pj.curs), probeCursor{
		left: l, score: l.Score + pj.cands[lo].score, pos: lo, end: hi,
	})
	pj.heap = append(grow2(pj.ws.indexPool(), pj.heap), c)
	h := pj.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !pj.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// joinedAt is query variable v of cursor c's next join result.
func (pj *ProbeJoin) joinedAt(c int32, v int) kg.ID {
	cur := &pj.curs[c]
	if id := cur.left.Binding[v]; id != kg.NoID {
		return id
	}
	cand := &pj.cands[cur.pos]
	if p := pj.inputs[cand.input].at[v]; p >= 0 {
		return cand.t[p]
	}
	return kg.NoID
}

// less orders cursors by their next join results the way RankJoin's queue
// orders results (Entry.heapLess), without materialising them.
func (pj *ProbeJoin) less(a, b int32) bool {
	if sa, sb := pj.curs[a].score, pj.curs[b].score; sa != sb {
		return sa > sb
	}
	for v := range pj.scratch {
		if x, y := pj.joinedAt(a, v), pj.joinedAt(b, v); x != y {
			return x < y
		}
	}
	return a < b
}

// fixRoot restores the heap after the root cursor advanced or was replaced.
func (pj *ProbeJoin) fixRoot() {
	h := pj.heap
	n := len(h)
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && pj.less(h[l], h[s]) {
			s = l
		}
		if r < n && pj.less(h[r], h[s]) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// pop builds the root cursor's join result in scratch — the left binding
// overlaid with the candidate's values of the leg's variables, as
// Binding.Merge would overlay the inner binding — then advances the cursor.
// It returns the result's score and Relaxed bits.
func (pj *ProbeJoin) pop() (float64, uint32) {
	c := pj.heap[0]
	cur := &pj.curs[c]
	l := cur.left
	cand := &pj.cands[cur.pos]
	in := &pj.inputs[cand.input]
	copy(pj.scratch, l.Binding)
	for _, v := range pj.legVars {
		if p := in.at[v]; p >= 0 {
			pj.scratch[v] = cand.t[p]
		}
	}
	score, relaxed := l.Score+cand.score, l.Relaxed|in.Mask
	if cur.pos++; cur.pos == cur.end {
		n := len(pj.heap) - 1
		pj.heap[0] = pj.heap[n]
		pj.heap = pj.heap[:n]
		cur.left = Entry{}
	} else {
		cur.score = l.Score + pj.cands[cur.pos].score
	}
	pj.fixRoot()
	return score, relaxed
}

// threshold bounds the results of left entries not yet pulled; once the
// left side is exhausted none remain.
func (pj *ProbeJoin) threshold() float64 {
	if pj.leftDone {
		return 0
	}
	return pj.left.Bound() + pj.legTop
}

func (pj *ProbeJoin) prime() {
	if pj.primed {
		return
	}
	pj.primed = true
	pj.top = pj.left.TopScore() + pj.legTop
	pj.last = pj.top
	pj.cert = pj.top
	pj.stats.SetTop(pj.top)
}

// TopScore implements Stream.
func (pj *ProbeJoin) TopScore() float64 {
	pj.prime()
	return pj.top
}

// Bound implements Stream.
func (pj *ProbeJoin) Bound() float64 {
	pj.prime()
	t := pj.threshold()
	if len(pj.heap) > 0 {
		if s := pj.curs[pj.heap[0]].score; s > t {
			t = s
		}
	}
	if t > pj.last {
		t = pj.last
	}
	return t
}

// Certificate implements Certified: the threshold that held when the most
// recent entry was emitted (the initial top-score bound before the first).
func (pj *ProbeJoin) Certificate() float64 {
	pj.prime()
	return pj.cert
}

// Next implements Stream. Like RankJoin.Next, one call may pull many left
// entries before a result is final, so the loop polls the counter's abort
// hook every AbortStride left pulls.
func (pj *ProbeJoin) Next() (Entry, bool) {
	pj.prime()
	for {
		if pj.aborted {
			return Entry{}, false
		}
		if pj.pulls >= AbortStride {
			pj.pulls = 0
			pj.stats.AbortPoll()
			if pj.counter.Aborted() {
				pj.aborted = true
				return Entry{}, false
			}
		}
		t := pj.threshold()
		if len(pj.heap) > 0 && pj.curs[pj.heap[0]].score >= t-1e-12 {
			score, relaxed := pj.pop()
			if !pj.emitted.add(pj.emitKeyer.Key(pj.scratch)) {
				pj.stats.DedupDrop()
				continue
			}
			e := Entry{Binding: pj.arena.clone(pj.scratch), Score: score, Relaxed: relaxed}
			pj.counter.Inc()
			pj.stats.Created()
			pj.last = score
			pj.cert = t
			if pj.stats != nil {
				pj.stats.Emit()
				pj.stats.SampleBound(t)
				pj.stats.SetArenaBytes(pj.arena.bytes())
			}
			return e, true
		}
		if pj.leftDone {
			pj.last = 0
			return Entry{}, false
		}
		pj.pulls++
		pj.stats.Pull()
		l, ok := pj.left.Next()
		if !ok {
			pj.leftDone = true
			continue
		}
		pj.admit(l)
	}
}
