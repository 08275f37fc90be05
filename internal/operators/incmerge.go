package operators

import (
	"fmt"

	"specqp/internal/kg"
	"specqp/internal/trace"
)

// IncrementalMerge folds one triple pattern's original match stream and the
// streams of all its relaxations into a single stream sorted by effective
// score (weight × normalised score), deduplicating bindings across inputs
// (the first occurrence carries the maximum effective score, satisfying the
// max-over-derivations rule of Definition 8).
//
// The implementation is a lazy k-way heap merge: each input advances only
// when its current head is globally next, so lists whose relaxation weight is
// low are barely read — this is exactly what makes TriniT cheaper than the
// naive evaluate-everything baseline. Input i's current head score lives in
// cur[i] and the heap orders input indexes, so advancing an input sifts
// 4-byte indexes rather than whole entries; dedup is a keyTab set over packed
// kg.BindingKeys.
//
// Heads are ranked in place: a scan input (ListScan, ShardedListScan,
// AnswerScan) shows the merge its next entry's score and a view of its
// binding, and only the head the merge emits is materialised and counted,
// by the scan's hand-off and by the merge's emit. A head the merge drops as
// a duplicate, or still holds when the drain stops, is never cloned or
// counted. Any other stream is pulled eagerly through pulledInput and counts
// its entries itself.
type IncrementalMerge struct {
	inputs []Stream
	heads  []mergeInput // heads[i]: inputs[i] as the merge reads it
	// nonResettable is the index of the first input that does not implement
	// Resettable, or -1 when every input does (the invariant Reset needs).
	// It is established at construction so a Reset on an unresettable merge
	// fails with a diagnostic instead of a bare type-assertion panic.
	nonResettable int
	cur           []float64 // cur[i]: the score of input i's current head
	order         []int32   // heap of input indexes with a head, best first
	seen          keyTab    // set form: keys of emitted bindings
	keyer         *kg.Keyer
	counter       *Counter
	pulls         int  // input pulls since the last abort poll
	aborted       bool // sticky: once aborted, the stream stays exhausted
	top           float64
	last          float64
	primed        bool
	stats         *trace.Node // nil unless the execution is traced
}

// mergeInput is one input as the merge reads it. advance moves to the
// input's next entry and returns its score; the entry's binding is then view
// until the next advance. take hands the current entry off, materialised and
// counted at the input's own site; an entry advanced past without take is
// neither.
type mergeInput interface {
	advance() (score float64, ok bool)
	view() kg.Binding
	take() Entry
}

// pulledInput reads a Stream that ranks no head in place: advance pulls the
// stream's next entry, which the stream has already materialised and
// counted, and take returns it.
type pulledInput struct {
	s Stream
	e Entry
}

func (p *pulledInput) advance() (float64, bool) {
	e, ok := p.s.Next()
	p.e = e
	return e.Score, ok
}

func (p *pulledInput) view() kg.Binding { return p.e.Binding }
func (p *pulledInput) take() Entry      { return p.e }

// NewIncrementalMerge merges the given streams. Inputs must each be sorted by
// score descending; stream 0 is conventionally the original pattern. The
// counter records merged-entry creations.
func NewIncrementalMerge(inputs []Stream, c *Counter) *IncrementalMerge {
	m := &IncrementalMerge{
		inputs:        inputs,
		heads:         make([]mergeInput, len(inputs)),
		nonResettable: -1,
		cur:           make([]float64, len(inputs)),
		order:         make([]int32, 0, len(inputs)),
		seen:          keyTab{ws: c.Workspace()},
		keyer:         kg.NewKeyer(),
		counter:       c,
	}
	for i, in := range inputs {
		if h, ok := in.(mergeInput); ok {
			m.heads[i] = h
		} else {
			m.heads[i] = &pulledInput{s: in}
		}
		if _, ok := in.(Resettable); !ok && m.nonResettable < 0 {
			m.nonResettable = i
		}
	}
	if c.Tracing() {
		m.stats = trace.NewNode("IncrementalMerge")
	}
	return m
}

func (m *IncrementalMerge) prime() {
	if m.primed {
		return
	}
	m.primed = true
	for i, in := range m.heads {
		if score, ok := in.advance(); ok {
			m.cur[i] = score
			m.push(int32(i))
		}
	}
	if len(m.order) > 0 {
		m.top = m.cur[m.order[0]]
	}
	m.last = m.top
	m.stats.SetTop(m.top)
}

// TopScore implements Stream.
func (m *IncrementalMerge) TopScore() float64 {
	m.prime()
	return m.top
}

// Bound implements Stream.
func (m *IncrementalMerge) Bound() float64 {
	m.prime()
	return m.last
}

// Next implements Stream.
//
// Dedup-heavy inputs can make one Next call pull many entries before an
// unseen binding surfaces, so the loop polls the counter's abort hook every
// AbortStride pulls (see RankJoin.Next) and reports exhaustion when it fires.
func (m *IncrementalMerge) Next() (Entry, bool) {
	m.prime()
	for len(m.order) > 0 {
		if m.aborted {
			return Entry{}, false
		}
		if m.pulls >= AbortStride {
			m.pulls = 0
			m.stats.AbortPoll()
			if m.counter.Aborted() {
				m.aborted = true
				m.last = 0
				return Entry{}, false
			}
		}
		m.pulls++
		m.stats.Pull()
		src := m.order[0]
		in := m.heads[src]
		// The head's view is valid only until its input advances, so it is
		// checked, and taken if new, first.
		fresh := m.seen.add(m.keyer.Key(in.view()))
		var h Entry
		if fresh {
			h = in.take()
		}
		if score, ok := in.advance(); ok {
			m.cur[src] = score
		} else {
			n := len(m.order) - 1
			m.order[0] = m.order[n]
			m.order = m.order[:n]
		}
		m.fixRoot()
		if !fresh {
			m.stats.DedupDrop()
			continue
		}
		m.last = h.Score
		m.counter.Inc()
		if m.stats != nil {
			m.stats.Emit()
			m.stats.SampleBound(h.Score)
		}
		return h, true
	}
	m.last = 0
	return Entry{}, false
}

// CanReset reports whether every input implements Resettable — the
// precondition of Reset.
func (m *IncrementalMerge) CanReset() bool { return m.nonResettable < 0 }

// Reset implements Resettable when every input does; check CanReset before
// calling on merges built over arbitrary streams. Calling Reset on a merge
// with a non-resettable input panics with a diagnostic identifying the
// input, rather than an opaque type-assertion failure mid-restart.
func (m *IncrementalMerge) Reset() {
	if m.nonResettable >= 0 {
		panic(fmt.Sprintf(
			"operators: IncrementalMerge.Reset: input %d (%T) does not implement Resettable; the merge is resettable only when every input is",
			m.nonResettable, m.inputs[m.nonResettable]))
	}
	for _, in := range m.inputs {
		in.(Resettable).Reset()
	}
	clear(m.cur)
	m.order = m.order[:0]
	m.seen.reset()
	m.keyer.Reset()
	m.primed = false
	m.last = 0
}

// less orders inputs by head score descending, input index ascending on ties.
func (m *IncrementalMerge) less(a, b int32) bool {
	if sa, sb := m.cur[a], m.cur[b]; sa != sb {
		return sa > sb
	}
	return a < b
}

func (m *IncrementalMerge) push(i int32) {
	m.order = append(m.order, i)
	h := m.order
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if !m.less(h[j], h[p]) {
			break
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
}

// fixRoot restores the heap after the root input's head changed or the root
// was replaced by the last input.
func (m *IncrementalMerge) fixRoot() {
	h := m.order
	n := len(h)
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && m.less(h[l], h[s]) {
			s = l
		}
		if r < n && m.less(h[r], h[s]) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}
