package operators

import (
	"specqp/internal/kg"
	"specqp/internal/trace"
)

// NRJN is the Nested-loops Rank Join variant (Ilyas et al., VLDB 2003): like
// HRJN it emits join results in descending score order with the same corner
// bound, but it stores no hash tables — whenever an outer entry arrives, the
// inner stream is re-scanned from the start. It trades memory (no stored
// inputs) for repeated inner scans, and is included as the rank-join
// strategy ablation. Join-key comparison and emitted-binding dedup use
// packed kg.BindingKeys; merged bindings come from a slab arena.
//
// It compares whole join keys, so an entry whose relaxation left a join
// variable unbound (NoID) joins only entries unbound at the same variables,
// where RankJoin joins it with every compatible entry. The ablation keeps
// that keying because NRJN is deleted outright (ROADMAP item 1a).
//
// The inner input must be Resettable.
type NRJN struct {
	outer    Stream
	inner    Resettable
	joinVars []int
	counter  *Counter

	joinKeyer *kg.Keyer
	emitKeyer *kg.Keyer
	arena     bindingArena
	queue     []Entry
	emitted   map[kg.BindingKey]bool
	done      bool
	pulls     int // inner pulls since the last abort poll
	aborted   bool
	top       float64
	last      float64
	primed    bool
	stats     *trace.Node // nil unless the execution is traced
}

// NewNRJN builds a nested-loops rank join of outer with inner.
func NewNRJN(outer Stream, inner Resettable, joinVars []int, c *Counter) *NRJN {
	n := &NRJN{
		outer:     outer,
		inner:     inner,
		joinVars:  joinVars,
		counter:   c,
		joinKeyer: kg.NewProjKeyer(joinVars),
		emitKeyer: kg.NewKeyer(),
		emitted:   make(map[kg.BindingKey]bool),
	}
	if c.Tracing() {
		n.stats = trace.NewNode("NRJN")
	}
	return n
}

func (n *NRJN) prime() {
	if n.primed {
		return
	}
	n.primed = true
	n.top = n.outer.TopScore() + n.inner.TopScore()
	n.last = n.top
	n.stats.SetTop(n.top)
}

// TopScore implements Stream.
func (n *NRJN) TopScore() float64 { n.prime(); return n.top }

// Bound implements Stream.
func (n *NRJN) Bound() float64 {
	n.prime()
	b := n.threshold()
	if len(n.queue) > 0 && n.queue[0].Score > b {
		b = n.queue[0].Score
	}
	if b > n.last {
		b = n.last
	}
	return b
}

func (n *NRJN) threshold() float64 {
	if n.done {
		return 0
	}
	// Unseen results involve an unseen outer entry joined with any inner
	// entry; inner is fully re-scanned per outer step, so the bound is
	// bound(outer) + top(inner).
	return n.outer.Bound() + n.inner.TopScore()
}

func (n *NRJN) step() bool {
	o, ok := n.outer.Next()
	if !ok {
		n.done = true
		return false
	}
	key := n.joinKeyer.Key(o.Binding)
	n.inner.Reset()
	n.stats.Rescan()
	for {
		if n.pulls >= AbortStride {
			n.pulls = 0
			n.stats.AbortPoll()
			if n.counter.Aborted() {
				n.aborted = true
				return false
			}
		}
		n.pulls++
		n.stats.Pull()
		ie, ok := n.inner.Next()
		if !ok {
			break
		}
		if n.joinKeyer.Key(ie.Binding) != key {
			continue
		}
		if !o.Binding.CompatibleWith(ie.Binding) {
			continue
		}
		n.counter.Inc()
		n.stats.Created()
		heapPush(&n.queue, Entry{
			Binding: n.arena.merge(o.Binding, ie.Binding),
			Score:   o.Score + ie.Score,
			Relaxed: o.Relaxed | ie.Relaxed,
		})
	}
	return true
}

// Next implements Stream. Like RankJoin.Next it polls the counter's abort
// hook at a bounded stride inside the re-scan loop, so a cancelled query
// stops mid-scan instead of completing every remaining inner pass.
func (n *NRJN) Next() (Entry, bool) {
	n.prime()
	for {
		if n.aborted {
			return Entry{}, false
		}
		if t := n.threshold(); len(n.queue) > 0 && n.queue[0].Score >= t-1e-12 {
			e := heapPop(&n.queue)
			k := n.emitKeyer.Key(e.Binding)
			if n.emitted[k] {
				n.stats.DedupDrop()
				continue
			}
			n.emitted[k] = true
			n.last = e.Score
			if n.stats != nil {
				n.stats.Emit()
				n.stats.SampleBound(t)
				n.stats.SetArenaBytes(n.arena.bytes())
			}
			return e, true
		}
		if n.done {
			for len(n.queue) > 0 {
				e := heapPop(&n.queue)
				k := n.emitKeyer.Key(e.Binding)
				if n.emitted[k] {
					n.stats.DedupDrop()
					continue
				}
				n.emitted[k] = true
				n.last = e.Score
				if n.stats != nil {
					n.stats.Emit()
					n.stats.SampleBound(0)
					n.stats.SetArenaBytes(n.arena.bytes())
				}
				return e, true
			}
			n.last = 0
			return Entry{}, false
		}
		n.step()
	}
}
