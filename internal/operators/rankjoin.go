package operators

import (
	"sort"

	"specqp/internal/kg"
	"specqp/internal/trace"
)

// RankJoin is an HRJN-style binary rank join: it joins two score-descending
// streams on their shared variables and emits join results in descending
// order of summed score, reading as little of each input as the corner-bound
// threshold
//
//	T = max( top(L) + bound(R), bound(L) + top(R) )
//
// allows (Ilyas et al.). Hash tables on the join key hold the entries seen so
// far; a priority queue buffers join results until they are provably final.
// Every structure is index-addressed: each side is an append-only entry slab
// chained per join key through an open-addressed keyTab, the emitted set is
// the same table's set form, merged bindings come from a slab arena, and the
// result queue is a heap of slab indexes — so the join allocates only when a
// slab or table doubles, never per probe or per key, and not even then when
// its Counter carries a warm Workspace.
type RankJoin struct {
	left, right Stream
	joinVars    []int // variable indexes bound on both sides
	counter     *Counter

	// joinKeyer keys the joinVars projection and is shared by both tables so
	// left and right entries probe each other; emitKeyer keys whole merged
	// bindings for final dedup.
	joinKeyer         *kg.Keyer
	emitKeyer         *kg.Keyer
	arena             bindingArena
	leftTab, rightTab joinTab
	queue             resultQueue
	emitted           keyTab // set form: keys of emitted bindings
	leftDone          bool
	rightDone         bool
	pullLeft          bool // alternation state
	pulls             int  // input pulls since the last abort poll
	aborted           bool // sticky: once aborted, the stream stays exhausted
	top               float64
	last              float64
	cert              float64 // corner bound at the moment of the last emission
	primed            bool
	stats             *trace.Node // nil unless the execution is traced
}

// NewRankJoin joins left and right on the given shared variable indexes
// (indexes into the query's VarSet; compute them with JoinVars).
func NewRankJoin(left, right Stream, joinVars []int, c *Counter) *RankJoin {
	ws := c.Workspace()
	rj := &RankJoin{
		left:      left,
		right:     right,
		joinVars:  joinVars,
		counter:   c,
		joinKeyer: kg.NewProjKeyer(joinVars),
		emitKeyer: kg.NewKeyer(),
		arena:     bindingArena{ws: ws},
		leftTab:   joinTab{tab: keyTab{ws: ws}},
		rightTab:  joinTab{tab: keyTab{ws: ws}},
		queue:     resultQueue{ws: ws},
		emitted:   keyTab{ws: ws},
	}
	if c.Tracing() {
		rj.stats = trace.NewNode("RankJoin")
	}
	return rj
}

// JoinVars computes the variable indexes bound by both sides, given the sets
// of variable indexes each side binds.
func JoinVars(left, right map[int]bool) []int {
	var out []int
	for v := range left {
		if right[v] {
			out = append(out, v)
		}
	}
	sort.Ints(out) // deterministic order
	return out
}

// threshold computes the HRJN corner bound on unseen join results. Every
// not-yet-enqueued result involves at least one unseen input entry:
//
//	unseen-left × any-right  ≤ bound(L) + top(R)
//	any-left × unseen-right  ≤ top(L) + bound(R)
//
// When a side is exhausted its corner collapses (no unseen entries there).
func (rj *RankJoin) threshold() float64 {
	anyLeftNewRight := rj.left.TopScore() + rj.right.Bound()
	newLeftAnyRight := rj.left.Bound() + rj.right.TopScore()
	switch {
	case rj.leftDone && rj.rightDone:
		return 0
	case rj.leftDone:
		// Only results with an unseen right entry remain possible.
		return anyLeftNewRight
	case rj.rightDone:
		return newLeftAnyRight
	}
	if anyLeftNewRight > newLeftAnyRight {
		return anyLeftNewRight
	}
	return newLeftAnyRight
}

func (rj *RankJoin) prime() {
	if rj.primed {
		return
	}
	rj.primed = true
	rj.top = rj.left.TopScore() + rj.right.TopScore()
	rj.last = rj.top
	rj.cert = rj.top
	rj.stats.SetTop(rj.top)
}

// TopScore implements Stream.
func (rj *RankJoin) TopScore() float64 {
	rj.prime()
	return rj.top
}

// Bound implements Stream.
func (rj *RankJoin) Bound() float64 {
	rj.prime()
	t := rj.threshold()
	if rj.queue.len() > 0 && rj.queue.top().Score > t {
		t = rj.queue.top().Score
	}
	if t > rj.last {
		t = rj.last
	}
	return t
}

// Certificate implements Certified: it returns the corner-bound threshold
// that held at the instant the most recent entry was emitted — the proof that
// no entry surfaced later can outrank it (entry.Score >= Certificate()-eps).
// Before the first emission it returns the initial top-score bound.
func (rj *RankJoin) Certificate() float64 {
	rj.prime()
	return rj.cert
}

// pullOne advances one input (alternating, skipping exhausted sides), probes
// the opposite hash table and enqueues any join results. It returns false
// when both inputs are exhausted.
func (rj *RankJoin) pullOne() bool {
	if rj.leftDone && rj.rightDone {
		return false
	}
	// Alternate, but prefer the side with the larger bound so the threshold
	// drops fast (HRJN* balancing heuristic).
	useLeft := !rj.leftDone
	if !rj.leftDone && !rj.rightDone {
		lb, rb := rj.left.Bound(), rj.right.Bound()
		switch {
		case lb > rb:
			useLeft = true
		case rb > lb:
			useLeft = false
		default:
			useLeft = rj.pullLeft
			rj.pullLeft = !rj.pullLeft
		}
	}
	if useLeft {
		e, ok := rj.left.Next()
		if !ok {
			rj.leftDone = true
			return !rj.rightDone
		}
		key := rj.joinKeyer.Key(e.Binding)
		rj.leftTab.add(key, e)
		for i := rj.rightTab.tab.head(key); i >= 0; i = rj.rightTab.next[i] {
			rj.enqueue(e, rj.rightTab.ents[i])
		}
	} else {
		e, ok := rj.right.Next()
		if !ok {
			rj.rightDone = true
			return !rj.leftDone
		}
		key := rj.joinKeyer.Key(e.Binding)
		rj.rightTab.add(key, e)
		for i := rj.leftTab.tab.head(key); i >= 0; i = rj.leftTab.next[i] {
			rj.enqueue(rj.leftTab.ents[i], e)
		}
	}
	return true
}

func (rj *RankJoin) enqueue(l, r Entry) {
	if !l.Binding.CompatibleWith(r.Binding) {
		return
	}
	joined := Entry{
		Binding: rj.arena.merge(l.Binding, r.Binding),
		Score:   l.Score + r.Score,
		Relaxed: l.Relaxed | r.Relaxed,
	}
	rj.counter.Inc()
	rj.stats.Created()
	rj.queue.push(joined)
}

// joinTab is one side's hash table: an append-only entry slab, chained per
// join key in insertion order by next links and a keyTab in chain form.
type joinTab struct {
	ents []Entry
	next []int32 // slab index of the next entry with the same key, or -1
	tab  keyTab  // its ws is the workspace of ents and next too
}

func (j *joinTab) add(k kg.BindingKey, e Entry) {
	i := int32(len(j.ents))
	j.ents = append(grow2(j.tab.ws.entryPool(), j.ents), e)
	j.next = append(grow2(j.tab.ws.indexPool(), j.next), -1)
	if prev := j.tab.push(k, i); prev >= 0 {
		j.next[prev] = i
	}
}

// resultQueue buffers join results until they are provably final: an
// append-only entry slab and a binary heap of slab indexes ordered by
// Entry.heapLess. It sifts 4-byte indexes instead of whole entries, with the
// same comparisons and swaps as a heap of the entries themselves, so equal
// results pop in the same order.
type resultQueue struct {
	ents []Entry
	heap []int32
	ws   *Workspace
}

func (q *resultQueue) len() int { return len(q.heap) }

// top returns the best buffered result; the queue must not be empty.
func (q *resultQueue) top() *Entry { return &q.ents[q.heap[0]] }

func (q *resultQueue) less(a, b int32) bool { return q.ents[a].heapLess(q.ents[b]) }

func (q *resultQueue) push(e Entry) {
	q.ents = append(grow2(q.ws.entryPool(), q.ents), e)
	q.heap = append(grow2(q.ws.indexPool(), q.heap), int32(len(q.ents)-1))
	h := q.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the best result, zeroing its slab slot so the
// queue retains no binding it has handed out.
func (q *resultQueue) pop() Entry {
	h := q.heap
	best := h[0]
	e := q.ents[best]
	q.ents[best] = Entry{}
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.heap = h
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q.less(h[l], h[s]) {
			s = l
		}
		if r < n && q.less(h[r], h[s]) {
			s = r
		}
		if s == i {
			return e
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// Next implements Stream.
//
// One Next call can pull an unbounded number of input entries before a join
// result becomes provably final (a join with few or no matches drains both
// inputs inside a single call), so the pull loop polls the counter's abort
// hook every AbortStride pulls: a cancelled query makes the stream report
// exhaustion promptly instead of holding its executor worker for the full
// drain. Results already proven final are still emitted first — cancellation
// never reorders or corrupts the stream, it only truncates it.
func (rj *RankJoin) Next() (Entry, bool) {
	rj.prime()
	for {
		if rj.aborted {
			return Entry{}, false
		}
		if rj.pulls >= AbortStride {
			rj.pulls = 0
			rj.stats.AbortPoll()
			if rj.counter.Aborted() {
				rj.aborted = true
				return Entry{}, false
			}
		}
		if t := rj.threshold(); rj.queue.len() > 0 && rj.queue.top().Score >= t-1e-12 {
			e := rj.queue.pop()
			if !rj.emitted.add(rj.emitKeyer.Key(e.Binding)) {
				rj.stats.DedupDrop()
				continue
			}
			rj.last = e.Score
			rj.cert = t
			if rj.stats != nil {
				rj.stats.Emit()
				rj.stats.SampleBound(t)
				rj.stats.SetArenaBytes(rj.arena.bytes())
			}
			return e, true
		}
		rj.pulls++
		rj.stats.Pull()
		if !rj.pullOne() {
			// Inputs exhausted: flush the queue. The corner bound over unseen
			// results has collapsed (no unseen inputs remain), so every flushed
			// entry certifies at zero.
			for rj.queue.len() > 0 {
				e := rj.queue.pop()
				if !rj.emitted.add(rj.emitKeyer.Key(e.Binding)) {
					rj.stats.DedupDrop()
					continue
				}
				rj.last = e.Score
				rj.cert = 0
				if rj.stats != nil {
					rj.stats.Emit()
					rj.stats.SampleBound(0)
					rj.stats.SetArenaBytes(rj.arena.bytes())
				}
				return e, true
			}
			rj.last = 0
			return Entry{}, false
		}
	}
}

// LeftDeep builds a left-deep rank-join tree over the given streams, joining
// stream i+1 onto the accumulated join of streams 0..i. boundVars[i] is the
// set of variable indexes stream i binds.
func LeftDeep(streams []Stream, boundVars []map[int]bool, c *Counter) Stream {
	if len(streams) == 0 {
		return emptyStream{}
	}
	cur := streams[0]
	curVars := boundVars[0]
	for i := 1; i < len(streams); i++ {
		jv := JoinVars(curVars, boundVars[i])
		cur = NewRankJoin(cur, streams[i], jv, c)
		merged := make(map[int]bool, len(curVars)+len(boundVars[i]))
		for v := range curVars {
			merged[v] = true
		}
		for v := range boundVars[i] {
			merged[v] = true
		}
		curVars = merged
	}
	return cur
}

// emptyStream is a Stream with no entries.
type emptyStream struct{}

func (emptyStream) Next() (Entry, bool) { return Entry{}, false }
func (emptyStream) TopScore() float64   { return 0 }
func (emptyStream) Bound() float64      { return 0 }

// PatternBoundVars returns the set of variable indexes a pattern binds under
// the query's variable set.
func PatternBoundVars(vs *kg.VarSet, p kg.Pattern) map[int]bool {
	out := make(map[int]bool)
	for _, name := range p.Vars() {
		if i := vs.Index(name); i >= 0 {
			out[i] = true
		}
	}
	return out
}
