// Package operators implements the physical top-k operators of TriniT and
// Spec-QP: score-sorted scans over a pattern's match list, the Incremental
// Merge operator (Theobald et al., SIGIR 2005) that folds a triple pattern
// and all of its weighted relaxations into one sorted stream, and the
// HRJN-style Rank Join (Ilyas et al., VLDB 2003/04) with corner-bound early
// termination. All operators report the number of answer objects they create
// to a shared Counter — the paper's memory metric ("the total no. of answer
// objects created directly corresponds to the amount of search space
// traversed").
package operators

import (
	"fmt"
	"sync/atomic"

	"specqp/internal/kg"
)

// Entry is one (partial) answer flowing between operators: a binding over
// the query's variable set, its accumulated score, and a bitmask of pattern
// indexes that were satisfied through a relaxation (provenance for the
// prediction-accuracy analysis).
type Entry struct {
	Binding kg.Binding
	Score   float64
	Relaxed uint32
}

// String renders the entry compactly for debugging.
func (e Entry) String() string {
	return fmt.Sprintf("entry{%v %.4f %b}", []kg.ID(e.Binding), e.Score, e.Relaxed)
}

// Counter tallies answer objects created by the operators. A nil *Counter is
// legal and counts nothing, so operators can be used without instrumentation.
//
// A Counter also carries the execution's abort hook (SetAbort): the shared
// per-execution object every operator already receives is the natural channel
// for cancellation, and operators with unbounded internal pull loops — the
// rank joins and the Incremental Merge — poll it at a bounded stride so a
// cancelled query stops mid-join instead of running one full Next() chain to
// completion.
type Counter struct {
	n atomic.Int64
	// abort reports whether the execution should stop early. It is set once,
	// before any operator goroutine starts (RunContext does this ahead of
	// stream construction), and only read afterwards — the goroutine-creation
	// happens-before edge makes the plain field safe under the prefetchers'
	// concurrent reads.
	abort func() bool
	// tracing marks the execution as traced: operators built against this
	// counter allocate a per-instance trace.Node and record pulls, emissions,
	// dedup suppressions and bound samples into it. Set once before stream
	// construction (same happens-before discipline as abort); when false —
	// the default — operators carry a nil node and every recording call is a
	// single nil check, keeping the hot path at 0 allocs/op and bit-identical.
	tracing bool
	// ws supplies the operators' growable slabs (see Workspace); nil means
	// plain allocation. Set once before stream construction, like abort.
	ws *Workspace
}

// AbortStride is the pull-loop polling interval for the abort hook: operators
// with unbounded internal iteration check Aborted every AbortStride input
// pulls, bounding a cancelled query's overshoot to a few hundred probes per
// operator instead of a full input drain.
const AbortStride = 64

// SetAbort installs the abort hook. Call it before the operator tree is built
// (and before any prefetch goroutine starts); f must be safe for concurrent
// use, like ctx.Err.
func (c *Counter) SetAbort(f func() bool) {
	if c != nil {
		c.abort = f
	}
}

// Aborted reports whether the abort hook fired. Nil counters and counters
// without a hook never abort.
func (c *Counter) Aborted() bool {
	return c != nil && c.abort != nil && c.abort()
}

// EnableTracing marks the execution as traced. Call it before the operator
// tree is built; operators constructed afterwards allocate trace nodes.
func (c *Counter) EnableTracing() {
	if c != nil {
		c.tracing = true
	}
}

// Tracing reports whether operators built against this counter should record
// execution statistics. Nil counters never trace.
func (c *Counter) Tracing() bool {
	return c != nil && c.tracing
}

// SetWorkspace makes operators built against this counter draw their slabs
// from w. Call it before the operator tree is built.
func (c *Counter) SetWorkspace(w *Workspace) {
	if c != nil {
		c.ws = w
	}
}

// Workspace returns the execution's workspace; nil counters have none.
func (c *Counter) Workspace() *Workspace {
	if c == nil {
		return nil
	}
	return c.ws
}

// Inc records the creation of one answer object.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add records the creation of k answer objects.
func (c *Counter) Add(k int64) {
	if c != nil {
		c.n.Add(k)
	}
}

// Value returns the number of objects recorded so far.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c != nil {
		c.n.Store(0)
	}
}

// Stream is a pull-based iterator over entries sorted by score descending.
// TopScore is an upper bound on the score of any entry the stream can ever
// produce; Bound is an upper bound on the score of any entry *not yet*
// produced (it starts at TopScore and decreases monotonically as entries are
// consumed). Both are required by the rank join's corner-bound threshold.
type Stream interface {
	// Next returns the next entry in descending score order. ok is false
	// when the stream is exhausted.
	Next() (e Entry, ok bool)
	// TopScore returns the score of the stream's first entry (0 if empty).
	TopScore() float64
	// Bound returns an upper bound on all future entries' scores.
	Bound() float64
}

// Resettable is implemented by streams that can restart from the beginning,
// enabling the nested-loops rank join variant. Reset may invalidate entries
// previously returned by Next: stream bindings are slab-arena-backed and the
// next pass reuses the slabs, so callers must copy (e.g. via Binding.Merge)
// anything they keep across a Reset.
type Resettable interface {
	Stream
	Reset()
}

// Drain exhausts a stream and returns all entries (testing helper and naive
// execution path).
func Drain(s Stream) []Entry {
	var out []Entry
	for {
		e, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// Certified is implemented by streams that can certify their emissions: after
// a successful Next, Certificate returns the corner-bound threshold that held
// at the instant the entry was released — an upper bound on the score of any
// entry the stream had not yet surfaced at that moment. The streaming contract
// is exactly `entry.Score >= Certificate() - eps`: no future entry can outrank
// an emitted one, which is what lets a caller forward answers to a client
// before the top-k fills. RankJoin implements it; the streaming oracle asserts
// it at every emission.
type Certified interface {
	Stream
	Certificate() float64
}

// EmitFunc receives entries the moment the producing stream proves them final.
// Returning false stops the drain early (a disconnected client, a satisfied
// prefix); the producer makes no further pulls after a false return.
type EmitFunc func(Entry) bool

// EmitK pulls at most k entries from the stream, handing each to emit as soon
// as Next proves it final — for the rank joins that is the instant the corner
// bound drops to the entry's score, long before the remaining k-1 are known.
// It returns the number of entries emitted. EmitK is the streaming primitive
// DrainK is expressed on, so batch and streaming consumers observe the same
// entry sequence by construction.
func EmitK(s Stream, k int, emit EmitFunc) int {
	n := 0
	for n < k {
		e, ok := s.Next()
		if !ok {
			break
		}
		n++
		if !emit(e) {
			break
		}
	}
	return n
}

// DrainK pulls at most k entries from the stream. k is only an upper bound:
// the output is presized to at most 64 entries and grows by append, so a huge
// k costs what the stream actually yields.
func DrainK(s Stream, k int) []Entry {
	out := make([]Entry, 0, min(k, 64))
	EmitK(s, k, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// IsSortedDesc reports whether entries are in descending score order
// (invariant checked by tests on every operator output).
func IsSortedDesc(es []Entry) bool {
	for i := 1; i < len(es); i++ {
		if es[i].Score > es[i-1].Score+1e-9 {
			return false
		}
	}
	return true
}
