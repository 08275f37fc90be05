package operators

import "sync"

// Prefetch pulls entries from an inner stream on a background goroutine into
// a bounded buffer, so independent join legs produce entries concurrently
// while the rank join consumes them. It is *observationally identical* to
// the inner stream: TopScore is captured at construction, and each buffered
// entry carries the inner stream's Bound as recorded immediately after that
// entry was pulled — exactly the value a sequential consumer would have seen
// at that point. The rank join's corner-bound arithmetic, pull balancing and
// termination therefore behave bit-for-bit as in sequential execution; only
// the wall-clock overlap changes.
//
// The inner stream must be self-contained after construction (all leg
// streams — scans, merges, answer scans — are): it is consumed exclusively
// by the background goroutine. Entries stay valid because leg streams only
// recycle bindings on Reset, which the prefetched pipeline never calls, and
// the executor releases the workspace they draw on only once PrefetchAll's
// stop has returned.
// Prefetch is deliberately not Resettable.
type Prefetch struct {
	ch    chan prefetched
	top   float64
	bound float64
	done  bool
	// inner is retained only so TraceTree can walk through the prefetch to
	// the wrapped operator's stats; Next never touches it (the background
	// goroutine owns consumption).
	inner Stream
	// exited is closed when the background goroutine returns.
	exited chan struct{}
}

type prefetched struct {
	e     Entry
	bound float64
	ok    bool
}

// DefaultPrefetchDepth is the per-leg buffer used by the executor: deep
// enough to decouple producer bursts from the join's alternating pulls,
// small enough that an early top-k cutoff wastes little work.
const DefaultPrefetchDepth = 64

// NewPrefetch starts prefetching s. Closing stop terminates the background
// goroutine (used by the executor when the top-k is reached before the legs
// are exhausted): it checks stop before each pull, so at most the pull in
// flight completes. Consumers must not call Next afterwards; PrefetchAll's
// stop function also waits for the goroutine to exit.
func NewPrefetch(s Stream, depth int, stop <-chan struct{}) *Prefetch {
	if depth < 1 {
		depth = 1
	}
	p := &Prefetch{
		ch:     make(chan prefetched, depth),
		top:    s.TopScore(),
		inner:  s,
		exited: make(chan struct{}),
	}
	p.bound = s.Bound()
	go func() {
		defer close(p.exited)
		defer close(p.ch)
		for {
			select {
			case <-stop:
				return
			default:
			}
			e, ok := s.Next()
			item := prefetched{e: e, bound: s.Bound(), ok: ok}
			select {
			case p.ch <- item:
			case <-stop:
				return
			}
			if !ok {
				return
			}
		}
	}()
	return p
}

// PrefetchAll replaces each stream with a Prefetch of it, all sharing one
// stop signal, and returns the function that stops them. Stopping returns
// only once every background goroutine has exited, so no stream is pulled
// after it returns and the memory the streams draw on can be reused. It is
// idempotent and safe to call from several goroutines.
func PrefetchAll(streams []Stream, depth int) (stop func()) {
	ch := make(chan struct{})
	ps := make([]*Prefetch, len(streams))
	for i, s := range streams {
		ps[i] = NewPrefetch(s, depth, ch)
		streams[i] = ps[i]
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			close(ch)
			for _, p := range ps {
				<-p.exited
			}
		})
	}
}

// TopScore implements Stream.
func (p *Prefetch) TopScore() float64 { return p.top }

// Bound implements Stream.
func (p *Prefetch) Bound() float64 { return p.bound }

// Next implements Stream.
func (p *Prefetch) Next() (Entry, bool) {
	if p.done {
		return Entry{}, false
	}
	item, ok := <-p.ch
	if !ok {
		// Channel closed by stop: treat as exhausted without touching the
		// bound (nothing observes it after a cancelled run).
		p.done = true
		return Entry{}, false
	}
	p.bound = item.bound
	if !item.ok {
		p.done = true
		return Entry{}, false
	}
	return item.e, true
}
