package operators

import (
	"specqp/internal/kg"
	"specqp/internal/trace"
)

// ShardedListScan streams the matches of one triple pattern over a
// kg.ShardedStore: one ListScan per non-empty shard — each reading that
// shard's match cursor, normalised by the *global* maximum score —
// interleaved by a k-way heap on (raw score descending, global triple
// index ascending). Because a shard's local order is the global insertion
// order restricted to that shard, the merged sequence is exactly the
// unsharded ListScan's emission sequence: same entries, same order, same
// scores, same TopScore/Bound trajectory. Downstream operators therefore
// behave bit-identically whether a query runs over one segment or many.
//
// Deduplication stays where the partitioning puts it: per-shard sub-scans
// dedup within their shard (duplicates of one (s,p,o) key share a subject and
// hence a shard), and a merge-level map is added only for the single shape
// where two shards can emit the same binding — a pattern whose subject is a
// variable outside the query's variable set, which the binding does not
// capture.
type ShardedListScan struct {
	subs    []*ListScan
	glob    [][]int32   // per sub: shard-local index → global index
	heads   []shardHead // k-way merge heap (package-generic heap helpers)
	counter *Counter

	// seen dedups across shards; nil unless the pattern's subject is an
	// out-of-varset variable (see type comment).
	seen  map[kg.BindingKey]bool
	keyer *kg.Keyer

	top    float64
	last   float64
	primed bool
	// held marks the heap's root as the current head, which the next
	// advance moves past first, so its view stays valid until then.
	held bool

	// stats is the merged scan's trace node; the per-shard sub-scans carry
	// nil counters and stay untraced individually — the merge records the
	// post-dedup view, exactly like the unsharded scan, with Shards recording
	// the fan-in.
	stats *trace.Node
}

// shardHead is one sub-scan's current head in the merge heap; its binding
// is the sub-scan's scratch slot.
type shardHead struct {
	score float64 // the head's normalised, weighted score
	raw   float64 // raw (unnormalised) triple score behind the head
	g     int32   // global triple index behind the head
	sub   int32   // index into subs/glob
}

// heapLess orders heads by raw triple score descending, global triple index
// ascending on ties — exactly the flat match-list order, which is defined on
// raw scores. Comparing the normalised entry scores instead would be wrong:
// float64 division can collapse two distinct raw scores onto one normalised
// value, and the flat scan still emits the higher-raw triple first.
// Normalisation is a monotone map (a non-negative constant factor per scan),
// so raw order also keeps the emitted normalised sequence descending.
func (h shardHead) heapLess(o shardHead) bool {
	if h.raw != o.raw {
		return h.raw > o.raw
	}
	return h.g < o.g
}

// NewShardedListScan builds the merged scan. Parameters mirror NewListScan.
// The store may be a live *kg.ShardedStore or a pinned view of one. On a
// live store an insert between a shard's cursor and its directory table
// can leave the shard momentarily ahead of the table; each sub-scan skips
// the local indexes the table does not map yet as it reads (its TopScore
// may still count one, which only loosens that bound). A pinned view's
// shards never run ahead.
func NewShardedListScan(ss kg.ShardedGraph, vs *kg.VarSet, p kg.Pattern, weight float64, mask uint32, c *Counter) *ShardedListScan {
	s := &ShardedListScan{counter: c}
	type shardCursor struct {
		sh   kg.Graph
		glob []int32
		cur  kg.Cursor
	}
	curs := make([]shardCursor, 0, ss.NumShards())
	for si := 0; si < ss.NumShards(); si++ {
		sh := ss.ShardView(si)
		glob := ss.GlobalIndexes(si)
		cur := sh.Matches(p)
		if cur.Empty() {
			continue
		}
		curs = append(curs, shardCursor{sh: sh, glob: glob, cur: cur})
	}
	// The normalisation constant is loaded AFTER the cursors: triples are
	// only ever appended, so each shard's current maximum covers every raw
	// score its (possibly older) cursor reads — emitted normalised scores
	// can never exceed the weight even when an insert races the
	// construction. At quiescence this is exactly the flat scan's global
	// maximum.
	max := ss.MaxScore(p)
	for _, sc := range curs {
		// Sub-scans carry a nil counter: the merge counts post-dedup
		// emissions, exactly like the unsharded scan.
		sub := newListScanOver(sc.sh, vs, p, weight, mask, nil, sc.cur, max, int32(len(sc.glob)))
		s.subs = append(s.subs, sub)
		s.glob = append(s.glob, sc.glob)
		if sub.top > s.top {
			s.top = sub.top
		}
	}
	if p.S.IsVar && vs.Index(p.S.Name) < 0 && len(s.subs) > 1 {
		// Bindings do not capture the subject, so the same binding can arise
		// in several shards; keep the globally-first occurrence, as the
		// unsharded scan does. Every sub-scan compiled the same pattern, so
		// its touched set is exactly the projection the merge must key.
		s.seen = make(map[kg.BindingKey]bool)
		s.keyer = kg.NewProjKeyer(s.subs[0].touched)
	}
	s.heads = make([]shardHead, 0, len(s.subs))
	s.last = s.top
	if c.Tracing() {
		s.stats = trace.NewNode("ShardedListScan")
		s.stats.Detail = ss.Dict().PatternString(p)
		s.stats.Shards = len(s.subs)
		s.stats.SetTop(s.top)
	}
	return s
}

// pull advances sub i to its next head; ok reports whether it has one.
func (s *ShardedListScan) pull(i int32) (shardHead, bool) {
	sub := s.subs[i]
	score, ok := sub.advance()
	if !ok {
		return shardHead{}, false
	}
	return shardHead{
		score: score,
		raw:   sub.store.Triple(sub.headIdx).Score,
		g:     s.glob[i][sub.headIdx],
		sub:   i,
	}, true
}

// step moves the root's sub-scan past its head.
func (s *ShardedListScan) step() {
	if nh, ok := s.pull(s.heads[0].sub); ok {
		s.heads[0] = nh
		heapFixRoot(s.heads)
	} else {
		heapPop(&s.heads)
	}
}

func (s *ShardedListScan) prime() {
	if s.primed {
		return
	}
	s.primed = true
	for i := range s.subs {
		if h, ok := s.pull(int32(i)); ok {
			heapPush(&s.heads, h)
		}
	}
}

// TopScore implements Stream.
func (s *ShardedListScan) TopScore() float64 { return s.top }

// Bound implements Stream.
func (s *ShardedListScan) Bound() float64 { return s.last }

// advance moves to the scan's next entry, the heap's root, without handing
// it off; its binding is then view.
func (s *ShardedListScan) advance() (float64, bool) {
	s.prime()
	if s.held {
		s.held = false
		s.step()
	}
	for len(s.heads) > 0 {
		s.stats.Pull()
		if s.seen != nil {
			key := s.keyer.Key(s.view())
			if s.seen[key] {
				s.stats.DedupDrop()
				s.step()
				continue
			}
			s.seen[key] = true
		}
		s.held = true
		return s.heads[0].score, true
	}
	s.last = 0
	return 0, false
}

// view is the current head's binding, valid until the next advance.
func (s *ShardedListScan) view() kg.Binding { return s.subs[s.heads[0].sub].scratch }

// take hands the current head off: cloned from its sub-scan's arena (the
// sub-scans count nothing) and counted here.
func (s *ShardedListScan) take() Entry {
	e := s.subs[s.heads[0].sub].take()
	s.last = e.Score
	s.counter.Inc()
	if s.stats != nil {
		s.stats.Emit()
		s.stats.SampleBound(e.Score)
	}
	return e
}

// Next implements Stream.
func (s *ShardedListScan) Next() (Entry, bool) {
	if _, ok := s.advance(); !ok {
		return Entry{}, false
	}
	return s.take(), true
}

// Reset implements Resettable. Like ListScan.Reset it invalidates previously
// returned entries: the sub-scans' arenas are reused by the next pass.
func (s *ShardedListScan) Reset() {
	for _, sub := range s.subs {
		sub.Reset()
	}
	s.heads = s.heads[:0]
	s.primed, s.held = false, false
	s.last = s.top
	if s.seen != nil {
		clear(s.seen)
		s.keyer.Reset()
	}
}

// NewPatternScan builds the appropriate scan for the store layout: a merged
// per-shard scan over a multi-segment ShardedStore, a plain ListScan
// otherwise. Both stream the same entries in the same order; the sharded
// variant merges the shards' cursors in line instead of reading one merged
// list.
func NewPatternScan(g kg.Graph, vs *kg.VarSet, p kg.Pattern, weight float64, mask uint32, c *Counter) Stream {
	if ss, ok := g.(kg.ShardedGraph); ok && ss.NumShards() > 1 {
		return NewShardedListScan(ss, vs, p, weight, mask, c)
	}
	return NewListScan(g, vs, p, weight, mask, c)
}
