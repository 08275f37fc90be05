package kg

import (
	"sort"
	"sync/atomic"
)

// This file implements snapshot pinning: Graph.Pin captures an immutable
// read view of a live store so that an entire operator tree — or one
// Evaluate/Count call — reads exactly one content version even while
// concurrent mutations land. Before pinning, each operator (and each
// recursion step of the exact evaluator) loaded its own snapshot, so a query
// racing an ingest could combine match lists from different versions: every
// list was internally consistent, but the joined answer corresponded to no
// single store state. A pinned view gives full snapshot isolation —
// mid-mutation answers are bit-identical to a quiescent store holding
// exactly the pinned mutation prefix. In particular a view pinned before a
// Delete keeps answering with the retracted fact, and one pinned after
// never sees it.
//
// For the flat store a pin is one atomic storeState load. For the sharded
// store it is one atomic directory load: the directory snapshot embeds the
// per-shard storeStates captured under the mutator lock at publish time, so
// shard views are exactly in lockstep with the directory — no visibility
// clamping is needed, and a mutation between two loads can never leak into
// a pin.

// pinnedStore is an immutable view of one segment: a captured storeState.
// Every read delegates straight to the snapshot.
type pinnedStore struct {
	dict *Dict
	s    *storeState
	// version is the owning store's content version at pin time (see
	// Graph.Version); constant for the pin's lifetime.
	version uint64
	// dup records HasDuplicates at pin time (it may over-approximate after
	// deletes, which only costs operators an unnecessary dedup map — never
	// correctness).
	dup bool
}

var _ matcher = (*pinnedStore)(nil)

// Dict implements Graph.
func (ps *pinnedStore) Dict() *Dict { return ps.dict }

// Len implements Graph: the pinned physical triple count (retracted slots
// included, mirroring Store.Len), constant for the pin's lifetime.
func (ps *pinnedStore) Len() int { return len(ps.s.triples) }

// Frozen implements Graph; a pin exists only after Freeze.
func (ps *pinnedStore) Frozen() bool { return true }

// Version implements Graph.
func (ps *pinnedStore) Version() uint64 { return ps.version }

// Pin implements Graph: a pinned view is already immutable.
func (ps *pinnedStore) Pin() Graph { return ps }

// Triple implements Graph.
func (ps *pinnedStore) Triple(i int32) Triple { return ps.s.triples[i] }

// HasDuplicates implements Graph.
func (ps *pinnedStore) HasDuplicates() bool { return ps.dup }

// MatchList implements Graph: the snapshot's own (cached) list.
func (ps *pinnedStore) MatchList(p Pattern) []int32 { return ps.s.matchList(p) }

// Cardinality implements Graph.
func (ps *pinnedStore) Cardinality(p Pattern) int { return ps.s.cardinality(p) }

// MaxScore implements Graph: the Definition 5 normalisation constant.
func (ps *pinnedStore) MaxScore(p Pattern) float64 { return ps.s.maxScore(p) }

// forCandidates implements matcher.
func (ps *pinnedStore) forCandidates(sub Pattern, f func(t Triple)) {
	ps.s.forCandidates(sub, f)
}

// dupFor computes a snapshot's duplicate flag across all segments.
func dupFor(s *storeState) bool {
	if s.post.hasDuplicates || s.headDup || s.crossDup {
		return true
	}
	return s.l1 != nil && s.l1.hasDuplicates
}

// pin captures the store's current snapshot as an immutable view.
func (st *Store) pin() *pinnedStore {
	st.pins.Add(1)
	s := st.state()
	return &pinnedStore{
		dict:    st.dict,
		s:       s,
		version: st.version.Load(),
		dup:     dupFor(s),
	}
}

// Pin implements Graph (see the file comment for the isolation contract).
func (st *Store) Pin() Graph { return st.pin() }

// pinnedSharded is an immutable view of a sharded store: one directory
// snapshot whose embedded per-shard states become the shard views, together
// describing exactly the global mutation prefix the directory covers.
type pinnedSharded struct {
	ss      *ShardedStore
	dir     *shardedDir
	shards  []*pinnedStore
	version uint64
	// merged lazily caches materialised global match lists for this pin
	// (cold paths — single-segment scans, oracles; the hot query path merges
	// per-shard views through ShardedListScan and never fills it).
	merged atomic.Pointer[listCache]
}

var _ matcher = (*pinnedSharded)(nil)
var _ ShardedGraph = (*pinnedSharded)(nil)

// pin captures the current directory snapshot; the embedded shard states
// were captured with it under the mutator lock, so the whole view is one
// consistent content version.
func (ss *ShardedStore) pin() *pinnedSharded {
	ss.pins.Add(1)
	d := ss.dir.Load()
	if d == nil {
		panic("kg: Pin before Freeze")
	}
	v := ss.version.Load()
	shards := make([]*pinnedStore, len(d.states))
	for i, s := range d.states {
		shards[i] = &pinnedStore{
			dict:    ss.dict,
			s:       s,
			version: v,
			dup:     dupFor(s),
		}
	}
	return &pinnedSharded{ss: ss, dir: d, shards: shards, version: v}
}

// Pin implements Graph (see the file comment for the isolation contract).
func (ss *ShardedStore) Pin() Graph { return ss.pin() }

// Dict implements Graph.
func (ps *pinnedSharded) Dict() *Dict { return ps.ss.dict }

// Len implements Graph: the pinned global physical triple count.
func (ps *pinnedSharded) Len() int { return len(ps.dir.locShard) }

// Frozen implements Graph.
func (ps *pinnedSharded) Frozen() bool { return true }

// Version implements Graph.
func (ps *pinnedSharded) Version() uint64 { return ps.version }

// Pin implements Graph.
func (ps *pinnedSharded) Pin() Graph { return ps }

// NumShards implements ShardedGraph.
func (ps *pinnedSharded) NumShards() int { return len(ps.shards) }

// ShardView implements ShardedGraph: shard i's pinned view.
func (ps *pinnedSharded) ShardView(i int) Graph { return ps.shards[i] }

// GlobalIndexes implements ShardedGraph. The table covers exactly the shard
// view's triples, so every visible local index maps.
func (ps *pinnedSharded) GlobalIndexes(i int) []int32 { return ps.dir.global[i] }

// Triple implements Graph: every pinned directory entry resolves in its
// shard's captured state.
func (ps *pinnedSharded) Triple(i int32) Triple {
	return ps.shards[ps.dir.locShard[i]].s.triples[ps.dir.locIdx[i]]
}

// HasDuplicates implements Graph.
func (ps *pinnedSharded) HasDuplicates() bool {
	for _, sh := range ps.shards {
		if sh.dup {
			return true
		}
	}
	return false
}

// subjectShard returns the single shard able to match p when p's subject is
// bound, and ok=false otherwise.
func (ps *pinnedSharded) subjectShard(p Pattern) (*pinnedStore, bool) {
	if p.S.IsVar {
		return nil, false
	}
	return ps.shards[ps.ss.shardFor(p.S.ID)], true
}

// Cardinality implements Graph over the pinned prefix.
func (ps *pinnedSharded) Cardinality(p Pattern) int {
	if sh, ok := ps.subjectShard(p); ok {
		return sh.Cardinality(p)
	}
	n := 0
	for _, sh := range ps.shards {
		n += sh.Cardinality(p)
	}
	return n
}

// MaxScore implements Graph over the pinned prefix.
func (ps *pinnedSharded) MaxScore(p Pattern) float64 {
	if sh, ok := ps.subjectShard(p); ok {
		return sh.MaxScore(p)
	}
	max := 0.0
	for _, sh := range ps.shards {
		if m := sh.MaxScore(p); m > max {
			max = m
		}
	}
	return max
}

// MatchList implements Graph: the global match list in canonical order,
// materialised once per pattern per pin behind a single-flight cache.
func (ps *pinnedSharded) MatchList(p Pattern) []int32 {
	c := ps.merged.Load()
	if c == nil {
		c = newListCache()
		if !ps.merged.CompareAndSwap(nil, c) {
			c = ps.merged.Load()
		}
	}
	return c.get(p.Key(), func() []int32 { return ps.mergeMatches(p) })
}

// mergeMatches translates every shard's match list to global indexes and
// restores canonical global order.
func (ps *pinnedSharded) mergeMatches(p Pattern) []int32 {
	var out []int32
	for si, sh := range ps.shards {
		glob := ps.dir.global[si]
		for _, li := range sh.MatchList(p) {
			out = append(out, glob[li])
		}
	}
	sort.Slice(out, func(a, b int) bool {
		ta, tb := ps.Triple(out[a]), ps.Triple(out[b])
		if ta.Score != tb.Score {
			return ta.Score > tb.Score
		}
		return out[a] < out[b]
	})
	return out
}

// forCandidates implements matcher. A bound subject pins one shard; every
// other shape unions the shards' candidate enumerations.
func (ps *pinnedSharded) forCandidates(sub Pattern, f func(t Triple)) {
	if sh, ok := ps.subjectShard(sub); ok {
		sh.forCandidates(sub, f)
		return
	}
	for _, sh := range ps.shards {
		sh.forCandidates(sub, f)
	}
}
