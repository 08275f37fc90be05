package kg

import (
	"cmp"
	"slices"
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

var _ Prober = (*pinnedStore)(nil)

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
func (ps *pinnedStore) Triple(i int32) Triple { return ps.s.triples[i].triple() }

// HasDuplicates implements Graph.
func (ps *pinnedStore) HasDuplicates() bool { return ps.dup }

// MatchList implements Graph.
func (ps *pinnedStore) MatchList(p Pattern) []int32 { return ps.s.matchList(p) }

// Matches implements Graph.
func (ps *pinnedStore) Matches(p Pattern) Cursor { return ps.s.cursor(p) }

// Cardinality implements Graph.
func (ps *pinnedStore) Cardinality(p Pattern) int { return ps.s.cursor(p).count() }

// MaxScore implements Graph: the Definition 5 normalisation constant.
func (ps *pinnedStore) MaxScore(p Pattern) float64 { return ps.s.maxScore(p) }

// Probe implements Prober.
func (ps *pinnedStore) Probe(sub Pattern, f func(t Triple)) {
	ps.s.probe(sub, f)
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
}

var _ Prober = (*pinnedSharded)(nil)
var _ ShardedGraph = (*pinnedSharded)(nil)

// pin captures the current directory snapshot as a counted view.
func (ss *ShardedStore) pin() *pinnedSharded {
	ss.pins.Add(1)
	return ss.view()
}

// view captures the current directory snapshot; the embedded shard states
// were captured with it under the mutator lock, so the whole view is one
// consistent content version.
func (ss *ShardedStore) view() *pinnedSharded {
	d := ss.dir.Load()
	if d == nil {
		panic("kg: read before Freeze")
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
	return ps.shards[ps.dir.locShard[i]].s.triples[ps.dir.locIdx[i]].triple()
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

// Matches implements Graph. One shard's local indexes are the global ones,
// so its cursor serves as is; several shards' matches are merged into a
// fresh list first (the query path merges them in line through
// ShardedListScan instead).
func (ps *pinnedSharded) Matches(p Pattern) Cursor {
	if len(ps.shards) == 1 {
		return ps.shards[0].Matches(p)
	}
	var c Cursor
	c.add(ps.MatchList(p), false)
	return c
}

// MatchList implements Graph: every shard's matches translated to global
// indexes, in canonical global order, in a fresh slice.
func (ps *pinnedSharded) MatchList(p Pattern) []int32 {
	if len(ps.shards) == 1 {
		return ps.shards[0].MatchList(p)
	}
	var out []int32
	for si, sh := range ps.shards {
		glob := ps.dir.global[si]
		c := sh.Matches(p)
		for li, ok := c.Next(); ok; li, ok = c.Next() {
			out = append(out, glob[li])
		}
	}
	slices.SortFunc(out, func(a, b int32) int {
		sa, sb := ps.Triple(a).Score, ps.Triple(b).Score
		if sa != sb {
			return cmp.Compare(sb, sa)
		}
		return cmp.Compare(a, b)
	})
	return out
}

// Probe implements Prober. A bound subject probes only the shard that owns
// it; every other shape unions the shards' candidate enumerations.
func (ps *pinnedSharded) Probe(sub Pattern, f func(t Triple)) {
	if sh, ok := ps.subjectShard(sub); ok {
		sh.s.probe(sub, f)
		return
	}
	for _, sh := range ps.shards {
		sh.s.probe(sub, f)
	}
}
