package kg

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ShardedStore is a Graph over N hash-partitioned segments: every triple is
// routed to a shard by its subject ID, each shard is an independent *Store
// sharing one dictionary, and Freeze freezes all shards in parallel, one
// goroutine per shard.
// After Freeze the store stays live: Insert routes new triples into the
// owning shard's mutable head, and each shard compacts its own head into its
// frozen arena independently — compacting one shard never touches, or blocks
// queries on, any other shard, because readers work exclusively off
// immutable per-shard snapshots and an immutable directory snapshot.
//
// Partitioning by subject has two load-bearing consequences:
//
//   - all copies of one (s,p,o) key live in one shard, so per-shard duplicate
//     detection and per-shard dedup remain exact;
//   - a pattern with a bound subject is answered entirely by one shard, and
//     two triples in different shards can only collapse onto the same binding
//     when the pattern's subject is a variable outside the query's variable
//     set (every other shape captures or pins the subject).
//
// Global triple indexes are insertion-ordered across the whole sharded store
// (a per-triple directory maps them to shard-local indexes, and each shard
// keeps the inverse table). Because a shard's local order is the global
// insertion order restricted to that shard — live inserts append to shard
// and directory in lockstep — per-shard score-sorted postings interleave
// into exactly the unsharded match-list order — the property that makes
// sharded execution bit-identical to the flat layout.
//
// Memory overhead versus a flat Store is 12 bytes per triple (directory plus
// inverse table); the per-shard posting arenas sum to the flat layout's size.
type ShardedStore struct {
	dict   *Dict
	shards []*Store
	frozen bool

	// mu serialises mutators (Insert, Compact-all bookkeeping). Readers
	// never take it.
	mu sync.Mutex
	// Mutator-side directory: global index → owning shard and shard-local
	// index, plus the inverse table global[s][l] = global index of shard s's
	// triple l. Readers use the dir snapshot below once frozen.
	locShard []int32
	locIdx   []int32
	global   [][]int32

	// ops mirrors Store.ops across the whole sharded store: the global
	// triple count at Freeze, +1 per applied Mutation.
	// Mutator-side (guarded by mu); readers see the dir snapshot's copy.
	ops uint64

	// dir is the immutable directory snapshot readers use after Freeze;
	// republished on every live mutation (and refreshed after shard
	// compactions so pins capture the merged per-shard states).
	dir atomic.Pointer[shardedDir]
	// version counts live mutations (see Graph.Version).
	version atomic.Uint64

	// pins counts Pin calls (cumulative; see Store.pins).
	pins atomic.Int64
}

// Pins reports how many snapshot views the sharded store has handed out.
func (ss *ShardedStore) Pins() int64 { return ss.pins.Load() }

// CompactionStats aggregates the per-shard tiered/full compaction counters
// and durations (see Store.CompactionStats).
func (ss *ShardedStore) CompactionStats() (full, tiered uint64, fullNS, tieredNS int64) {
	for _, sh := range ss.shards {
		f, t, fns, tns := sh.CompactionStats()
		full += f
		tiered += t
		fullNS += fns
		tieredNS += tns
	}
	return full, tiered, fullNS, tieredNS
}

// shardedDir is one immutable directory snapshot: the global→shard mapping
// and its inverse at a single content version, together with the per-shard
// storeState snapshots captured at the same instant — so a pin is one
// pointer load and every shard view is exactly in lockstep with the
// directory (len(global[i]) == len(states[i].triples), always). Backing
// arrays are shared with newer snapshots (appends only ever write beyond
// every published snapshot's length).
type shardedDir struct {
	locShard []int32
	locIdx   []int32
	global   [][]int32
	states   []*storeState
	// ops is the sharded store's operation count at publish (see
	// ShardedStore.ops).
	ops uint64
}

// NewShardedStore returns an empty sharded store with n segments using the
// given dictionary (or a fresh one if dict is nil). n < 1 is clamped to 1.
func NewShardedStore(dict *Dict, n int) *ShardedStore {
	if dict == nil {
		dict = NewDict()
	}
	if n < 1 {
		n = 1
	}
	ss := &ShardedStore{
		dict:   dict,
		shards: make([]*Store, n),
		global: make([][]int32, n),
	}
	for i := range ss.shards {
		ss.shards[i] = NewStore(dict)
	}
	return ss
}

// NewShardedStoreFrom partitions an existing store's triples into n segments
// (sharing its dictionary) and freezes the result. st itself is left
// untouched — in particular it is not frozen if it was not already.
func NewShardedStoreFrom(st *Store, n int) *ShardedStore {
	ss := NewShardedStore(st.dict, n)
	for _, r := range st.allTriples() {
		if err := ss.Add(r.triple()); err != nil {
			// st accepted the triple, so the shard must too.
			panic(fmt.Sprintf("kg: resharding valid triple failed: %v", err))
		}
	}
	ss.Freeze()
	return ss
}

// shardFor routes a subject ID to its shard.
func (ss *ShardedStore) shardFor(s ID) int {
	h := uint32(s) * 0x9e3779b1
	h ^= h >> 16
	return int(h % uint32(len(ss.shards)))
}

// NumShards reports the number of segments.
func (ss *ShardedStore) NumShards() int { return len(ss.shards) }

// Shard returns segment i. The segment is a plain Store; after Freeze it
// serves zero-alloc shard-local match-list views (plus its own head overlay
// while un-compacted inserts are pending).
func (ss *ShardedStore) Shard(i int) *Store { return ss.shards[i] }

// ShardView implements ShardedGraph: segment i as a Graph over shard-local
// indexes.
func (ss *ShardedStore) ShardView(i int) Graph { return ss.shards[i] }

// GlobalIndexes returns the table mapping shard s's local triple indexes to
// global indexes, as of the current directory snapshot. The result must not
// be mutated. Under a concurrent insert the owning shard can be momentarily
// ahead of the directory; callers treat local indexes beyond the table as
// not-yet-inserted.
func (ss *ShardedStore) GlobalIndexes(s int) []int32 {
	if d := ss.dir.Load(); d != nil {
		return d.global[s]
	}
	return ss.global[s]
}

// Dict returns the shared term dictionary.
func (ss *ShardedStore) Dict() *Dict { return ss.dict }

// Len reports the total number of triples across all shards. On a live
// store it is monotone non-decreasing under concurrent inserts.
func (ss *ShardedStore) Len() int {
	if d := ss.dir.Load(); d != nil {
		return len(d.locShard)
	}
	return len(ss.locShard)
}

// Frozen reports whether Freeze has been called.
func (ss *ShardedStore) Frozen() bool { return ss.frozen }

// appendDir records a triple routed to shard si at shard-local index li.
func (ss *ShardedStore) appendDir(si, li int) {
	ss.locShard = append(ss.locShard, int32(si))
	ss.locIdx = append(ss.locIdx, int32(li))
	ss.global[si] = append(ss.global[si], int32(len(ss.locShard)-1))
}

// publishDir snapshots the mutator-side directory for readers. The outer
// global slice is copied (its inner headers change length per insert); the
// int32 backing arrays are shared, which is safe because appends only write
// beyond every published length and the pointer store is an atomic release.
// Per-shard states are captured in the same snapshot: mutations are
// serialised by ss.mu and always update the shard before publishing, and
// merges never change a shard's triple count, so every captured state covers
// exactly its directory rows.
func (ss *ShardedStore) publishDir() {
	states := make([]*storeState, len(ss.shards))
	for i, sh := range ss.shards {
		states[i] = sh.state()
	}
	ss.dir.Store(&shardedDir{
		locShard: ss.locShard,
		locIdx:   ss.locIdx,
		global:   append([][]int32(nil), ss.global...),
		states:   states,
		ops:      ss.ops,
	})
}

// refreshDir republishes a content-identical directory snapshot so it
// captures the shards' latest post-merge states; without it a pin taken
// after a shard compaction would keep serving the shard's slower (and
// memory-pinning) pre-merge snapshot.
func (ss *ShardedStore) refreshDir() {
	ss.mu.Lock()
	if ss.frozen {
		ss.publishDir()
	}
	ss.mu.Unlock()
}

// Add routes a scored triple to its subject's shard (before Freeze).
func (ss *ShardedStore) Add(t Triple) error {
	if ss.frozen {
		return ErrFrozen
	}
	si := ss.shardFor(t.S)
	sh := ss.shards[si]
	if err := sh.Add(t); err != nil {
		return err
	}
	ss.appendDir(si, sh.Len()-1)
	return nil
}

// AddSPO encodes the three terms and appends the triple.
func (ss *ShardedStore) AddSPO(s, p, o string, score float64) error {
	return ss.Add(Triple{
		S:     ss.dict.Encode(s),
		P:     ss.dict.Encode(p),
		O:     ss.dict.Encode(o),
		Score: score,
	})
}

// Apply routes one mutation to its subject's shard — every copy of a key
// shares a shard — and republishes the directory snapshot (see
// LiveGraph.Apply). The shard publishes first and the directory after, under
// the directory lock, so every directory entry has its triple present and a
// view pinned before Apply returns sees none of m, one pinned after sees all
// of it. Before Freeze an insert stages like Add.
//
// An automatic compaction is handed back, not run: its caller runs it after
// the directory lock is released, and the posting rebuild itself runs
// outside the shard lock too (triples inserted meanwhile are folded back into
// the head at publish), so neither readers nor writers — of this shard or
// any other — wait for a merge.
func (ss *ShardedStore) Apply(m Mutation) (removed int, compact func(), err error) {
	if err := m.Validate(); err != nil {
		return 0, nil, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ss.frozen {
		if m.Op != OpInsert {
			return 0, nil, ErrNotLive
		}
		return 0, nil, ss.Add(m.Triple)
	}
	si := ss.shardFor(m.Triple.S)
	sh := ss.shards[si]
	removed, need, err := sh.apply(m)
	if err != nil {
		return 0, nil, err
	}
	if m.Op != OpDelete {
		ss.appendDir(si, sh.Len()-1)
	}
	ss.ops++
	ss.publishDir()
	ss.version.Add(1)
	if need {
		return removed, func() { sh.compactIfNeeded(); ss.refreshDir() }, nil
	}
	return removed, nil, nil
}

// Freeze freezes every shard concurrently and publishes the read-side
// directory snapshot. Add must not be called afterwards (Insert may). Like
// Store.Freeze it is idempotent but must be called from a single goroutine;
// read from as many as you like afterwards.
func (ss *ShardedStore) Freeze() {
	if ss.frozen {
		return
	}
	var wg sync.WaitGroup
	for _, sh := range ss.shards {
		wg.Add(1)
		go func(sh *Store) {
			defer wg.Done()
			sh.Freeze()
		}(sh)
	}
	wg.Wait()
	ss.ops = uint64(len(ss.locShard))
	ss.publishDir()
	ss.frozen = true
}

// Compact merges every shard's pending head (and L1 tier) into its frozen
// arena, in parallel across shards, then refreshes the directory snapshot.
// Readers are never blocked; answers are identical before and after.
func (ss *ShardedStore) Compact() {
	var wg sync.WaitGroup
	for _, sh := range ss.shards {
		wg.Add(1)
		go func(sh *Store) {
			defer wg.Done()
			sh.Compact()
		}(sh)
	}
	wg.Wait()
	ss.refreshDir()
}

// CompactShard merges shard i's head only. Other shards' snapshots are left
// physically untouched, so the merge cost is proportional to one segment and
// queries on other shards proceed completely undisturbed.
func (ss *ShardedStore) CompactShard(i int) {
	ss.shards[i].Compact()
	ss.refreshDir()
}

// SetHeadLimit sets every shard's automatic-compaction threshold (the limit
// applies per segment, not to the aggregate head size).
func (ss *ShardedStore) SetHeadLimit(n int) {
	for _, sh := range ss.shards {
		sh.SetHeadLimit(n)
	}
}

// SetL1Limit configures every shard's tiered compaction (the threshold
// applies per segment; see Store.SetL1Limit).
func (ss *ShardedStore) SetL1Limit(n int) {
	for _, sh := range ss.shards {
		sh.SetL1Limit(n)
	}
}

// HeadLen reports the total number of un-compacted head triples across all
// shards.
func (ss *ShardedStore) HeadLen() int {
	n := 0
	for _, sh := range ss.shards {
		n += sh.HeadLen()
	}
	return n
}

// L1Len reports the total number of physical triple slots the shards' L1
// tiers cover.
func (ss *ShardedStore) L1Len() int {
	n := 0
	for _, sh := range ss.shards {
		n += sh.L1Len()
	}
	return n
}

// Tombstones reports the total number of pending tombstones across shards.
func (ss *ShardedStore) Tombstones() int {
	n := 0
	for _, sh := range ss.shards {
		n += sh.Tombstones()
	}
	return n
}

// Ops reports applied mutation operations (see Store.Ops).
func (ss *ShardedStore) Ops() uint64 {
	if d := ss.dir.Load(); d != nil {
		return d.ops
	}
	return uint64(len(ss.locShard))
}

// LiveLen reports the number of live (non-retracted) triples across shards;
// Len keeps counting retracted slots.
func (ss *ShardedStore) LiveLen() int {
	if d := ss.dir.Load(); d != nil {
		n := 0
		for _, s := range d.states {
			n += len(s.triples) - s.dead
		}
		return n
	}
	return len(ss.locShard)
}

// Compactions reports the total number of head merges across all shards.
func (ss *ShardedStore) Compactions() uint64 {
	var n uint64
	for _, sh := range ss.shards {
		n += sh.Compactions()
	}
	return n
}

// Version reports the logical content version (see Graph.Version).
func (ss *ShardedStore) Version() uint64 { return ss.version.Load() }

// HasDuplicates reports whether any shard holds duplicate (s,p,o) keys.
// Identical keys share a subject and therefore a shard, so this is exact —
// head triples included.
func (ss *ShardedStore) HasDuplicates() bool {
	for _, sh := range ss.shards {
		if sh.HasDuplicates() {
			return true
		}
	}
	return false
}

// Triple returns the triple at global index i. The shard is always at least
// as new as the directory snapshot, so every directory entry resolves.
func (ss *ShardedStore) Triple(i int32) Triple {
	if d := ss.dir.Load(); d != nil {
		return ss.shards[d.locShard[i]].Triple(d.locIdx[i])
	}
	return ss.shards[ss.locShard[i]].Triple(ss.locIdx[i])
}

// subjectShard returns the single shard able to match p when p's subject is
// bound, and ok=false otherwise.
func (ss *ShardedStore) subjectShard(p Pattern) (*Store, bool) {
	if p.S.IsVar {
		return nil, false
	}
	return ss.shards[ss.shardFor(p.S.ID)], true
}

// Cardinality returns the number of triples matching p — the aggregate over
// all shards (heads included), which is what the planner's cost model must
// see. A bound subject pins the single owning shard; every other shape sums
// per-shard cardinalities without materialising a merged list.
func (ss *ShardedStore) Cardinality(p Pattern) int {
	if sh, ok := ss.subjectShard(p); ok {
		return sh.Cardinality(p)
	}
	n := 0
	for _, sh := range ss.shards {
		n += sh.Cardinality(p)
	}
	return n
}

// MaxScore returns the global maximum raw score among matches of p — the
// Definition 5 normalisation constant. Per-shard lists are score-sorted, so
// this is one head peek (plus a head-overlay probe) per shard.
func (ss *ShardedStore) MaxScore(p Pattern) float64 {
	if sh, ok := ss.subjectShard(p); ok {
		return sh.MaxScore(p)
	}
	max := 0.0
	for _, sh := range ss.shards {
		if m := sh.MaxScore(p); m > max {
			max = m
		}
	}
	return max
}

// MatchList returns the global indexes of triples matching p in canonical
// order (score descending, global index ascending on ties), read from one
// directory snapshot into a fresh slice. The query path (ShardedListScan)
// never calls it — it merges the per-shard cursors in line.
func (ss *ShardedStore) MatchList(p Pattern) []int32 {
	return ss.view().MatchList(p)
}

// Matches opens a cursor over p's matches on one directory snapshot (see
// pinnedSharded.Matches).
func (ss *ShardedStore) Matches(p Pattern) Cursor {
	return ss.view().Matches(p)
}
