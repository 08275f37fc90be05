package kg

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Store is an in-memory scored triple store. Triples are added with Add and
// the store must be frozen with Freeze before querying. After Freeze the
// store is safe for concurrent readers — and, since the live-ingest layer,
// for concurrent writers through Insert: new triples land in a small mutable
// head overlay on top of the frozen segment, and Compact (or crossing the
// head-size limit) rebuilds the frozen posting arenas with the head folded in.
//
// Freeze builds every posting family pre-sorted by raw score descending
// (triple index as tiebreak), mirroring the paper's setup where a database
// engine "retrieve[s] the matches for triple patterns in sorted order". For
// any pattern whose bound positions resolve to a single posting — fully
// bound, (P,O), (S,P), or a single bound position without repeated variables
// — MatchList is a lock-free, allocation-free slice view of that posting
// whenever the head is empty. Every other read goes through Matches: a
// cursor that merges the main posting, the L1 tier's and the head's sorted
// overlay on read, filtering the shapes no posting answers exactly
// (S+O-bound intersections, repeated variables) as it goes. Nothing is
// cached per pattern.
//
// Readers never lock: all queryable state lives in an immutable storeState
// snapshot behind an atomic pointer. Insert and Compact build a new snapshot
// under the store's mutex and publish it with a single atomic store, so a
// concurrent reader sees either the whole old state or the whole new state —
// never a torn mixture.
type Store struct {
	dict *Dict
	// triples is the pre-freeze staging area, grown by append. Freeze
	// publishes an exactly sized copy in the snapshot, which is authoritative
	// from then on (see allTriples), and drops this one with its slack.
	triples []tripleRec
	frozen  bool

	// live is the current read snapshot; nil until Freeze.
	live atomic.Pointer[storeState]
	// mu serialises mutators (Insert, Delete, Update, merge publishes,
	// SetHeadLimit) after Freeze.
	mu sync.Mutex
	// mergeMu serialises merges (head→L1 and full compactions): a merge
	// builds off-lock against a snapshot loaded under mergeMu, so two
	// concurrent merges could otherwise publish states whose coverage
	// disagrees and orphan head entries absorbed by the loser.
	mergeMu sync.Mutex
	// headLimit is the head size at which Insert triggers an automatic
	// compaction: 0 selects DefaultHeadLimit, negative disables automatic
	// compaction entirely (Compact must be called explicitly).
	headLimit int
	// l1Limit enables tiered compaction when positive: automatic head merges
	// target a small frozen L1 tier instead of the main arena, and the L1 is
	// folded into the main arena only once it covers at least l1Limit
	// triples. 0 (the default) keeps single-level merges; explicit Compact
	// always merges everything into the main arena.
	l1Limit int

	// compacting gates automatic compactions to one in flight (explicit
	// Compact calls always run).
	compacting atomic.Bool
	// version counts content changes: 0 for a store frozen once and never
	// mutated, +1 per successful Insert, Delete or Update. Compaction leaves
	// it unchanged — the visible triple set is identical before and after a
	// merge.
	version atomic.Uint64
	// compactions counts head merges (explicit and automatic).
	compactions atomic.Uint64
	// compactionsFull / compactionsTiered split compactions by tier (full =
	// fold into the main arena, tiered = head → L1), and the *NS fields
	// accumulate each tier's merge wall time — the /metrics per-tier
	// compaction gauges.
	compactionsFull, compactionsTiered   atomic.Uint64
	compactionFullNS, compactionTieredNS atomic.Int64
	// pins counts Pin calls (snapshot views handed out). Views are garbage
	// collected, not released, so this is a cumulative taken-counter.
	pins atomic.Int64
}

// CompactionStats reports per-tier compaction counts and cumulative
// durations: full merges fold everything into the main arena, tiered merges
// re-freeze the head into the L1 tier.
func (st *Store) CompactionStats() (full, tiered uint64, fullNS, tieredNS int64) {
	return st.compactionsFull.Load(), st.compactionsTiered.Load(),
		st.compactionFullNS.Load(), st.compactionTieredNS.Load()
}

// Pins reports how many snapshot views the store has handed out (cumulative;
// views are reclaimed by the garbage collector, never explicitly released).
func (st *Store) Pins() int64 { return st.pins.Load() }

// tripleRec is a Triple as the store keeps it: the three IDs and the
// score's IEEE-754 bits split into two 4-byte halves, so a record is 20 bytes
// at 4-byte alignment where a Triple is 24 at 8. Graph.Triple and every
// reader outside the store still see Triple; readers inside that need only a
// score or a key use score and key instead of rebuilding one. The accessors
// take a pointer: with a value receiver the compiler copied the record
// through the stack on every Graph.Triple call, which made that call, a
// tenth of a Twitter query's CPU time, a quarter slower than loading a
// 24-byte Triple.
type tripleRec struct {
	S, P, O          ID
	scoreLo, scoreHi uint32
}

// packTriple stores t as a record, keeping every bit of its score.
func packTriple(t Triple) tripleRec {
	b := math.Float64bits(t.Score)
	return tripleRec{S: t.S, P: t.P, O: t.O, scoreLo: uint32(b), scoreHi: uint32(b >> 32)}
}

// score returns the record's score.
func (r *tripleRec) score() float64 {
	return math.Float64frombits(uint64(r.scoreHi)<<32 | uint64(r.scoreLo))
}

// key returns the record's (s,p,o) key.
func (r *tripleRec) key() [3]ID { return [3]ID{r.S, r.P, r.O} }

// triple returns the record as the Triple it stores.
func (r *tripleRec) triple() Triple {
	return Triple{S: r.S, P: r.P, O: r.O, Score: r.score()}
}

// storeState is one immutable read snapshot of a live store: the frozen
// posting segment plus the mutable head's sorted overlay. Every reader loads
// exactly one storeState per call, so Insert/Compact swaps are atomic from
// the reader's point of view.
type storeState struct {
	// triples holds the frozen prefix (triples[:frozenLen()]) followed by
	// the head (triples[frozenLen():]), one 20-byte record each. Triple
	// indexes are stable across inserts, deletes and compactions — a
	// retracted triple keeps its slot and is masked out of every read
	// instead; backing arrays are shared between snapshots but slots are
	// written only before the covering snapshot is published. Freeze sizes
	// the array exactly; live inserts grow it by append, so the first insert
	// reallocates once.
	triples []tripleRec
	// post indexes the main frozen segment, triples[:len(post.triples)].
	post *postings
	// l1 is the optional small frozen tier over
	// triples[len(post.triples):len(l1.triples)], built by tiered head
	// merges (see Store.l1Limit); nil when tiering is off or freshly
	// full-compacted.
	l1 *postings
	// headSorted lists head triple indexes in canonical match order — raw
	// score descending, index ascending on ties — the tiny sorted overlay
	// merged on top of frozen views. Deleted head entries are removed
	// physically, so the overlay never lists a retracted fact.
	headSorted []int32
	// tombs is the pending tombstone set: (s,p,o) key → watermark (the
	// store's triple count when the delete was applied). A frozen entry at
	// index i is retracted iff tombs[key] > i, so a key re-inserted after
	// its delete stays visible. Resolved — annihilated into the dead bitmap
	// — at full merges. The map is copy-on-write: never mutated after its
	// snapshot publishes.
	tombs map[[3]ID]int32
	// ops counts applied mutation operations: Freeze sets it to the triple
	// count, then every applied Mutation adds one (it logs as one WAL
	// record). The durability layer maps WAL sequence numbers onto it — with
	// deletes in the mix the triple count no longer measures log position,
	// since a tombstone consumes a sequence number without adding a triple.
	ops uint64
	// dead counts retracted triples still occupying physical slots in
	// triples; len(triples)-dead is the live triple count.
	dead int
	// headDup records whether any head triple repeats an (s,p,o) key already
	// present in the frozen segments or earlier in the head.
	headDup bool
	// crossDup records whether any L1 (s,p,o) key also appears in the main
	// segment (recomputed at every L1 merge; false while l1 is nil). Like
	// headDup it may over-approximate once deletes retract one of the
	// copies — which costs operators a dedup map, never correctness.
	crossDup bool
	// heads lazily indexes the head overlay by subject and by object for
	// probes (nil until the first probe of a snapshot with a head).
	heads atomic.Pointer[headIndex]
	// killedBits lazily marks the frozen entries a pending tombstone
	// retracts, one bit per triple index (nil until the first read of a
	// snapshot with tombstones that needs it).
	killedBits atomic.Pointer[[]uint64]
}

// frozenLen reports how many leading triples the frozen segments cover.
func (s *storeState) frozenLen() int {
	if s.l1 != nil {
		return len(s.l1.triples)
	}
	return len(s.post.triples)
}

// fastRead reports whether reads can serve raw main-segment posting views:
// no head overlay, no L1 tier, no pending tombstones — the zero-allocation
// path every quiescent (or freshly full-compacted) store stays on.
func (s *storeState) fastRead() bool {
	return len(s.headSorted) == 0 && s.l1 == nil && len(s.tombs) == 0
}

// killedSet returns the snapshot's retracted frozen entries as a bitmap
// over triple indexes, nil when no tombstone is pending. It is built on
// first use: one pass over the pending tombstones, each a key run lookup
// per frozen segment. Cursors and probes
// test their entries against it with a load each instead of a map lookup
// on the entry's key, which is the larger cost once a snapshot holds
// tombstones and a query reads thousands of entries.
func (s *storeState) killedSet() []uint64 {
	if len(s.tombs) == 0 {
		return nil
	}
	if b := s.killedBits.Load(); b != nil {
		return *b
	}
	b := make([]uint64, (s.frozenLen()+63)/64)
	for k, w := range s.tombs {
		for _, po := range [2]*postings{s.post, s.l1} {
			if po == nil {
				continue
			}
			for _, ti := range po.keyRun(k) {
				if ti < w {
					b[ti>>6] |= 1 << (ti & 63)
				}
			}
		}
	}
	if !s.killedBits.CompareAndSwap(nil, &b) {
		return *s.killedBits.Load()
	}
	return b
}

// liveKeyCount counts the frozen segments' surviving copies of key k: a
// pending tombstone on k retracts the copies below its watermark. Reads
// test the snapshot's killedSet bitmap instead of the tombstone map.
func (s *storeState) liveKeyCount(k [3]ID) int {
	w, dead := s.tombs[k]
	n := 0
	for _, po := range [2]*postings{s.post, s.l1} {
		if po == nil {
			continue
		}
		for _, ti := range po.keyRun(k) {
			if !dead || ti >= w {
				n++
			}
		}
	}
	return n
}

// NewStore returns an empty store using the given dictionary (or a fresh one
// if dict is nil).
func NewStore(dict *Dict) *Store {
	if dict == nil {
		dict = NewDict()
	}
	// The posting families are built by Freeze (buildPostings), sized from
	// the triple count; an unfrozen store has no readable indexes.
	return &Store{dict: dict}
}

// Dict returns the store's term dictionary.
func (st *Store) Dict() *Dict { return st.dict }

// allTriples returns the store's full triple sequence: the snapshot's slice
// once frozen (which grows with live inserts), the staging slice before.
func (st *Store) allTriples() []tripleRec {
	if s := st.live.Load(); s != nil {
		return s.triples
	}
	return st.triples
}

// Len reports the number of triples in the store. On a live store it is
// monotone non-decreasing under concurrent inserts.
func (st *Store) Len() int { return len(st.allTriples()) }

// ErrFrozen is returned by Add after Freeze; use Insert for live ingest.
var ErrFrozen = errors.New("kg: store is frozen")

// validScore rejects scores that would poison the score-sorted posting order
// and Definition 5 normalisation (and could not round-trip through the
// binary snapshot format).
func validScore(score float64) error {
	if score < 0 || math.IsNaN(score) || math.IsInf(score, 0) {
		return fmt.Errorf("%w %v", ErrInvalidScore, score)
	}
	return nil
}

// Add appends a scored triple to an unfrozen store. Scores must be finite
// and non-negative; zero-scored triples are legal but never contribute to
// top-k under the paper's model. Duplicate (s,p,o) triples with different
// scores are all retained and all appear in match lists; answer-level
// semantics collapse them via DedupMax (Definition 8 keeps the maximum-score
// derivation). After Freeze, Add returns ErrFrozen — live ingest goes
// through Insert instead.
func (st *Store) Add(t Triple) error {
	if st.frozen {
		return ErrFrozen
	}
	if err := validScore(t.Score); err != nil {
		return err
	}
	st.triples = append(st.triples, packTriple(t))
	return nil
}

// AddSPO encodes the three terms and appends the triple.
func (st *Store) AddSPO(s, p, o string, score float64) error {
	return st.Add(Triple{
		S:     st.dict.Encode(s),
		P:     st.dict.Encode(p),
		O:     st.dict.Encode(o),
		Score: score,
	})
}

// Freeze builds the key-ordered, score-sorted posting families: one sort of
// the triples by score, then stable radix passes per family. The snapshot
// gets an exactly sized copy of the staged triples, so no append slack stays
// live. Add must not be called afterwards; Insert may be. Freeze is
// idempotent but not itself safe for concurrent use; freeze from one
// goroutine, then read — and Insert — from as many as you like.
func (st *Store) Freeze() {
	if st.frozen {
		return
	}
	triples := make([]tripleRec, len(st.triples))
	copy(triples, st.triples)
	st.triples = nil
	st.live.Store(&storeState{
		triples: triples,
		post:    buildPostings(triples, 0, nil, nil),
		ops:     uint64(len(triples)),
	})
	st.frozen = true
}

// Frozen reports whether Freeze has been called.
func (st *Store) Frozen() bool { return st.frozen }

// DefaultHeadLimit is the head size at which Insert triggers an automatic
// compaction when SetHeadLimit was never called. It keeps the per-query
// head-merge overhead bounded while amortising the posting rebuild over
// enough inserts to stay cheap.
const DefaultHeadLimit = 1024

// SetHeadLimit sets the head size at which Insert automatically compacts:
// 0 restores DefaultHeadLimit, a negative value disables automatic
// compaction (explicit Compact only). Safe to call concurrently with
// Insert; it does not itself trigger a compaction.
func (st *Store) SetHeadLimit(n int) {
	st.mu.Lock()
	st.headLimit = n
	st.mu.Unlock()
}

// effectiveHeadLimit resolves the configured limit; caller holds mu.
func (st *Store) effectiveHeadLimit() int {
	if st.headLimit == 0 {
		return DefaultHeadLimit
	}
	return st.headLimit
}

// SetL1Limit configures tiered compaction: a positive n makes automatic head
// merges build a small frozen L1 tier, folded into the main arena once the
// tier covers at least n triples — bounding merge amplification under
// sustained churn (every head triple is re-sorted twice instead of once per
// head merge). 0 (the default) restores single-level merges. Explicit
// Compact always merges everything into the main arena regardless.
func (st *Store) SetL1Limit(n int) {
	st.mu.Lock()
	st.l1Limit = n
	st.mu.Unlock()
}

// L1Len reports the number of physical triple slots the L1 tier currently
// covers (0 without tiering).
func (st *Store) L1Len() int {
	if s := st.live.Load(); s != nil && s.l1 != nil {
		return len(s.l1.triples) - int(s.l1.lo)
	}
	return 0
}

// Tombstones reports the number of pending (unresolved) tombstones. Full
// compaction resolves every tombstone whose delete it covers.
func (st *Store) Tombstones() int {
	if s := st.live.Load(); s != nil {
		return len(s.tombs)
	}
	return 0
}

// Ops reports the number of applied mutation operations: the triple count at
// Freeze, plus one per applied Mutation since. The durability layer uses it
// as the store-side mirror of the WAL sequence — unlike Len it keeps
// counting when a delete retracts without appending.
func (st *Store) Ops() uint64 {
	if s := st.live.Load(); s != nil {
		return s.ops
	}
	return uint64(len(st.triples))
}

// LiveLen reports the number of live (non-retracted) triples. Len counts
// physical slots — retracted triples keep theirs for index stability — so
// LiveLen <= Len, with equality until the first Delete.
func (st *Store) LiveLen() int {
	if s := st.live.Load(); s != nil {
		return len(s.triples) - s.dead
	}
	return len(st.triples)
}

// HeadLen reports the number of triples currently in the mutable head (0 on
// an unfrozen or freshly compacted store).
func (st *Store) HeadLen() int {
	if s := st.live.Load(); s != nil {
		return len(s.headSorted)
	}
	return 0
}

// Version reports the store's logical content version: 0 until the first
// live mutation, +1 per applied Mutation. Compaction does not move
// it — the visible triple set is unchanged — so version-keyed caches survive
// merges; any mutation (deletes included) moves it, so no cache can serve a
// retracted fact.
func (st *Store) Version() uint64 { return st.version.Load() }

// Compactions reports how many head merges the store has performed.
func (st *Store) Compactions() uint64 { return st.compactions.Load() }

// ErrNotLive is returned by deletes and updates before Freeze: retractions
// and re-scores are live operations over an indexed store (pre-freeze
// staging is append-only — simply don't Add what you don't want).
var ErrNotLive = errors.New("kg: store must be frozen before Delete/Update")

// Insert appends a scored triple live — Apply of an OpInsert with any
// triggered compaction run inline. Before Freeze it behaves like Add.
func (st *Store) Insert(t Triple) error {
	_, compact, err := st.Apply(Mutation{Op: OpInsert, Triple: t})
	if compact != nil {
		compact()
	}
	return err
}

// Delete retracts every live copy of the (s,p,o) key — Apply of an
// OpDelete — and returns how many were removed.
func (st *Store) Delete(s, p, o ID) (int, error) {
	removed, _, err := st.Apply(Mutation{Op: OpDelete, Triple: Triple{S: s, P: p, O: o}})
	return removed, err
}

// Apply applies one mutation to the store (see LiveGraph.Apply). Inserted
// triples land in the mutable head overlay, immediately visible to every
// subsequent read, and are merged into the frozen posting arenas when the
// head crosses the configured limit or Compact is called. Retracted copies
// leave the head physically; frozen (and L1) copies are masked by a
// tombstone that the next merge covering them annihilates into the arena
// rebuild, so a compacted segment never contains a retracted fact. The
// tombstone's watermark orders before any copy inserted later — an update's
// own fresh copy included. Deleting a key with no live copies is a no-op
// that still counts as one operation. Safe for concurrent use with readers
// and other mutators.
func (st *Store) Apply(m Mutation) (removed int, compact func(), err error) {
	if err := m.Validate(); err != nil {
		return 0, nil, err
	}
	removed, need, err := st.apply(m)
	if err == nil && need {
		return removed, st.compactIfNeeded, nil
	}
	return removed, nil, err
}

// apply publishes a validated mutation as one snapshot — the key's head
// copies dropped, a tombstone over its frozen copies, the new copy spliced
// into the head, one operation and one version move — and reports whether
// the head crossed the automatic-compaction limit. The merge itself is left
// to the caller so ShardedStore can run it outside its directory lock: a
// shard compacting must not stall mutations routed to other shards.
func (st *Store) apply(m Mutation) (removed int, needCompact bool, err error) {
	t := m.Triple
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.frozen {
		if m.Op != OpInsert {
			return 0, false, ErrNotLive
		}
		st.triples = append(st.triples, packTriple(t))
		return 0, false, nil
	}
	s := st.live.Load()
	k := [3]ID{t.S, t.P, t.O}
	ns := &storeState{
		triples: s.triples, post: s.post, l1: s.l1, headSorted: s.headSorted,
		tombs: s.tombs, ops: s.ops + 1, dead: s.dead,
		headDup: s.headDup, crossDup: s.crossDup,
	}
	if m.Op != OpInsert {
		removed = s.liveKeyCount(k)
		if dropped := countKey(s, s.headSorted, k); dropped > 0 {
			ns.headSorted = dropHeadKey(s, k, dropped)
			removed += dropped
		}
		if removed > 0 {
			ns.tombs = withTombstone(s.tombs, k, int32(len(s.triples)))
			ns.dead += removed
		}
	}
	if m.Op != OpDelete {
		if m.Op == OpInsert {
			ns.headDup = s.headDup || s.frozenHas(k) || countKey(s, s.headSorted, k) > 0
		}
		// Appending may share the backing array with older snapshots; that
		// is safe because the new slot lies beyond every published
		// snapshot's length and the publish below is an atomic release.
		idx := int32(len(s.triples))
		ns.triples = append(s.triples, packTriple(t))
		// The new index goes in at its canonical head position: after every
		// head triple with a strictly greater score (equal scores order by
		// index, and the new index is the largest so far).
		head := ns.headSorted
		pos := sort.Search(len(head), func(i int) bool {
			return s.triples[head[i]].score() < t.Score
		})
		ns.headSorted = make([]int32, 0, len(head)+1)
		ns.headSorted = append(ns.headSorted, head[:pos]...)
		ns.headSorted = append(ns.headSorted, idx)
		ns.headSorted = append(ns.headSorted, head[pos:]...)
	}
	st.live.Store(ns)
	st.version.Add(1)
	limit := st.effectiveHeadLimit()
	return removed, m.Op != OpDelete && limit > 0 && len(ns.headSorted) >= limit, nil
}

// frozenHas reports whether a frozen segment holds a copy of key k.
func (s *storeState) frozenHas(k [3]ID) bool {
	return len(s.post.keyRun(k)) > 0 || (s.l1 != nil && len(s.l1.keyRun(k)) > 0)
}

// countKey counts the entries of head, a list of triple indexes, carrying
// key k.
func countKey(s *storeState, head []int32, k [3]ID) int {
	n := 0
	for _, hi := range head {
		if s.triples[hi].key() == k {
			n++
		}
	}
	return n
}

// dropHeadKey rebuilds the head overlay without key k's entries (canonical
// order is preserved — dropping never reorders).
func dropHeadKey(s *storeState, k [3]ID, dropped int) []int32 {
	head := make([]int32, 0, len(s.headSorted)-dropped)
	for _, hi := range s.headSorted {
		if s.triples[hi].key() != k {
			head = append(head, hi)
		}
	}
	return head
}

// withTombstone copies the tombstone map with k's watermark set to w.
// Watermarks only grow per key — a later delete supersedes an earlier one.
func withTombstone(tombs map[[3]ID]int32, k [3]ID, w int32) map[[3]ID]int32 {
	out := make(map[[3]ID]int32, len(tombs)+1)
	for kk, ww := range tombs {
		out[kk] = ww
	}
	out[k] = w
	return out
}

// compactIfNeeded re-checks the head against the limit and merges if it
// still qualifies (a concurrent Compact may have emptied it since the
// triggering insert returned). The compacting flag bounds automatic merges
// to one in flight: under a sustained insert burst every insert past the
// limit would otherwise kick off its own redundant rebuild. With tiering
// enabled the head merges into the L1 tier, and the L1 folds into the main
// arena only once it crosses its own (larger) threshold.
func (st *Store) compactIfNeeded() {
	if !st.compacting.CompareAndSwap(false, true) {
		return
	}
	defer st.compacting.Store(false)
	st.mu.Lock()
	if !st.frozen {
		st.mu.Unlock()
		return
	}
	s := st.live.Load()
	limit := st.effectiveHeadLimit()
	l1Limit := st.l1Limit
	if limit <= 0 || len(s.headSorted) < limit {
		st.mu.Unlock()
		return
	}
	st.mu.Unlock()
	if l1Limit <= 0 {
		st.runMerge(true)
		return
	}
	st.runMerge(false)
	if s := st.live.Load(); s.l1 != nil && len(s.l1.triples)-int(s.l1.lo) >= l1Limit {
		st.runMerge(true)
	}
}

// Compact merges everything into the main frozen segment: the full triple
// sequence — head, L1 tier and all — is re-laid into fresh posting arenas by
// the build Freeze runs, every covered tombstone is annihilated (its victims
// leave the arenas for good), and a fresh all-frozen snapshot is published.
// Neither readers nor writers are blocked for the rebuild — the expensive
// posting build runs outside the mutex against an immutable snapshot, and
// triples mutated meanwhile are folded back in as the new head at publish
// time. The visible triple set is unchanged throughout, so answers before and
// after a compaction are bit-identical. No-op on an unfrozen store or when
// there is nothing to merge (empty head, no L1, no pending tombstones).
func (st *Store) Compact() {
	st.mu.Lock()
	if !st.frozen {
		st.mu.Unlock()
		return
	}
	s := st.live.Load()
	if s.fastRead() {
		st.mu.Unlock()
		return
	}
	st.mu.Unlock()
	st.runMerge(true)
}

// runMerge performs one merge step under mergeMu: full folds everything into
// the main arena; !full (tiered) re-freezes the head into the L1 tier and
// leaves the main arena untouched. The snapshot is loaded after mergeMu is
// acquired, so the build input always extends the published frozen coverage;
// concurrent mutations during the build land beyond it and stay in the head
// of the published state.
func (st *Store) runMerge(full bool) {
	st.mergeMu.Lock()
	defer st.mergeMu.Unlock()
	mergeStart := time.Now()
	defer func() {
		ns := time.Since(mergeStart).Nanoseconds()
		if full {
			st.compactionFullNS.Add(ns)
		} else {
			st.compactionTieredNS.Add(ns)
		}
	}()
	s := st.live.Load()
	if full {
		if s.fastRead() {
			return
		}
	} else if len(s.headSorted) == 0 {
		return
	}
	prevDead := s.post.dead
	if s.l1 != nil {
		prevDead = s.l1.dead
	}
	var post, l1 *postings
	if full {
		post = buildPostings(s.triples, 0, prevDead, s.tombs)
	} else {
		post = s.post
		l1 = buildPostings(s.triples, int32(len(s.post.triples)), prevDead, s.tombs)
	}
	coverage := len(s.triples)

	st.mu.Lock()
	defer st.mu.Unlock()
	// Merges never race each other (mergeMu), and mutators only extend
	// triples/head/tombs — so cur differs from s only by mutations applied
	// during the build.
	cur := st.live.Load()
	ns := &storeState{
		triples: cur.triples, post: post, l1: l1,
		ops: cur.ops, dead: cur.dead,
	}
	if full {
		// Tombstones the build consumed are resolved — their victims are in
		// the dead bitmap. Ones that arrived (or were re-armed at a new
		// watermark) during the build stay pending, masking any arena
		// entries they cover until the next merge.
		for k, w := range cur.tombs {
			if s.tombs[k] != w {
				if ns.tombs == nil {
					ns.tombs = make(map[[3]ID]int32)
				}
				ns.tombs[k] = w
			}
		}
	} else {
		// Tiered merges never resolve tombstones: a key's main-segment
		// copies are still in the untouched main arena, so dropping its
		// tombstone would resurrect them. Resolution waits for a full merge.
		ns.tombs = cur.tombs
		ns.crossDup = crossDupFor(post, l1)
	}
	// cur's head is in canonical order; dropping the entries the new
	// postings absorbed preserves it.
	for _, hi := range cur.headSorted {
		if int(hi) >= coverage {
			ns.headSorted = append(ns.headSorted, hi)
		}
	}
	ns.headDup = headDupFor(ns)
	st.live.Store(ns)
	st.compactions.Add(1)
	if full {
		st.compactionsFull.Add(1)
	} else {
		st.compactionsTiered.Add(1)
	}
}

// headDupFor recomputes the head-duplicate flag exactly for a snapshot: a
// head triple repeating a frozen (s,p,o) key or another head triple's key.
// Quadratic in the head length, which is tiny right after a compaction.
func headDupFor(s *storeState) bool {
	for i, hi := range s.headSorted {
		k := s.triples[hi].key()
		if s.frozenHas(k) || countKey(s, s.headSorted[:i], k) > 0 {
			return true
		}
	}
	return false
}

// crossDupFor reports whether any L1 (s,p,o) key also has main-segment
// entries — a merged match list could then repeat a binding across segments.
// It walks L1's famSPO arena, looking each key up in the main segment.
func crossDupFor(post, l1 *postings) bool {
	for _, ti := range l1.arenas[famSPO] {
		if len(post.keyRun(l1.triples[ti].key())) > 0 {
			return true
		}
	}
	return false
}

// HasDuplicates reports whether any (s,p,o) key may appear more than once
// (with the same or different scores) across the frozen segments and the
// head. Operators use this to skip binding deduplication when a match list
// provably cannot repeat a binding; after deletes it may over-approximate
// (the surviving copy could be unique), which costs a dedup map, never
// correctness.
func (st *Store) HasDuplicates() bool {
	if s := st.live.Load(); s != nil {
		if s.post.hasDuplicates || s.headDup || s.crossDup {
			return true
		}
		return s.l1 != nil && s.l1.hasDuplicates
	}
	return false
}

// Triple returns the triple at index i (as stored; indexes are stable across
// inserts and compactions).
func (st *Store) Triple(i int32) Triple { return st.allTriples()[i].triple() }

// state returns the current read snapshot, panicking before Freeze.
func (st *Store) state() *storeState {
	s := st.live.Load()
	if s == nil {
		panic("kg: read before Freeze")
	}
	return s
}

// MatchList returns the indexes of triples matching p, sorted by raw score
// descending (ties broken by triple index for determinism). When the main
// segment's run is the whole answer — no head, L1 tier or pending tombstone,
// and a shape that needs no filter — it is a zero-allocation, lock-free view
// of that run; otherwise it drains Matches into a fresh slice. The result
// must not be mutated by callers.
func (st *Store) MatchList(p Pattern) []int32 {
	return st.state().matchList(p)
}

func (s *storeState) matchList(p Pattern) []int32 {
	if s.fastRead() {
		if l, filter := s.post.matches(p); !filter {
			return l
		}
	}
	return s.cursor(p).appendTo(nil)
}

// Matches opens a cursor over p's matches on the store's current snapshot,
// in MatchList's order.
func (st *Store) Matches(p Pattern) Cursor {
	return st.state().cursor(p)
}

// Cardinality returns the number of triples matching p, head included,
// without materialising a merged list.
func (st *Store) Cardinality(p Pattern) int {
	return st.state().cursor(p).count()
}

// MaxScore returns the maximum raw score among matches of p, or 0 if there
// are no matches. Per Definition 5 this is the normalisation constant: the
// score of the first match in canonical order.
func (st *Store) MaxScore(p Pattern) float64 {
	return st.state().maxScore(p)
}

func (s *storeState) maxScore(p Pattern) float64 {
	c := s.cursor(p)
	if ti, ok := c.Next(); ok {
		return s.triples[ti].score()
	}
	return 0
}
