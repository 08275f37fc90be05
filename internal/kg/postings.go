package kg

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// This file builds a segment's posting families: six []int32 arenas of
// triple indexes, one entry per surviving triple each, laid out in key order
// the way RDF-3X and Hexastore lay out their permutation indexes — except
// that within a key every run is ordered by raw score descending (triple
// index ascending as tiebreak). This is the paper's cost model made literal:
// the database engine "retrieve[s] the matches for triple patterns in sorted
// order", and at query time the retrieval is a binary search and a slice
// view, with no locking, filtering or allocation.
//
// No map addresses the arenas. Three sorted distinct-key columns — the S, P
// and O values present in the segment — each carry an offset column, and
// every family led by the same position shares those offsets: an S run sits
// at the same place in famS, famSP and famSPO, an O run in famO and famPO. A
// composite key is a second binary search inside that run. The build is one
// comparison sort by (−score, index) followed by stable radix passes over the
// key IDs, so the same triples always yield the same layout.
//
// The families live in a postings value rather than on Store directly because
// a live store rebuilds them at every head compaction: readers hold the old
// immutable postings through their storeState snapshot while the merge builds
// a new one, so a compaction never blocks or tears a concurrent scan.

// Family indexes into postings.arenas, each ordered by the key positions in
// its comment and then canonically. famS, famP and famO double as the key
// positions that index postings.keys and postings.offs.
const (
	famS   = iota // S
	famP          // P
	famO          // O
	famPO         // O, P: led by O, so it shares famO's runs
	famSP         // S, P
	famSPO        // S, P, O
	famCount
)

// postings is one frozen segment's complete index state over a fixed triple
// range. It is immutable once built; Store swaps in a freshly built value at
// Freeze and at every compaction. The main segment covers [0, len(triples));
// an L1 tier covers [lo, len(triples)) on top of a main segment ending at lo.
// Triples retracted by a tombstone before the build are skipped — the arena
// never contains a retracted fact — and recorded in the dead bitmap so no
// later rebuild over the same physical slots can resurrect them.
type postings struct {
	// triples is the frozen prefix the index covers (the range [lo,
	// len(triples)) of it). Triple indexes in every arena are absolute
	// positions in this slice; the slice is never mutated (live inserts
	// append past its length into the snapshot's triples).
	triples []Triple
	// lo is the first triple index this segment covers: 0 for the main
	// segment, the main segment's end for an L1 tier.
	lo int32
	// dead is the cumulative retraction bitmap over [0, len(triples)): bit i
	// set means triples[i] was annihilated by a tombstone at some merge. The
	// bitmap is inherited (copied) from the predecessor segment at every
	// build and only ever gains bits — dead triples stay physically in the
	// triples slice for index stability, so without the bitmap a rebuild
	// could not tell a retracted fact from a live one once its tombstone has
	// been resolved and dropped.
	dead []uint64
	// arenas holds the six families, slices of one flat allocation.
	arenas [famCount][]int32
	// keys[pos] lists the distinct IDs at position pos (famS, famP or famO)
	// in ascending order; key keys[pos][i] occupies [offs[pos][i],
	// offs[pos][i+1]) of every family led by that position.
	keys [3][]ID
	offs [3][]int32
	// hasDuplicates records whether any (s,p,o) key appears more than once in
	// the frozen prefix; Count only needs binding dedup in that case.
	hasDuplicates bool

	// residual caches match lists for patterns no posting serves directly.
	// Residual lists cover only the frozen prefix; the head overlay is merged
	// outside this cache, so entries stay valid for the postings' lifetime.
	residual *listCache
	// residualComputes points at the owning store's counter of residual-list
	// computations (shared across compactions), for tests asserting the
	// cache's single-flight guarantee.
	residualComputes *atomic.Int64
}

// isDead reports whether triple index i was annihilated by a tombstone at or
// before this segment's build.
func (po *postings) isDead(i int32) bool {
	w := int(i >> 6)
	if w >= len(po.dead) {
		return false
	}
	return po.dead[w]&(1<<(uint32(i)&63)) != 0
}

// killedBy reports whether tombs retracts triples[i]: a tombstone's watermark
// kills every copy of its (s,p,o) key inserted before it, and none after.
func killedBy(tombs map[[3]ID]int32, t Triple, i int32) bool {
	if len(tombs) == 0 {
		return false
	}
	w, ok := tombs[[3]ID{t.S, t.P, t.O}]
	return ok && i < w
}

// at returns t's ID at key position pos.
func (t Triple) at(pos int) ID {
	return [3]ID{t.S, t.P, t.O}[pos]
}

// buildPostings lays out every posting family over the triple range [lo,
// len(triples)). Called by Freeze and by every merge, always on a mutator
// goroutine; the result is published to readers through an atomic snapshot
// swap. prevDead is the predecessor segment's retraction bitmap (nil at
// Freeze) and tombs the tombstone set to resolve: every triple in range that
// is already dead, or that a tombstone's watermark retracts, is skipped and
// marked dead — the built arenas hold surviving facts only.
func buildPostings(triples []Triple, lo int32, prevDead []uint64, tombs map[[3]ID]int32, computes *atomic.Int64) *postings {
	nAll := len(triples)
	dead := make([]uint64, (nAll+63)/64)
	copy(dead, prevDead)
	po := &postings{
		triples:          triples,
		lo:               lo,
		dead:             dead,
		residual:         newListCache(),
		residualComputes: computes,
	}

	// ord collects the survivors in canonical order; every family is a
	// stable redistribution of it, so each run inherits that order.
	ord := make([]int32, 0, nAll-int(lo))
	for i := int(lo); i < nAll; i++ {
		if dead[i>>6]&(1<<(uint32(i)&63)) != 0 {
			continue
		}
		if killedBy(tombs, triples[i], int32(i)) {
			dead[i>>6] |= 1 << (uint32(i) & 63)
			continue
		}
		ord = append(ord, int32(i))
	}
	slices.SortFunc(ord, po.canonical)

	n := len(ord)
	backing := make([]int32, famCount*n)
	for f := range po.arenas {
		po.arenas[f] = backing[f*n : (f+1)*n : (f+1)*n]
	}
	// Least significant key first: each pass is stable, so a family ordered
	// by (A, B) is its B-ordered source redistributed by A.
	buf, tmp := make([]uint64, n), make([]uint64, n)
	a := &po.arenas
	for pos := famS; pos <= famO; pos++ {
		po.keys[pos], po.offs[pos] = keyColumn(po.sortBy(a[pos], ord, pos, buf, tmp))
	}
	po.sortBy(a[famSP], a[famP], famS, buf, tmp)
	po.sortBy(a[famPO], a[famP], famO, buf, tmp)
	po.sortBy(ord, a[famO], famP, buf, tmp) // ord is scratch now: (P, O)
	po.sortBy(a[famSPO], ord, famS, buf, tmp)

	// Copies of one (s,p,o) key are adjacent in famSPO.
	spo := a[famSPO]
	for i := 1; i < n && !po.hasDuplicates; i++ {
		x, y := triples[spo[i-1]], triples[spo[i]]
		po.hasDuplicates = x.S == y.S && x.P == y.P && x.O == y.O
	}
	return po
}

// sortBy stably redistributes src into dst by each triple's ID at position
// pos, and returns the (ID, source offset) pairs it sorted, packed one per
// word. The sort is LSD radix over the ID's bytes, skipping the high bytes no
// ID sets, so it is linear in len(src) whatever the IDs. buf and tmp are
// scratch as long as src.
func (po *postings) sortBy(dst, src []int32, pos int, buf, tmp []uint64) []uint64 {
	var all ID
	for i, ti := range src {
		id := po.triples[ti].at(pos)
		all |= id
		buf[i] = uint64(id)<<32 | uint64(i)
	}
	for shift := 32; shift < 64 && all>>(shift-32) != 0; shift += 8 {
		var count [257]int
		for _, k := range buf {
			count[k>>shift&0xff+1]++
		}
		for d := 1; d < len(count); d++ {
			count[d] += count[d-1]
		}
		for _, k := range buf {
			d := k >> shift & 0xff
			tmp[count[d]] = k
			count[d]++
		}
		buf, tmp = tmp, buf
	}
	for i, k := range buf {
		dst[i] = src[uint32(k)]
	}
	return buf
}

// keyColumn reads the pairs a sortBy returned into the distinct-key
// column and its run offsets (one more than keys, starting at 0).
func keyColumn(buf []uint64) ([]ID, []int32) {
	n := 0
	for i := range buf {
		if i == 0 || buf[i]>>32 != buf[i-1]>>32 {
			n++
		}
	}
	keys, offs := make([]ID, 0, n), make([]int32, 0, n+1)
	for i, k := range buf {
		if i == 0 || k>>32 != buf[i-1]>>32 {
			keys = append(keys, ID(k>>32))
			offs = append(offs, int32(i))
		}
	}
	return keys, append(offs, int32(len(buf)))
}

// canonical orders triple indexes by raw score descending, index ascending on
// ties — the canonical match-list order everywhere in the store.
func (po *postings) canonical(a, b int32) int {
	if sa, sb := po.triples[a].Score, po.triples[b].Score; sa != sb {
		if sa > sb {
			return -1
		}
		return 1
	}
	return cmp.Compare(a, b)
}

// run returns id's range [lo, hi) in every family led by position pos,
// empty when no surviving triple carries id there.
func (po *postings) run(pos int, id ID) (int32, int32) {
	keys := po.keys[pos]
	i, j := 0, len(keys)
	for i < j {
		h := int(uint(i+j) >> 1)
		if keys[h] < id {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == len(keys) || keys[i] != id {
		return 0, 0
	}
	return po.offs[pos][i], po.offs[pos][i+1]
}

// lead returns the posting of id at position pos: its whole run in the
// single-position family.
func (po *postings) lead(pos int, id ID) []int32 {
	lo, hi := po.run(pos, id)
	return po.arenas[pos][lo:hi:hi]
}

// tailP and tailPO are the keys a composite family orders by inside a
// leading run: P in famSP and famPO, (P, O) in famSPO.
func tailP(t Triple) uint64  { return uint64(t.P) }
func tailPO(t Triple) uint64 { return uint64(t.P)<<32 | uint64(t.O) }

// sub narrows family f's run of id at position pos to the entries whose
// tail is want: a contiguous, score-sorted range, returned as a view
// capacity-clamped so caller appends can never bleed into the neighbouring
// posting. A side of the run whose edge entry already has the wanted tail
// needs no search: on the benchmark's four read-only workloads that serves
// every composite lookup, and two binary searches through triples[] would
// nearly double MatchList's cost.
func (po *postings) sub(f, pos int, id ID, tail func(Triple) uint64, want uint64) []int32 {
	lo, hi := po.run(pos, id)
	a := po.arenas[f]
	if lo < hi && tail(po.triples[a[lo]]) < want { // so want > 0
		lo = po.above(a, lo+1, hi, tail, want-1)
	}
	if lo < hi && tail(po.triples[a[hi-1]]) > want {
		hi = po.above(a, lo, hi-1, tail, want)
	}
	return a[lo:hi:hi]
}

// above binary-searches a[i:j], ordered by tail, for the first entry whose
// tail exceeds w, returning j when there is none.
func (po *postings) above(a []int32, i, j int32, tail func(Triple) uint64, w uint64) int32 {
	for i < j {
		h := int32(uint32(i+j) >> 1)
		if tail(po.triples[a[h]]) <= w {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// keyRun returns every surviving copy of the (s,p,o) key k, score-sorted.
func (po *postings) keyRun(k [3]ID) []int32 {
	return po.sub(famSPO, famS, k[0], tailPO, uint64(k[1])<<32|uint64(k[2]))
}

// matchList returns the frozen prefix's match list for p: a Freeze-sorted
// arena view for indexed shapes, the single-flight residual cache otherwise.
func (po *postings) matchList(p Pattern) []int32 {
	if l, ok := po.matchedByIndex(p); ok {
		return l
	}
	return po.residual.get(p.Key(), func() []int32 { return po.computeMatches(p) })
}

// computeMatches filters the smallest candidate posting down to the exact
// match list. Candidate postings are score-sorted at build time and filtering
// preserves order, so only the full-scan fallback — which walks triples in
// insertion order — sorts its result.
func (po *postings) computeMatches(p Pattern) []int32 {
	po.residualComputes.Add(1)
	var out []int32
	cand, indexed := po.candidates(p)
	if !indexed {
		for i := int(po.lo); i < len(po.triples); i++ {
			if po.isDead(int32(i)) {
				continue
			}
			if p.Matches(po.triples[i]) {
				out = append(out, int32(i))
			}
		}
		slices.SortFunc(out, po.canonical)
		return out
	}
	for _, i := range cand {
		if p.Matches(po.triples[i]) {
			out = append(out, i)
		}
	}
	return out
}

// matchedByIndex returns the pre-sorted posting that *is* the match list
// of p: for these shapes the bound positions pin down the matches completely,
// so the arena run needs no filtering, sorting, locking or allocation.
// ok is false for residual shapes — S+O bound (requires an intersection),
// repeated-variable patterns (require a consistency filter), and full scans
// (sorted lazily on first use, since most workloads never run one) — which
// go through the sharded residual cache instead.
func (po *postings) matchedByIndex(p Pattern) ([]int32, bool) {
	sb, pb, ob := !p.S.IsVar, !p.P.IsVar, !p.O.IsVar
	switch {
	case sb && pb && ob:
		return po.keyRun([3]ID{p.S.ID, p.P.ID, p.O.ID}), true
	case pb && ob:
		return po.sub(famPO, famO, p.O.ID, tailP, uint64(p.P.ID)), true
	case sb && pb:
		return po.sub(famSP, famS, p.S.ID, tailP, uint64(p.P.ID)), true
	case sb && ob:
		return nil, false
	case sb:
		if p.P.Name == p.O.Name {
			return nil, false
		}
		return po.lead(famS, p.S.ID), true
	case ob:
		if p.S.Name == p.P.Name {
			return nil, false
		}
		return po.lead(famO, p.O.ID), true
	case pb:
		if p.S.Name == p.O.Name {
			return nil, false
		}
		return po.lead(famP, p.P.ID), true
	default:
		return nil, false
	}
}

// candidates returns a sorted superset of the matches for p's bound
// positions: the smallest applicable posting, or (nil, false) to signal a
// full scan. Because every posting is score-sorted at build time, any
// order-preserving filter over a candidate list yields a correctly sorted
// match list.
func (po *postings) candidates(p Pattern) ([]int32, bool) {
	sb, pb, ob := !p.S.IsVar, !p.P.IsVar, !p.O.IsVar
	switch {
	case sb && pb && ob, pb && ob, sb && pb:
		// At most one variable position: matchedByIndex resolves these
		// shapes exactly, so share its lookup instead of repeating it.
		return po.matchedByIndex(p)
	case sb && ob:
		// Intersect the two single-position postings, scanning the smaller.
		s, o := po.lead(famS, p.S.ID), po.lead(famO, p.O.ID)
		if len(o) < len(s) {
			s = o
		}
		return s, true
	case sb:
		return po.lead(famS, p.S.ID), true
	case ob:
		return po.lead(famO, p.O.ID), true
	case pb:
		return po.lead(famP, p.P.ID), true
	default:
		return nil, false
	}
}
