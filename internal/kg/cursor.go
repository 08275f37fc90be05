package kg

// Cursor walks the matches of one pattern on one snapshot in canonical
// order: raw score descending, triple index ascending on ties. A live
// snapshot keeps a pattern's matches in up to three immutable runs — the
// main segment's posting, the L1 tier's and the head overlay — each already
// in canonical order, so the cursor merges them on read (the LSM-tree rule)
// instead of copying them into one list. Frozen entries retracted by a
// pending tombstone are skipped with one bitmap test each. Head entries,
// and the candidate runs of shapes no posting answers exactly (S+O bound,
// repeated variables), are tested against the pattern as they are read.
//
// A Cursor is a value: opening one allocates nothing (once the snapshot's
// tombstone bitmap exists), stepping one allocates nothing, and a copy
// restarts from where the original stood — which is how a scan rewinds.
type Cursor struct {
	triples []tripleRec
	// killed marks the frozen entries a pending tombstone retracts; nil when
	// none is pending.
	killed []uint64
	p      Pattern
	// runs[:n] are the runs still holding a match, each advanced to its
	// next one (a plain run may be left empty until the next Next).
	runs [3]cursorRun
	n    int
	// plain marks the common case Next serves without a merge or a test:
	// one run left, and no entry of it needs one.
	plain bool
}

// cursorRun is one canonical run and whether its entries need p's filter.
type cursorRun struct {
	l      []int32
	filter bool
}

// add appends a run, advanced to its first match, if it holds one.
func (c *Cursor) add(l []int32, filter bool) {
	r := cursorRun{l: l, filter: filter}
	c.settle(&r)
	if len(r.l) > 0 {
		c.runs[c.n] = r
		c.n++
	}
	c.plain = c.n == 1 && !c.runs[0].filter && c.killed == nil
}

// yields reports whether triple ti is one of the cursor's matches.
func (c *Cursor) yields(ti int32, filter bool) bool {
	if w := int(ti >> 6); w < len(c.killed) && c.killed[w]&(1<<(uint32(ti)&63)) != 0 {
		return false
	}
	return !filter || c.p.Matches(c.triples[ti].triple())
}

// settle advances r to its next match.
func (c *Cursor) settle(r *cursorRun) {
	if !r.filter && c.killed == nil {
		return
	}
	for len(r.l) > 0 && !c.yields(r.l[0], r.filter) {
		r.l = r.l[1:]
	}
}

// Next returns the next match's triple index; ok is false once the cursor
// is exhausted.
func (c *Cursor) Next() (ti int32, ok bool) {
	if l := c.runs[0].l; c.plain && len(l) > 0 {
		c.runs[0].l = l[1:]
		return l[0], true
	}
	return c.merge()
}

// merge is Next over several runs, or over one whose entries need a test.
func (c *Cursor) merge() (ti int32, ok bool) {
	if c.plain { // its one run is exhausted
		c.n, c.plain = 0, false
	}
	if c.n == 0 {
		return 0, false
	}
	b := 0
	for i := 1; i < c.n; i++ {
		x, y := c.runs[i].l[0], c.runs[b].l[0]
		if sx, sy := c.triples[x].score(), c.triples[y].score(); sx > sy || (sx == sy && x < y) {
			b = i
		}
	}
	r := &c.runs[b]
	ti, r.l = r.l[0], r.l[1:]
	c.settle(r)
	if len(r.l) == 0 {
		c.n--
		c.runs[b] = c.runs[c.n]
	}
	return ti, true
}

// Empty reports whether the cursor has no match left.
func (c *Cursor) Empty() bool { return c.n == 0 || len(c.runs[0].l) == 0 }

// count returns how many matches the cursor has left, reading a run only
// when its entries need a test.
func (c Cursor) count() int {
	n := 0
	for _, r := range c.runs[:c.n] {
		if !r.filter && c.killed == nil {
			n += len(r.l)
			continue
		}
		for _, ti := range r.l {
			if c.yields(ti, r.filter) {
				n++
			}
		}
	}
	return n
}

// appendTo appends the cursor's remaining matches to dst.
func (c Cursor) appendTo(dst []int32) []int32 {
	for ti, ok := c.Next(); ok; ti, ok = c.Next() {
		dst = append(dst, ti)
	}
	return dst
}

// cursor opens p's cursor on the snapshot: the main segment's run, the L1
// tier's, and the head overlay filtered by p.
func (s *storeState) cursor(p Pattern) Cursor {
	c := Cursor{triples: s.triples, killed: s.killedSet(), p: p}
	c.add(s.post.matches(p))
	if s.l1 != nil {
		c.add(s.l1.matches(p))
	}
	if len(s.headSorted) > 0 {
		c.add(s.headSorted, true)
	}
	return c
}
