package operators

import (
	"math/bits"
	"slices"
	"sync"
	"weak"

	"specqp/internal/kg"
)

// Workspace hands out the slabs one query execution's operators grow: each
// rank-join side's entry slab and chain links, the result queue's slab and
// index heap, every keyTab's slots, the binding arenas' chunks and chunk
// lists, and each probe join's candidate table and cursors. Its free lists
// are keyed by power-of-two size class, so a query reuses what the previous
// query on the same workspace grew instead of regrowing it from empty.
//
// The workspace records every slab it hands out, so Release reclaims them all
// at once and no operator needs a release method; a slab an operator outgrows
// goes back to its free list immediately. Operators reach the workspace
// through their Counter (SetWorkspace), the way they reach the abort hook; a
// nil Counter, or one without a workspace, allocates as if there were none.
// One execution's operators run on its goroutine, so the free lists take no
// lock.
type Workspace struct {
	ents   slabPool[Entry]
	idx    slabPool[int32]
	slots  slabPool[keySlot]
	ids    slabPool[kg.ID]
	chunks slabPool[[]kg.ID]
	cands  slabPool[probeCand]
	curs   slabPool[probeCursor]
}

// The pool accessors are nil-safe: a nil workspace yields a nil pool, whose
// get allocates and whose put drops.
func (w *Workspace) entryPool() *slabPool[Entry] {
	if w == nil {
		return nil
	}
	return &w.ents
}

func (w *Workspace) indexPool() *slabPool[int32] {
	if w == nil {
		return nil
	}
	return &w.idx
}

func (w *Workspace) slotPool() *slabPool[keySlot] {
	if w == nil {
		return nil
	}
	return &w.slots
}

func (w *Workspace) idPool() *slabPool[kg.ID] {
	if w == nil {
		return nil
	}
	return &w.ids
}

func (w *Workspace) chunkPool() *slabPool[[]kg.ID] {
	if w == nil {
		return nil
	}
	return &w.chunks
}

func (w *Workspace) candPool() *slabPool[probeCand] {
	if w == nil {
		return nil
	}
	return &w.cands
}

func (w *Workspace) cursorPool() *slabPool[probeCursor] {
	if w == nil {
		return nil
	}
	return &w.curs
}

// slabClasses bounds the pooled sizes; a larger slab bypasses the pool.
const slabClasses = 32

// slabPool is one element type's free lists. In size class c every slab has
// capacity 1<<c; slabs[:used] are handed out and slabs[used:] are free.
type slabPool[T any] struct {
	classes [slabClasses]struct {
		slabs [][]T
		used  int
	}
}

// get returns a slab of length n. A pooled slab has capacity n rounded up to
// a power of two and keeps whatever its last user wrote; callers that read
// before writing must clear it. A nil pool allocates exactly n.
func (p *slabPool[T]) get(n int) []T {
	c := bits.Len(uint(n - 1))
	if p == nil || c >= slabClasses {
		return make([]T, n)
	}
	cl := &p.classes[c]
	if cl.used == len(cl.slabs) {
		cl.slabs = append(cl.slabs, make([]T, 1<<c))
	}
	s := cl.slabs[cl.used]
	cl.used++
	return s[:n]
}

// put returns an outgrown slab before the workspace is released. Slabs the
// pool did not hand out are dropped.
func (p *slabPool[T]) put(s []T) {
	c := bits.Len(uint(cap(s) - 1))
	if p == nil || cap(s) == 0 || c >= slabClasses || cap(s) != 1<<c {
		return
	}
	cl := &p.classes[c]
	first := &s[:1][0]
	for i := cl.used - 1; i >= 0; i-- {
		if &cl.slabs[i][:1][0] == first {
			cl.used--
			cl.slabs[i], cl.slabs[cl.used] = cl.slabs[cl.used], cl.slabs[i]
			return
		}
	}
}

// release marks every slab free.
func (p *slabPool[T]) release() {
	for c := range p.classes {
		p.classes[c].used = 0
	}
}

// grow2 doubles a full slab's capacity, drawing the new slab from p and
// returning the outgrown one to it. append alone grows large slices by about
// 1.25x, which over a slab's life allocates five times its final size and
// copies four; doubling allocates twice and copies once.
func grow2[T any](p *slabPool[T], s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	t := p.get(max(2*len(s), 16))[:len(s)]
	copy(t, s)
	p.put(s)
	return t
}

// maxIdleWorkspaces bounds the idle stack: reuse needs one workspace per
// concurrently executing query, not more.
const maxIdleWorkspaces = 16

// idle holds released workspaces weakly. A workspace is reused until the next
// garbage collection and freed by it, so an idle engine retains nothing.
// sync.Pool is not used because its victim cache survives one collection,
// which keeps every workspace in the live heap a single runtime.GC measures.
var idle struct {
	sync.Mutex
	stack []weak.Pointer[Workspace]
}

// AcquireWorkspace returns a workspace released since the last garbage
// collection, or a new one.
func AcquireWorkspace() *Workspace {
	idle.Lock()
	defer idle.Unlock()
	for n := len(idle.stack); n > 0; n-- {
		w := idle.stack[n-1].Value()
		idle.stack = idle.stack[:n-1]
		if w != nil {
			return w
		}
	}
	return new(Workspace)
}

// Release reclaims every slab w handed out and makes w available to
// AcquireWorkspace. Nothing w handed out — no entry, binding or operator
// built against it — may be used afterwards, and no goroutine may still be
// drawing from it.
func (w *Workspace) Release() {
	w.reclaim()
	idle.Lock()
	defer idle.Unlock()
	if len(idle.stack) == maxIdleWorkspaces {
		idle.stack = slices.DeleteFunc(idle.stack, func(p weak.Pointer[Workspace]) bool { return p.Value() == nil })
	}
	if len(idle.stack) < maxIdleWorkspaces {
		idle.stack = append(idle.stack, weak.Make(w))
	}
}

// reclaim marks every slab w handed out free again.
func (w *Workspace) reclaim() {
	w.ents.release()
	w.idx.release()
	w.slots.release()
	w.ids.release()
	w.chunks.release()
	w.cands.release()
	w.curs.release()
}
