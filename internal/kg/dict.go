// Package kg implements an in-memory, scored RDF-style triple store used as
// the storage substrate for Spec-QP. It provides dictionary encoding of terms,
// triple-pattern matching with per-pattern answer lists sorted by score
// (descending), exact join-cardinality computation, and TSV (de)serialisation.
//
// The store plays the role PostgreSQL played in the paper's evaluation: a
// provider of score-sorted match lists for individual triple patterns. All
// ranking semantics (Definitions 5, 6 and 8 of the paper) live here too.
//
// The dictionary (Dict) holds each term string once, in an ID-ordered slice;
// its string → ID index is an open-addressed table of 4-byte slots over that
// slice, not a Go map, so an interned term costs its string plus about 30
// bytes.
package kg

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync"
)

// ID is a dictionary-encoded term identifier. IDs are dense and start at 0.
type ID uint32

// NoID is a sentinel for "no term".
const NoID = ID(^uint32(0))

// Dict maps term strings (IRIs, literals, tokens) to dense IDs and back. IDs
// are allocated in first-seen order. All methods are safe for concurrent use.
// The zero value is not usable; call NewDict.
type Dict struct {
	mu   sync.RWMutex
	byID []string // the only copy of each term, indexed by ID
	// slots is an open-addressed hash index over byID: a slot holds ID+1
	// (0 is empty), probed linearly from the term's hash. Its length is a
	// power of two kept at least twice the number of terms.
	slots []uint32
	seed  maphash.Seed
}

// minSlots is the index size of an empty dictionary.
const minSlots = 16

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{slots: make([]uint32, minSlots), seed: maphash.MakeSeed()}
}

// find returns the ID of s, or the index of the empty slot where s would go.
// The caller holds d.mu.
func (d *Dict) find(s string) (ID, int, bool) {
	mask := uint64(len(d.slots) - 1)
	for i := maphash.String(d.seed, s) & mask; ; i = (i + 1) & mask {
		v := d.slots[i]
		if v == 0 {
			return NoID, int(i), false
		}
		if d.byID[v-1] == s {
			return ID(v - 1), int(i), true
		}
	}
}

// Encode interns s and returns its ID, allocating a new one if unseen. The
// dictionary keeps its own copy of s, so a sub-string of a larger buffer
// (a field of an input line) does not keep that buffer alive.
func (d *Dict) Encode(s string) ID {
	d.mu.RLock()
	id, _, ok := d.find(s)
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id, slot, ok := d.find(s)
	if ok {
		return id
	}
	id = ID(len(d.byID))
	d.byID = append(d.byID, strings.Clone(s))
	if 2*len(d.byID) > len(d.slots) {
		d.grow()
	} else {
		d.slots[slot] = uint32(id) + 1
	}
	return id
}

// grow doubles the index and re-inserts every term, the newest included.
func (d *Dict) grow() {
	d.slots = make([]uint32, 2*len(d.slots))
	mask := uint64(len(d.slots) - 1)
	for id, s := range d.byID {
		i := maphash.String(d.seed, s) & mask
		for d.slots[i] != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = uint32(id) + 1
	}
}

// Lookup returns the ID for s and whether it is present, without interning.
func (d *Dict) Lookup(s string) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, _, ok := d.find(s)
	return id, ok
}

// Decode returns the string for id. It panics if id was never allocated.
func (d *Dict) Decode(id ID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.byID) {
		panic(fmt.Sprintf("kg: decode of unknown ID %d", id))
	}
	return d.byID[id]
}

// Len reports the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byID)
}

// Strings returns a copy of all interned terms indexed by ID.
func (d *Dict) Strings() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, len(d.byID))
	copy(out, d.byID)
	return out
}

// PatternString renders a pattern with constants decoded through d.
func (d *Dict) PatternString(p Pattern) string {
	f := func(t Term) string {
		if t.IsVar {
			return "?" + t.Name
		}
		return d.Decode(t.ID)
	}
	return fmt.Sprintf("〈%s %s %s〉", f(p.S), f(p.P), f(p.O))
}

// QueryString renders a query with constants decoded through d.
func (d *Dict) QueryString(q Query) string {
	var b strings.Builder
	for i, p := range q.Patterns {
		if i > 0 {
			b.WriteString(" . ")
		}
		b.WriteString(d.PatternString(p))
	}
	return b.String()
}
