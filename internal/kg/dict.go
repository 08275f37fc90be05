// Package kg implements an in-memory, scored RDF-style triple store used as
// the storage substrate for Spec-QP. It provides dictionary encoding of terms,
// triple-pattern matching with per-pattern answer lists sorted by score
// (descending), exact join-cardinality computation, and TSV (de)serialisation.
//
// The store plays the role PostgreSQL played in the paper's evaluation: a
// provider of score-sorted match lists for individual triple patterns. All
// ranking semantics (Definitions 5, 6 and 8 of the paper) live here too.
package kg

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ID is a dictionary-encoded term identifier. IDs are dense and start at 0.
type ID uint32

// NoID is a sentinel for "no term".
const NoID = ID(^uint32(0))

// Dict maps term strings (IRIs, literals, tokens) to dense IDs and back.
// The zero value is not usable; call NewDict.
type Dict struct {
	mu   sync.RWMutex
	byS  map[string]ID
	byID []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byS: make(map[string]ID)}
}

// Encode interns s and returns its ID, allocating a new one if unseen.
func (d *Dict) Encode(s string) ID {
	d.mu.RLock()
	id, ok := d.byS[s]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.byS[s]; ok {
		return id
	}
	id = ID(len(d.byID))
	d.byS[s] = id
	d.byID = append(d.byID, s)
	return id
}

// Lookup returns the ID for s and whether it is present, without interning.
func (d *Dict) Lookup(s string) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byS[s]
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

// sortIDs sorts a slice of IDs ascending (helper shared by index code).
func sortIDs(ids []ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
