package operators

import (
	"math/bits"

	"specqp/internal/kg"
)

// keyTab is an open-addressed hash table keyed by kg.BindingKey: a
// power-of-two slot array, Fibonacci-hashed and probed linearly, at most
// half full. It has two forms.
//
//   - Chain form (push, head): a slot holds the first and last slab index of
//     the entries sharing its key; the slab's own next links thread the chain,
//     so a probe visits a key's entries in insertion order.
//   - Set form (add): a slot only records that its key was seen.
//
// Slots store slab index + 1, so a zero slot is empty and reset is one clear
// that keeps the slots: a resettable operator's steady state allocates
// nothing. The zero value is an empty table; slots are allocated on first use,
// from ws when it is set.
type keyTab struct {
	slots []keySlot
	n     int  // occupied slots
	shift uint // 64 - log2(len(slots))
	ws    *Workspace
}

type keySlot struct {
	key        kg.BindingKey
	head, tail int32 // slab index + 1; head 0 marks an empty slot
}

const keyTabMinSlots = 16

// home is k's preferred slot: the top bits of a Fibonacci multiply, which
// spread both packed ID pairs and dense interned identities.
func (t *keyTab) home(k kg.BindingKey) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns k's slot, or the empty slot where k would go.
func (t *keyTab) find(k kg.BindingKey) *keySlot {
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.head == 0 || s.key == k {
			return s
		}
	}
}

// claim returns k's slot, first making room for k to be new.
func (t *keyTab) claim(k kg.BindingKey) *keySlot {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	s := t.find(k)
	if s.head == 0 {
		s.key = k
		t.n++
	}
	return s
}

func (t *keyTab) grow() {
	old := t.slots
	size := max(2*len(old), keyTabMinSlots)
	t.slots = t.ws.slotPool().get(size)
	if t.ws != nil {
		clear(t.slots) // a pooled slab keeps its last table's slots
	}
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.head != 0 {
			*t.find(s.key) = s
		}
	}
	t.ws.slotPool().put(old)
}

// push chains slab index i under k. It returns the chain's previous tail,
// whose next link the caller points at i, or -1 when i starts a new chain.
func (t *keyTab) push(k kg.BindingKey, i int32) int32 {
	s := t.claim(k)
	prev := s.tail - 1
	if s.head == 0 {
		s.head = i + 1
	}
	s.tail = i + 1
	return prev
}

// head returns the first slab index chained under k, or -1.
func (t *keyTab) head(k kg.BindingKey) int32 {
	if t.n == 0 {
		return -1
	}
	return t.find(k).head - 1
}

// add inserts k into the set form and reports whether it was absent.
func (t *keyTab) add(k kg.BindingKey) bool {
	s := t.claim(k)
	if s.head != 0 {
		return false
	}
	s.head = 1
	return true
}

// reset empties the table, keeping its slots.
func (t *keyTab) reset() {
	clear(t.slots)
	t.n = 0
}
