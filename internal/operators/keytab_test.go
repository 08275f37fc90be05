package operators

import (
	"math/bits"
	"math/rand"
	"testing"

	"specqp/internal/kg"
)

// chainTab drives a keyTab in chain form exactly as a RankJoin side does and
// keeps a Go map of the same chains as the oracle.
type chainTab struct {
	tab    keyTab
	next   []int32
	oracle map[kg.BindingKey][]int32
}

func newChainTab() *chainTab { return &chainTab{oracle: map[kg.BindingKey][]int32{}} }

func (c *chainTab) push(k kg.BindingKey) {
	i := int32(len(c.next))
	c.next = append(c.next, -1)
	if prev := c.tab.push(k, i); prev >= 0 {
		c.next[prev] = i
	}
	c.oracle[k] = append(c.oracle[k], i)
}

func (c *chainTab) reset() {
	c.tab.reset()
	c.next = c.next[:0]
	clear(c.oracle)
}

// check walks every oracle key's chain and probes absent keys.
func (c *chainTab) check(t *testing.T, label string, absent []kg.BindingKey) {
	t.Helper()
	if c.tab.n != len(c.oracle) {
		t.Fatalf("%s: table holds %d keys, oracle %d", label, c.tab.n, len(c.oracle))
	}
	for k, want := range c.oracle {
		var got []int32
		for i := c.tab.head(k); i >= 0; i = c.next[i] {
			got = append(got, i)
			if len(got) > len(want) {
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: key %#x chain %v, want %v", label, uint64(k), got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: key %#x chain %v, want %v (insertion order)", label, uint64(k), got, want)
			}
		}
	}
	for _, k := range absent {
		if _, in := c.oracle[k]; !in && c.tab.head(k) != -1 {
			t.Fatalf("%s: absent key %#x has a chain", label, uint64(k))
		}
	}
}

// checkSet feeds keys to a keyTab in set form and to a Go-map set, demanding
// the same answer from add on every key.
func checkSet(t *testing.T, label string, set *keyTab, oracle map[kg.BindingKey]bool, keys []kg.BindingKey) {
	t.Helper()
	for _, k := range keys {
		want := !oracle[k]
		oracle[k] = true
		if got := set.add(k); got != want {
			t.Fatalf("%s: add(%#x) = %v, want %v", label, uint64(k), got, want)
		}
	}
	if set.n != len(oracle) {
		t.Fatalf("%s: set holds %d keys, oracle %d", label, set.n, len(oracle))
	}
}

// sameHome returns n distinct keys whose home slot in a table of the given
// size is slot: a worst-case cluster for linear probing.
func sameHome(size, slot, n int) []kg.BindingKey {
	probe := keyTab{shift: 64 - uint(bits.TrailingZeros(uint(size)))}
	var out []kg.BindingKey
	for k := kg.BindingKey(1); len(out) < n; k++ {
		if probe.home(k) == slot {
			out = append(out, k)
		}
	}
	return out
}

func TestKeyTabMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	packed := func(a, b uint32) kg.BindingKey { return kg.BindingKey(a) | kg.BindingKey(b)<<32 }

	t.Run("random keys", func(t *testing.T) {
		c := newChainTab()
		var set keyTab
		seen := map[kg.BindingKey]bool{}
		var keys []kg.BindingKey
		for i := 0; i < 3000; i++ {
			// A small universe so keys repeat and chains grow long.
			k := packed(uint32(rng.Intn(400)), uint32(rng.Intn(3)))
			keys = append(keys, k)
			c.push(k)
		}
		checkSet(t, "random set", &set, seen, keys)
		c.check(t, "random chains", []kg.BindingKey{packed(1000, 0), packed(0, 9), 1 << 63})
	})

	t.Run("keys colliding modulo the table size", func(t *testing.T) {
		// Keys that differ only above bit 40 share every residue modulo a
		// power-of-two table size; sameHome keys collide on the actual hash,
		// including at the last slot so the probe wraps to slot 0.
		keys := append(sameHome(keyTabMinSlots, 3, 4), sameHome(keyTabMinSlots, keyTabMinSlots-1, 3)...)
		for i := 0; i < 64; i++ {
			keys = append(keys, kg.BindingKey(i)<<40)
		}
		c := newChainTab()
		var set keyTab
		seen := map[kg.BindingKey]bool{}
		for pass := 0; pass < 2; pass++ {
			for _, k := range keys {
				c.push(k)
			}
			checkSet(t, "colliding set", &set, seen, keys)
		}
		c.check(t, "colliding chains", []kg.BindingKey{1 << 39, 65 << 40})

		// The wrap case alone, in a table that never grows past its minimum.
		small := newChainTab()
		for _, k := range sameHome(keyTabMinSlots, keyTabMinSlots-1, keyTabMinSlots/2-1) {
			small.push(k)
			small.push(k)
		}
		if len(small.tab.slots) != keyTabMinSlots {
			t.Fatalf("wrap case grew to %d slots", len(small.tab.slots))
		}
		small.check(t, "wrapping chains", sameHome(keyTabMinSlots, 0, 3))
	})

	t.Run("growth across doublings", func(t *testing.T) {
		c := newChainTab()
		var set keyTab
		seen := map[kg.BindingKey]bool{}
		var keys []kg.BindingKey
		sizes := map[int]bool{}
		for i := 0; i < 20000; i++ {
			k := packed(uint32(i*7919), uint32(i%5))
			keys = append(keys, k)
			c.push(k)
			sizes[len(c.tab.slots)] = true
		}
		checkSet(t, "growing set", &set, seen, keys)
		c.check(t, "grown chains", []kg.BindingKey{packed(1, 0)})
		if len(sizes) < 10 {
			t.Fatalf("table doubled only %d times", len(sizes)-1)
		}
		if 2*c.tab.n > len(c.tab.slots) {
			t.Fatalf("load %d/%d above one half", c.tab.n, len(c.tab.slots))
		}
	})

	t.Run("reset then reuse", func(t *testing.T) {
		c := newChainTab()
		var set keyTab
		for i := 0; i < 500; i++ {
			c.push(packed(uint32(i), 1))
			set.add(packed(uint32(i), 1))
		}
		slots, setSlots := len(c.tab.slots), len(set.slots)
		old := []kg.BindingKey{packed(0, 1), packed(250, 1), packed(499, 1)}
		c.reset()
		set.reset()
		if len(c.tab.slots) != slots || len(set.slots) != setSlots {
			t.Fatal("reset dropped the slots")
		}
		c.check(t, "after reset", old)
		for _, k := range old {
			if !set.add(k) {
				t.Fatalf("set still holds %#x after reset", uint64(k))
			}
		}
		set.reset()
		seen := map[kg.BindingKey]bool{}
		var keys []kg.BindingKey
		for i := 0; i < 300; i++ {
			k := packed(uint32(rng.Intn(200)), 2)
			keys = append(keys, k)
			c.push(k)
		}
		checkSet(t, "reused set", &set, seen, keys)
		c.check(t, "reused chains", old)
	})

	t.Run("interned keys for three variables", func(t *testing.T) {
		keyer := kg.NewKeyer()
		var set keyTab
		c := newChainTab()
		tuples := map[[3]kg.ID]bool{}
		for i := 0; i < 2000; i++ {
			b := kg.Binding{kg.ID(rng.Intn(12)), kg.ID(rng.Intn(12)), kg.ID(rng.Intn(12))}
			k := keyer.Key(b)
			tup := [3]kg.ID{b[0], b[1], b[2]}
			if got, want := set.add(k), !tuples[tup]; got != want {
				t.Fatalf("add(%v) = %v, want %v", b, got, want)
			}
			tuples[tup] = true
			c.push(k)
		}
		if set.n != len(tuples) {
			t.Fatalf("set holds %d keys, %d distinct tuples", set.n, len(tuples))
		}
		c.check(t, "interned chains", nil)
	})
}

// TestRankJoinProbeOrderPinsRelaxedMask pins the order in which a probe
// visits the opposite side's entries. Entry.heapLess breaks score ties on the
// binding only, so when two join results have the same score and the same
// merged binding but different Relaxed masks, the one enqueued first is the
// one emitted — and enqueue order is probe order. Each case builds a side
// whose chain holds several entries with one binding and equal scores, lets
// the other side probe it once, and expects the mask of the chain's first
// (earliest-inserted) entry.
func TestRankJoinProbeOrderPinsRelaxedMask(t *testing.T) {
	one := func(score float64, mask uint32) Entry {
		b := kg.NewBinding(1)
		b[0] = 1
		return Entry{Binding: b, Score: score, Relaxed: mask}
	}
	cases := []struct {
		name        string
		left, right []Entry
		want        uint32
	}{
		{
			// The right side is pulled first (its bound is higher) and chains
			// masks 2, 4, 8; the single left entry then probes that chain.
			name:  "left probes right chain",
			left:  []Entry{one(0.4, 1)},
			right: []Entry{one(0.5, 2), one(0.5, 4), one(0.5, 8)},
			want:  1 | 2,
		},
		{
			name:  "right probes left chain",
			left:  []Entry{one(0.5, 2), one(0.5, 4), one(0.5, 8)},
			right: []Entry{one(0.4, 1)},
			want:  1 | 2,
		},
	}
	for _, tc := range cases {
		rj := NewRankJoin(&sliceStream{entries: tc.left}, &sliceStream{entries: tc.right}, []int{0}, nil)
		es := Drain(rj)
		if len(es) != 1 {
			t.Fatalf("%s: %d results, want 1 (equal bindings dedup to one)", tc.name, len(es))
		}
		if es[0].Relaxed != tc.want {
			t.Fatalf("%s: emitted mask %b, want %b (the first-enqueued result)", tc.name, es[0].Relaxed, tc.want)
		}
	}
}
