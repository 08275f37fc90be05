package kg

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestDictEncodeDecode(t *testing.T) {
	d := NewDict()
	a := d.Encode("alpha")
	b := d.Encode("beta")
	if a == b {
		t.Fatalf("distinct terms got same ID %d", a)
	}
	if got := d.Encode("alpha"); got != a {
		t.Fatalf("re-encode alpha: got %d want %d", got, a)
	}
	if got := d.Decode(a); got != "alpha" {
		t.Fatalf("decode: got %q want alpha", got)
	}
	if got := d.Decode(b); got != "beta" {
		t.Fatalf("decode: got %q want beta", got)
	}
	if d.Len() != 2 {
		t.Fatalf("len: got %d want 2", d.Len())
	}
}

func TestDictLookup(t *testing.T) {
	d := NewDict()
	if _, ok := d.Lookup("missing"); ok {
		t.Fatal("lookup of missing term reported present")
	}
	id := d.Encode("present")
	got, ok := d.Lookup("present")
	if !ok || got != id {
		t.Fatalf("lookup: got (%d,%v) want (%d,true)", got, ok, id)
	}
	if d.Len() != 1 {
		t.Fatalf("lookup must not intern; len=%d", d.Len())
	}
}

func TestDictDecodeUnknownPanics(t *testing.T) {
	d := NewDict()
	defer func() {
		if recover() == nil {
			t.Fatal("decode of unknown ID did not panic")
		}
	}()
	d.Decode(42)
}

func TestDictStrings(t *testing.T) {
	d := NewDict()
	terms := []string{"x", "y", "z"}
	for _, s := range terms {
		d.Encode(s)
	}
	got := d.Strings()
	if len(got) != 3 {
		t.Fatalf("strings len: got %d want 3", len(got))
	}
	for i, s := range terms {
		if got[i] != s {
			t.Fatalf("strings[%d]: got %q want %q", i, got[i], s)
		}
	}
	// Mutating the copy must not affect the dictionary.
	got[0] = "mutated"
	if d.Decode(0) != "x" {
		t.Fatal("Strings returned aliased storage")
	}
}

func TestDictConcurrentEncode(t *testing.T) {
	d := NewDict()
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]ID, perWorker)
			for i := 0; i < perWorker; i++ {
				ids[w][i] = d.Encode(fmt.Sprintf("term-%d", i))
			}
		}(w)
	}
	// Readers race the writers across index growth: every ID below Len
	// decodes to a term that looks up to that same ID.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := d.Len()
				if n == 0 {
					continue
				}
				id := ID(i % n)
				s := d.Decode(id)
				if got, ok := d.Lookup(s); !ok || got != id {
					t.Errorf("Lookup(Decode(%d)=%q) = (%d,%v) beside Encode", id, s, got, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d.Len() != perWorker {
		t.Fatalf("concurrent encode interned %d terms, want %d", d.Len(), perWorker)
	}
	for w := 1; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d got ID %d for term-%d, worker 0 got %d", w, ids[w][i], i, ids[0][i])
			}
		}
	}
}

// TestDictMatchesMapOracle drives the open-addressed index with random and
// adversarial terms — the empty string, long shared prefixes, terms that
// differ only in their last byte, repeats — past several index doublings and
// checks every method against a Go map and a first-seen slice.
func TestDictMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 39))
	prefix := strings.Repeat("http://example.org/very/long/shared/prefix/", 8)
	var terms []string
	terms = append(terms, "", "", "a", "a")
	for b := 0; b < 256; b++ {
		terms = append(terms, prefix+"a"+string([]byte{byte(b)}))
	}
	for len(terms) < 100_000 {
		switch rng.IntN(4) {
		case 0: // a fresh term, most of them unseen
			terms = append(terms, fmt.Sprintf("t%d", rng.IntN(150_000)))
		case 1: // long shared prefix, differing in the last byte only
			terms = append(terms, fmt.Sprintf("%s%d%c", prefix, rng.IntN(500), 'a'+rng.IntN(26)))
		case 2: // a repeat of an earlier term
			terms = append(terms, terms[rng.IntN(len(terms))])
		default: // random bytes, embedded NULs included
			b := make([]byte, rng.IntN(12))
			for i := range b {
				b[i] = byte(rng.IntN(256))
			}
			terms = append(terms, string(b))
		}
	}

	d := NewDict()
	oracle := map[string]ID{}
	var order []string
	for i, s := range terms {
		want, seen := oracle[s]
		if i%1000 == 0 {
			if _, ok := d.Lookup(s); ok != seen {
				t.Fatalf("Lookup(%q) before Encode: ok=%v, oracle %v", s, ok, seen)
			}
		}
		if !seen {
			want = ID(len(order))
			oracle[s] = want
			order = append(order, s)
		}
		if got := d.Encode(s); got != want {
			t.Fatalf("Encode(%q) #%d = %d, want %d", s, i, got, want)
		}
	}
	if d.Len() != len(order) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(order))
	}
	if len(order) < 50_000 {
		t.Fatalf("only %d distinct terms; the test wants several index doublings", len(order))
	}
	strs := d.Strings()
	for id, s := range order {
		if got := d.Decode(ID(id)); got != s {
			t.Fatalf("Decode(%d) = %q, want %q", id, got, s)
		}
		if got, ok := d.Lookup(s); !ok || got != ID(id) {
			t.Fatalf("Lookup(%q) = (%d,%v), want (%d,true)", s, got, ok, id)
		}
		if strs[id] != s {
			t.Fatalf("Strings()[%d] = %q, want %q", id, strs[id], s)
		}
	}
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("absent-%d", i)
		if _, ok := d.Lookup(s); ok {
			t.Fatalf("Lookup(%q) found a term never encoded", s)
		}
	}
	if d.Len() != len(order) {
		t.Fatal("Lookup interned a term")
	}
	last := ID(len(order) - 1)
	if allocs := testing.AllocsPerRun(100, func() { d.Lookup(d.Decode(last)) }); allocs != 0 {
		t.Fatalf("Decode and Lookup allocate %.1f times per call pair, want 0", allocs)
	}
}

// TestDictEncodeCopiesSubstring pins copy-on-intern: a term that is a
// sub-string of a large buffer (a field of a scanned line) must not keep
// that buffer alive through the dictionary.
func TestDictEncodeCopiesSubstring(t *testing.T) {
	line := strings.Repeat("x", 1<<16) + "\tterm\t" + strings.Repeat("y", 1<<16)
	field := line[1<<16+1 : 1<<16+5]
	d := NewDict()
	got := d.Decode(d.Encode(field))
	if got != "term" {
		t.Fatalf("decoded %q", got)
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(line)))
	p := uintptr(unsafe.Pointer(unsafe.StringData(got)))
	if p >= base && p < base+uintptr(len(line)) {
		t.Fatal("the dictionary's term shares the source line's bytes")
	}
}

// TestDictBytesPerTerm bounds the dictionary's live heap per interned term,
// string bytes excluded. Measured here at 50 000 terms, a map[string]ID
// beside the ID-ordered []string held 53 B per term; the slot index holds
// 29 B (a 16-B string header, 10.5 B of slots, the rest append slack). The
// bound leaves 11 B of slack over that.
func TestDictBytesPerTerm(t *testing.T) {
	const n = 50_000
	const termLen = 16 // one 16-byte size class: no rounding to subtract
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDict()
	for i := 0; i < n; i++ {
		d.Encode(fmt.Sprintf("t%0*d", termLen-1, i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	if d.Len() != n {
		t.Fatalf("interned %d terms", d.Len())
	}
	perTerm := (float64(after.HeapAlloc) - float64(before.HeapAlloc) - n*termLen) / n
	t.Logf("dictionary: %.1f live bytes per term beyond its %d string bytes", perTerm, termLen)
	if perTerm > 40 {
		t.Fatalf("dictionary holds %.1f B per term beyond the strings; want ≤ 40", perTerm)
	}
}
