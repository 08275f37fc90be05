package kg

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	st, ids := musicStore(t)
	var buf bytes.Buffer
	if err := st.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != st.Len() {
		t.Fatalf("triples: %d want %d", st2.Len(), st.Len())
	}
	if st2.Dict().Len() != st.Dict().Len() {
		t.Fatalf("terms: %d want %d", st2.Dict().Len(), st.Dict().Len())
	}
	// IDs are preserved bit-for-bit: same pattern works on both stores.
	p := typePattern(ids, "singer")
	if got, want := st2.Cardinality(p), st.Cardinality(p); got != want {
		t.Fatalf("cardinality: %d want %d", got, want)
	}
	for i := 0; i < st.Len(); i++ {
		if st.Triple(int32(i)) != st2.Triple(int32(i)) {
			t.Fatalf("triple %d differs", i)
		}
	}
}

func TestBinaryRoundTripLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st := NewStore(nil)
	for i := 0; i < 5000; i++ {
		s := string(rune('a' + rng.Intn(26)))
		if err := st.AddSPO("e"+s, "p", "o"+s, float64(rng.Intn(100000))); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	var buf bytes.Buffer
	if err := st.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != st.Len() {
		t.Fatalf("triples: %d want %d", st2.Len(), st.Len())
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	st, _ := musicStore(t)
	var buf bytes.Buffer
	if err := st.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[0] = 'X'
			return c
		}},
		{"bad version", func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[8] = 99
			return c
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c.mut(good))); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := ReadBinary(strings.NewReader("not a snapshot at all")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestBinarySectionChecksums pins the v2 per-section CRC32C protection: a
// single flipped byte in the header counts, the term bytes or the triple
// payload must be rejected — with the damaged section named when the flip
// survives the structural sanity checks — while the pristine bytes load.
func TestBinarySectionChecksums(t *testing.T) {
	st, _ := musicStore(t)
	var buf bytes.Buffer
	if err := st.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// Layout: magic 8 | version 4 | nTerms 4 + nTriples 8 | headerCRC 4 |
	// terms... | termsCRC 4 | triples... | triplesCRC 4.
	cases := []struct {
		name    string
		offset  int
		section string // expected in the error when the CRC is what fires
	}{
		{"header count byte", 13, ""},
		{"term length byte", 28, ""},
		{"term character", 33, "term"},
		{"triple score low byte", len(good) - 11, "triple"},
		{"triple term reference", len(good) - 21, ""},
	}
	for _, c := range cases {
		mut := append([]byte(nil), good...)
		mut[c.offset] ^= 0x40
		_, err := ReadBinary(bytes.NewReader(mut))
		if err == nil {
			t.Errorf("%s (offset %d): corrupted snapshot accepted", c.name, c.offset)
			continue
		}
		if c.section != "" && !strings.Contains(err.Error(), c.section+" section corrupt") {
			t.Errorf("%s: error %q does not name the %s section checksum", c.name, err, c.section)
		}
	}
	// Truncation inside each section is rejected too (CRC never read).
	for _, cut := range []int{20, 40, len(good) - 2} {
		if _, err := ReadBinary(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("snapshot truncated at %d accepted", cut)
		}
	}
}

// TestBinaryReadsV1 pins backward compatibility: a version-1 snapshot (the
// same layout minus the three CRC words) still loads.
func TestBinaryReadsV1(t *testing.T) {
	st, ids := musicStore(t)
	var buf bytes.Buffer
	if err := st.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	// Rebuild the byte stream as v1: copy sections, drop the CRC words.
	terms := st.Dict().Strings()
	termLen := 0
	for _, s := range terms {
		termLen += 4 + len(s)
	}
	var v1 bytes.Buffer
	v1.Write(v2[:8])                       // magic
	v1.Write([]byte{1, 0, 0, 0})           // version 1
	v1.Write(v2[12:24])                    // counts (no headerCRC)
	v1.Write(v2[28 : 28+termLen])          // term section (no termsCRC)
	v1.Write(v2[28+termLen+4 : len(v2)-4]) // triple section (no triplesCRC)
	st2, err := ReadBinary(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	if st2.Len() != st.Len() || st2.Dict().Len() != st.Dict().Len() {
		t.Fatalf("v1 load: %d triples/%d terms, want %d/%d",
			st2.Len(), st2.Dict().Len(), st.Len(), st.Dict().Len())
	}
	p := typePattern(ids, "singer")
	if got, want := st2.Cardinality(p), st.Cardinality(p); got != want {
		t.Fatalf("v1 cardinality: %d want %d", got, want)
	}
}

// TestSnapshotSkipsRetractedFacts pins the survivors-only writer: after
// deletes and updates — resolved by compaction or still pending as
// tombstones, frozen or head-resident — WriteGraphSnapshot persists exactly
// the surviving facts in insertion order, and reports the store's operation
// count so checkpoints can place the snapshot in the log.
func TestSnapshotSkipsRetractedFacts(t *testing.T) {
	for _, compacted := range []bool{false, true} {
		for _, shards := range []int{1, 3} {
			dict, triples := randomTripleSeq(t, 2600, 80)
			var g LiveGraph
			if shards > 1 {
				g = NewShardedStore(dict, shards)
			} else {
				g = NewStore(dict)
			}
			model := &mutModel{}
			for _, tr := range triples[:50] {
				var err error
				switch s := g.(type) {
				case *Store:
					err = s.Add(tr)
				case *ShardedStore:
					err = s.Add(tr)
				}
				if err != nil {
					t.Fatal(err)
				}
				model.insert(tr)
			}
			freezeLive(g)
			g.SetHeadLimit(-1)
			for i, tr := range triples[50:] {
				if err := liveInsert(g, tr); err != nil {
					t.Fatal(err)
				}
				model.insert(tr)
				if i%3 == 0 { // delete a frozen-era key
					victim := triples[i%50]
					if _, err := liveDelete(g, victim.S, victim.P, victim.O); err != nil {
						t.Fatal(err)
					}
					model.delete(victim.S, victim.P, victim.O)
				}
				if i%7 == 0 { // latest-wins re-score
					up := triples[(i*3)%len(triples)]
					up.Score = float64(60 + i)
					if err := liveUpdate(g, up); err != nil {
						t.Fatal(err)
					}
					model.update(up)
				}
			}
			if compacted {
				g.Compact()
			}
			var buf bytes.Buffer
			n, ops, err := WriteGraphSnapshot(&buf, g)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("shards=%d compacted=%v", shards, compacted)
			if n != len(model.survivors) {
				t.Fatalf("%s: snapshot wrote %d triples, %d survive", label, n, len(model.survivors))
			}
			if ops != g.Ops() {
				t.Fatalf("%s: snapshot ops %d, store ops %d", label, ops, g.Ops())
			}
			got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != len(model.survivors) {
				t.Fatalf("%s: reloaded %d triples, want %d", label, got.Len(), len(model.survivors))
			}
			for i, want := range model.survivors {
				if tr := got.Triple(int32(i)); tr != want {
					t.Fatalf("%s: reloaded triple %d = %v, want %v", label, i, tr, want)
				}
			}
		}
	}
}

func TestBinaryPreservesSemantics(t *testing.T) {
	st, ids := musicStore(t)
	var buf bytes.Buffer
	if err := st.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(typePattern(ids, "singer"), typePattern(ids, "lyricist"))
	a1 := Evaluate(st, q, nil)
	a2 := Evaluate(st2, q, nil)
	if len(a1) != len(a2) {
		t.Fatalf("answers: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].Score != a2[i].Score {
			t.Fatalf("rank %d: %v vs %v", i, a1[i].Score, a2[i].Score)
		}
	}
}

// TestBinaryRoundTripLiveHeads pins the snapshot format over live stores:
// a store with a non-empty mutable head — flat or sharded, at several shard
// counts — must serialise its full triple sequence in global insertion order
// and reload (into either layout) with identical triples and identical
// answers. Before the durability work the live path was only ever persisted
// frozen; checkpoints snapshot mid-ingest, so heads must round-trip too.
func TestBinaryRoundTripLiveHeads(t *testing.T) {
	st, triples := pinFixture(t, 314, 140, 80)
	if st.HeadLen() == 0 {
		t.Fatal("fixture head is empty; the test would not cover the live path")
	}
	q := NewQuery(
		NewPattern(Var("x"), Const(ID(5)), Var("y")),
		NewPattern(Var("x"), Const(ID(6)), Var("z")),
	)
	wantAnswers := Evaluate(st, q, nil)

	writers := map[string]Graph{"flat": st}
	for _, shards := range []int{1, 2, 7} {
		ss := NewShardedStore(st.Dict(), shards)
		ss.SetHeadLimit(-1)
		for _, tr := range triples[:80] {
			if err := ss.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
		ss.Freeze()
		for _, tr := range triples[80:] {
			if err := liveInsert(ss, tr); err != nil {
				t.Fatal(err)
			}
		}
		if ss.HeadLen() == 0 {
			t.Fatalf("sharded fixture (%d shards) head is empty", shards)
		}
		writers[fmt.Sprintf("sharded-%d", shards)] = ss
	}

	for wname, g := range writers {
		var buf bytes.Buffer
		n, err := WriteGraphBinary(&buf, g)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(triples) {
			t.Fatalf("%s: captured %d triples, want %d", wname, n, len(triples))
		}
		raw := buf.Bytes()
		readers := map[string]func() (Graph, error){
			"flat":      func() (Graph, error) { return ReadBinary(bytes.NewReader(raw)) },
			"sharded-2": func() (Graph, error) { return ReadBinarySharded(bytes.NewReader(raw), 2) },
			"sharded-7": func() (Graph, error) { return ReadBinarySharded(bytes.NewReader(raw), 7) },
		}
		for rname, read := range readers {
			got, err := read()
			if err != nil {
				t.Fatalf("%s→%s: %v", wname, rname, err)
			}
			if got.Len() != len(triples) {
				t.Fatalf("%s→%s: %d triples, want %d", wname, rname, got.Len(), len(triples))
			}
			for i := range triples {
				if got.Triple(int32(i)) != triples[i] {
					t.Fatalf("%s→%s: triple %d = %v, want %v", wname, rname, i, got.Triple(int32(i)), triples[i])
				}
			}
			gotAnswers := Evaluate(got, q, nil)
			if len(gotAnswers) != len(wantAnswers) {
				t.Fatalf("%s→%s: %d answers, want %d", wname, rname, len(gotAnswers), len(wantAnswers))
			}
			for i := range gotAnswers {
				if gotAnswers[i].Score != wantAnswers[i].Score ||
					gotAnswers[i].Binding.Compare(wantAnswers[i].Binding) != 0 {
					t.Fatalf("%s→%s: answer %d = %v, want %v", wname, rname, i, gotAnswers[i], wantAnswers[i])
				}
			}
		}
	}
}
