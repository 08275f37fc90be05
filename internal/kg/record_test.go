package kg

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"
)

// recordScores are scores whose exact bits a stored triple must keep:
// negative zero, the smallest and the largest subnormal, the largest finite
// float, integers above 2^53 (where float64 spacing exceeds 1) and an
// ordinary fraction.
var recordScores = []float64{
	math.Copysign(0, -1),
	math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff),
	math.MaxFloat64,
	1<<53 + 2,
	1<<63 + 1<<11,
	0.1,
}

func TestTripleRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(tripleRec{}); got != 20 {
		t.Errorf("tripleRec is %d bytes, want 20", got)
	}
	if got := unsafe.Alignof(tripleRec{}); got != 4 {
		t.Errorf("tripleRec aligns to %d bytes, want 4", got)
	}
}

func TestTripleRecordScoreRoundTrip(t *testing.T) {
	st := NewStore(nil)
	for i, sc := range recordScores {
		in := Triple{S: ID(i), P: 7, O: ID(100 + i), Score: sc}
		r := packTriple(in)
		if got := r.score(); math.Float64bits(got) != math.Float64bits(sc) {
			t.Errorf("score %v (%#x) packs to %v (%#x)", sc, math.Float64bits(sc), got, math.Float64bits(got))
		}
		if out := r.triple(); out.S != in.S || out.P != in.P || out.O != in.O ||
			math.Float64bits(out.Score) != math.Float64bits(sc) {
			t.Errorf("triple %+v round-trips to %+v", in, out)
		}
		if err := st.Add(in); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	for i, sc := range recordScores {
		if got := st.Triple(int32(i)).Score; math.Float64bits(got) != math.Float64bits(sc) {
			t.Errorf("stored triple %d reads score %#x, want %#x", i, math.Float64bits(got), math.Float64bits(sc))
		}
	}
}

func TestFreezeKeepsNoSlack(t *testing.T) {
	st := NewStore(nil)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := st.Add(Triple{S: ID(i % 37), P: ID(i % 5), O: ID(i), Score: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	s := st.live.Load()
	if len(s.triples) != n || cap(s.triples) != n {
		t.Fatalf("frozen triple array: len %d cap %d, want both %d", len(s.triples), cap(s.triples), n)
	}
	if st.triples != nil {
		t.Fatalf("Freeze kept the staging array (cap %d)", cap(st.triples))
	}
	// The first live insert reallocates; the store still reads every triple.
	if err := st.Insert(Triple{S: 1, P: 1, O: n, Score: n}); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != n+1 {
		t.Fatalf("Len after insert = %d, want %d", got, n+1)
	}
	if got := st.Triple(n); got.O != n || got.Score != n {
		t.Fatalf("inserted triple reads %+v", got)
	}
	if got := st.Triple(n - 1); got.O != n-1 {
		t.Fatalf("frozen triple reads %+v after the insert", got)
	}
}

// TestStoreBytesPerTriple bounds the live heap one frozen triple costs: its
// record plus its six posting entries and its share of the key columns and
// dead bitmap. A 24-byte triple array with append slack costs above 50 B
// here; 20-byte records at exact size cost about 45.
func TestStoreBytesPerTriple(t *testing.T) {
	const n = 200_000
	rng := rand.New(rand.NewSource(9))
	triples := make([]Triple, n)
	for i := range triples {
		triples[i] = Triple{S: ID(rng.Intn(5000)), P: ID(rng.Intn(20)), O: ID(rng.Intn(5000)), Score: rng.Float64() * 1000}
	}
	dict := NewDict()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	st := NewStore(dict)
	for _, tr := range triples {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	after := heap()
	runtime.KeepAlive(st)
	runtime.KeepAlive(triples)
	perTriple := float64(int64(after)-int64(before)) / n
	t.Logf("%.1f B of live heap per frozen triple", perTriple)
	if perTriple > 48 {
		t.Fatalf("%.1f B of live heap per frozen triple, want at most 48", perTriple)
	}
}

// snapshotFixture is a small live store holding every record score above,
// one frozen triple retracted by a pending tombstone and one head triple.
func snapshotFixture(t testing.TB) *Store {
	t.Helper()
	st := NewStore(nil)
	for i, sc := range recordScores {
		if err := st.AddSPO(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i%3), sc); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	d := st.Dict()
	if n, err := st.Delete(d.Encode("s3"), d.Encode("p"), d.Encode("o0")); err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v; want 1 removal", n, err)
	}
	if err := st.Insert(Triple{S: d.Encode("s9"), P: d.Encode("p"), O: d.Encode("o9"), Score: 1<<53 + 4}); err != nil {
		t.Fatal(err)
	}
	if st.Tombstones() != 1 || st.HeadLen() != 1 {
		t.Fatalf("fixture has %d tombstones and %d head triples, want 1 and 1", st.Tombstones(), st.HeadLen())
	}
	return st
}

// TestSnapshotGolden pins the on-disk snapshot bytes: how the store keeps
// its triples in memory must not change what a checkpoint or a replica
// bootstrap writes.
func TestSnapshotGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, _, err := WriteGraphSnapshot(&buf, snapshotFixture(t)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "snapshot_v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot bytes differ from testdata/snapshot_v2.golden:\n got %x\nwant %x", buf.Bytes(), want)
	}
}
