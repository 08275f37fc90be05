package wal

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// initManifest plants the minimal durable root a log directory needs (the
// engine's opening checkpoint does this in production): a manifest pointing
// at a snapshot covering seq.
func initManifest(t testing.TB, fs FS, seq uint64) {
	t.Helper()
	name := fmt.Sprintf("snap-%016x.bin", seq)
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := writeManifest(fs, Manifest{Snapshot: name, SnapshotSeq: seq}); err != nil {
		t.Fatal(err)
	}
}

func rec(i int) Record {
	return Record{Kind: KindInsert, S: fmt.Sprintf("s%d", i), P: "p", O: fmt.Sprintf("o%d", i), Score: float64(i%7) + 0.5}
}

func TestAppendCloseReopenReplaysAll(t *testing.T) {
	fs := NewMemFS()
	initManifest(t, fs, 0)
	l, r, err := Open(fs, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasState || len(r.Records) != 0 || r.LastSeq != 0 {
		t.Fatalf("fresh recovery = %+v", r)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.LastSeq(); got != n {
		t.Fatalf("LastSeq = %d, want %d", got, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(0)); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}

	_, r2, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Records) != n || r2.LastSeq != n {
		t.Fatalf("recovered %d records, LastSeq %d; want %d, %d", len(r2.Records), r2.LastSeq, n, n)
	}
	for i, got := range r2.Records {
		want := rec(i)
		if got.Seq != uint64(i+1) || got.S != want.S || got.P != want.P || got.O != want.O || got.Score != want.Score {
			t.Fatalf("record %d = %+v, want %+v seq=%d", i, got, want, i+1)
		}
	}
}

// TestTombstoneRecordRoundTrip pins the KindTombstone and KindUpdate wire
// formats: tombstone and update records interleaved with inserts must survive
// append → close → recover field-for-field, and a torn tail must cut at a
// record boundary so a tombstone is never half-applied.
func TestTombstoneRecordRoundTrip(t *testing.T) {
	fs := NewMemFS()
	initManifest(t, fs, 0)
	l, _, err := Open(fs, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Kind: KindInsert, S: "alice", P: "knows", O: "bob", Score: 0.75},
		{Kind: KindTombstone, S: "alice", P: "knows", O: "bob"},
		{Kind: KindInsert, S: "alice", P: "knows", O: "bob", Score: 1.5},
		{Kind: KindTombstone, S: "never", P: "seen", O: "key"},
		{Kind: KindInsert, S: "bob", P: "type", O: "person", Score: 9},
		{Kind: KindUpdate, S: "bob", P: "type", O: "person", Score: 4.25},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l1, rec, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i, got := range rec.Records {
		w := want[i]
		if got.Seq != uint64(i+1) || got.Kind != w.Kind || got.S != w.S || got.P != w.P || got.O != w.O || got.Score != w.Score {
			t.Fatalf("record %d = %+v, want %+v at seq %d", i, got, w, i+1)
		}
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	// A tombstone with a junk score must be rejected at the source, same as
	// an insert — recovery treating score as "ignored" does not license the
	// writer to frame garbage.
	l2, _, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(Record{Kind: KindTombstone, S: "s", P: "p", O: "o", Score: -1}); err == nil {
		t.Fatal("append accepted tombstone with negative score")
	}
}

// TestTornTailTruncatesAndChains crashes with a partially-surviving unsynced
// tail, recovers the valid prefix, appends more, and proves a second
// recovery chains the post-crash segment across the torn one.
func TestTornTailTruncatesAndChains(t *testing.T) {
	for _, keepFrac := range []float64{0, 0.3, 0.7, 1} {
		t.Run(fmt.Sprintf("keep=%v", keepFrac), func(t *testing.T) {
			fs := NewMemFS()
			initManifest(t, fs, 0)
			l, _, err := Open(fs, Options{Policy: SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			const n = 50
			for i := 0; i < n; i++ {
				if err := l.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Crash without Close: nothing was fsynced under SyncNone, so
			// only a byte prefix of the written log survives.
			crashed := fs.Crash(func(_ string, pending int) int { return int(float64(pending) * keepFrac) })

			l2, r, err := Open(crashed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Records) > n {
				t.Fatalf("recovered %d records from %d appends", len(r.Records), n)
			}
			for i, got := range r.Records {
				want := rec(i)
				if got.S != want.S || got.Seq != uint64(i+1) {
					t.Fatalf("recovered record %d = %+v, want %+v", i, got, want)
				}
			}
			base := len(r.Records)
			// Resume appending: the new segment must start at LastSeq+1 and
			// chain across the torn tail on the next recovery.
			for i := 0; i < 10; i++ {
				if err := l2.Append(rec(base + i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			_, r2, err := Open(crashed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(r2.Records) != base+10 {
				t.Fatalf("after resume, recovered %d records, want %d", len(r2.Records), base+10)
			}
			for i, got := range r2.Records {
				if got.Seq != uint64(i+1) || got.S != rec(i).S {
					t.Fatalf("chained record %d = %+v", i, got)
				}
			}
		})
	}
}

// TestSyncAlwaysSurvivesHarshCrash: every acked append must survive a crash
// that loses all unsynced bytes.
func TestSyncAlwaysSurvivesHarshCrash(t *testing.T) {
	fs := NewMemFS()
	initManifest(t, fs, 0)
	l, _, err := Open(fs, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, r, err := Open(fs.Crash(SyncedOnly), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != n {
		t.Fatalf("SyncAlways crash recovered %d of %d acked records", len(r.Records), n)
	}
}

// TestBudgetKillRecoversAckedPrefix arms the byte-budget fault at every
// plausible offset class and checks the two core invariants: recovery yields
// an exact prefix of the append order, and under SyncAlways every append
// that returned nil is inside it.
func TestBudgetKillRecoversAckedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		fs := NewMemFS()
		initManifest(t, fs, 0)
		l, _, err := Open(fs, Options{Policy: SyncAlways, SegmentSize: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		fs.SetBudget(int64(rng.Intn(3000)))
		acked := 0
		for i := 0; i < 60; i++ {
			if err := l.Append(rec(i)); err != nil {
				break
			}
			acked++
		}
		crashed := fs.Crash(func(_ string, pending int) int { return rng.Intn(pending + 1) })
		_, r, err := Open(crashed, Options{})
		if err != nil {
			t.Fatalf("trial %d: recovery failed: %v", trial, err)
		}
		if len(r.Records) < acked {
			t.Fatalf("trial %d: %d acked appends but only %d recovered", trial, acked, len(r.Records))
		}
		for i, got := range r.Records {
			if got.Seq != uint64(i+1) || got.S != rec(i).S {
				t.Fatalf("trial %d: recovered record %d out of order: %+v", trial, i, got)
			}
		}
	}
}

// TestRotationAndTruncate drives rotation with a tiny segment size and
// verifies checkpoint truncation deletes everything a snapshot covers while
// keeping the replayable tail intact.
func TestRotationAndTruncate(t *testing.T) {
	fs := NewMemFS()
	initManifest(t, fs, 0)
	l, _, err := Open(fs, Options{Policy: SyncAlways, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c := l.SegmentCount(); c < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", c)
	}
	// Checkpoint at seq 30: write the new manifest first (as the engine
	// does), then truncate.
	initManifest(t, fs, 30)
	if err := l.TruncateThrough(30); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, r, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Manifest.SnapshotSeq != 30 {
		t.Fatalf("manifest seq = %d", r.Manifest.SnapshotSeq)
	}
	if len(r.Records) != n-30 {
		t.Fatalf("replay tail = %d records, want %d", len(r.Records), n-30)
	}
	for i, got := range r.Records {
		if got.Seq != uint64(31+i) {
			t.Fatalf("tail record %d has seq %d", i, got.Seq)
		}
	}
}

// countingFS wraps an FS to count fsyncs and slow them down, making group
// commit observable: concurrent appenders must share fsyncs.
type countingFS struct {
	FS
	mu    sync.Mutex
	syncs int
}

type countingFile struct {
	File
	fs *countingFS
}

func (c *countingFS) Create(name string) (File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (f *countingFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	time.Sleep(200 * time.Microsecond) // make the fsync window wide enough to batch into
	return f.File.Sync()
}

func TestGroupCommitSharesFsyncs(t *testing.T) {
	cfs := &countingFS{FS: NewMemFS()}
	initManifest(t, cfs.FS, 0)
	l, _, err := Open(cfs, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(rec(w*per + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	total := workers * per
	cfs.mu.Lock()
	syncs := cfs.syncs
	cfs.mu.Unlock()
	if syncs >= total {
		t.Fatalf("group commit degenerate: %d fsyncs for %d appends", syncs, total)
	}
	t.Logf("group commit: %d appends in %d fsyncs", total, syncs)
	_, r, err := Open(cfs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != total {
		t.Fatalf("recovered %d of %d", len(r.Records), total)
	}
}

// TestIntervalPolicyAcksBeforeSync: appends under SyncInterval return
// without fsync; an explicit Sync makes them crash-proof.
func TestIntervalPolicyAcksBeforeSync(t *testing.T) {
	fs := NewMemFS()
	initManifest(t, fs, 0)
	l, _, err := Open(fs, Options{Policy: SyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, r, err := Open(fs.Crash(SyncedOnly), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != 0 {
		t.Fatalf("unsynced interval appends survived a synced-only crash: %d", len(r.Records))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	_, r, err = Open(fs.Crash(SyncedOnly), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != 10 {
		t.Fatalf("after Sync, synced-only crash recovered %d of 10", len(r.Records))
	}
	l.Close()
}

func TestManifestRoundTripAndCorruption(t *testing.T) {
	fs := NewMemFS()
	m := Manifest{Snapshot: "snap-00000000000000ff.bin", SnapshotSeq: 255}
	if err := writeManifest(fs, m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := readManifest(fs)
	if err != nil || !ok || got != m {
		t.Fatalf("round trip = %+v ok=%v err=%v", got, ok, err)
	}
	// Flip a byte: the CRC must catch it and recovery must refuse to guess.
	f, _ := fs.Create(ManifestName)
	fmt.Fprintf(f, "specqp-wal v1\nsnapshot snap-x 9\ncrc deadbeef\n")
	f.Sync()
	f.Close()
	if _, _, err := readManifest(fs); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	if _, _, err := Open(fs, Options{}); err == nil {
		t.Fatal("Open accepted corrupt manifest")
	}
}

func TestSegmentsWithoutManifestRejected(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create(segmentName(1))
	f.Sync()
	f.Close()
	if _, _, err := Open(fs, Options{}); err == nil {
		t.Fatal("Open accepted log segments with no manifest")
	}
}

func TestAppendValidation(t *testing.T) {
	fs := NewMemFS()
	initManifest(t, fs, 0)
	l, _, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bad := []Record{
		{Kind: 0, S: "s", P: "p", O: "o", Score: 1},
		{Kind: 255, S: "s", P: "p", O: "o", Score: 1},
		{Kind: KindInsert, S: "s", P: "p", O: "o", Score: -1},
	}
	for _, r := range bad {
		if err := l.Append(r); err == nil {
			t.Fatalf("append accepted invalid record %+v", r)
		}
	}
	if got := l.LastSeq(); got != 0 {
		t.Fatalf("rejected records consumed sequence numbers: LastSeq=%d", got)
	}
}

// TestExclusiveWriterLock: a second Open on a live directory must fail fast
// (two writers would corrupt each other); Close releases the lock.
func TestExclusiveWriterLock(t *testing.T) {
	fs := NewMemFS()
	initManifest(t, fs, 0)
	l, _, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(fs, Options{}); err == nil {
		t.Fatal("second writer acquired a locked directory")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, err := Open(fs, Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	l2.Close()
	// A crash view is a different "boot": the lock must not survive into it
	// (kernel locks die with the process).
	l3, _, err := Open(fs.Crash(EverythingWritten), Options{})
	if err != nil {
		t.Fatalf("open of crash view: %v", err)
	}
	l3.Close()
}

// TestEmptySegmentCrashResidueDoesNotAliasNextSegment reproduces the
// rotation-crash corner: a crash right after a rotation creates the new
// segment file but loses every byte of it. Recovery must not keep managing
// that empty segment — its first sequence number equals the next append's,
// and the name collision would alias two segment entries onto one file,
// making a later TruncateThrough delete acked records (or wedge on ENOENT).
func TestEmptySegmentCrashResidueDoesNotAliasNextSegment(t *testing.T) {
	fs := NewMemFS()
	initManifest(t, fs, 0)
	l, _, err := Open(fs, Options{Policy: SyncNone, SegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Record 1 creates wal-1 and is fsynced; record 2 rotates (SegmentSize=1)
	// into wal-2, whose bytes stay unsynced.
	if err := l.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	crashed := fs.Crash(SyncedOnly) // wal-2 exists, empty

	l2, r, err := Open(crashed, Options{Policy: SyncAlways, SegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != 1 {
		t.Fatalf("recovered %d records, want 1", len(r.Records))
	}
	// Appends re-create wal-2 (same first seq) and rotate several more times.
	for i := 1; i < 6; i++ {
		if err := l2.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint through seq 3: truncation must neither fail nor delete the
	// live tail.
	initManifest(t, crashed, 3)
	if err := l2.TruncateThrough(3); err != nil {
		t.Fatalf("truncate after empty-segment recovery: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, r2, err := Open(crashed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Records) != 3 || r2.LastSeq != 6 {
		t.Fatalf("after truncation, tail = %d records lastSeq=%d; want 3 records through seq 6", len(r2.Records), r2.LastSeq)
	}
	for i, got := range r2.Records {
		if got.Seq != uint64(4+i) || got.S != rec(3+i).S {
			t.Fatalf("tail record %d = %+v, want seq %d (%s)", i, got, 4+i, rec(3+i).S)
		}
	}
}

// syncFailFS makes every file fsync fail once armed — the ENOSPC/EIO model.
type syncFailFS struct {
	FS
	fail atomic.Bool
}

type syncFailFile struct {
	File
	fs *syncFailFS
}

func (s *syncFailFS) Create(name string) (File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &syncFailFile{File: f, fs: s}, nil
}

func (f *syncFailFile) Sync() error {
	if f.fs.fail.Load() {
		return fmt.Errorf("injected fsync failure")
	}
	return f.File.Sync()
}

// TestFsyncFailureWedgesLog pins the sticky-error contract on the
// background-sync path: under SyncInterval an append is acked after the
// buffered write, so a failing fsync later must wedge the log — continuing
// to ack writes that never reach disk would silently void durability.
func TestFsyncFailureWedgesLog(t *testing.T) {
	fs := &syncFailFS{FS: NewMemFS()}
	initManifest(t, fs.FS, 0)
	l, _, err := Open(fs, Options{Policy: SyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	fs.fail.Store(true)
	// The empty-buffer force-sync path (what the interval ticker runs).
	if err := l.Sync(); err == nil {
		t.Fatal("Sync swallowed the fsync failure")
	}
	if err := l.Append(rec(1)); err == nil {
		t.Fatal("append acked on a log whose fsync failed")
	}
	if l.Err() == nil {
		t.Fatal("fsync failure did not stick")
	}
	l.Close()
}

// writeRawSegment plants a segment file with pre-framed bytes (synthetic
// crash states the organic write path cannot produce, e.g. era confusion).
func writeRawSegment(t *testing.T, fs FS, first uint64, data []byte) {
	t.Helper()
	f, err := fs.Create(segmentName(first))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestUnreachableSegmentsAreDeletedNotResurrected pins the era-confusion
// defense: segments past a chain break are garbage from an older run, and
// Open must delete them — leaving one behind would let a future recovery,
// whose torn prefix happens to end right before the stale segment's first
// sequence number, chain it back in and replay ghost records.
func TestUnreachableSegmentsAreDeletedNotResurrected(t *testing.T) {
	fs := NewMemFS()
	initManifest(t, fs, 0)
	// Era 1 residue: wal-1 holds seq 1; wal-2 is torn to nothing; wal-3
	// holds era-1's seq 3 — unreachable because the chain breaks at 1.
	writeRawSegment(t, fs, 1, appendRecord(nil, Record{Seq: 1, Kind: KindInsert, S: "keep", P: "p", O: "o", Score: 1}))
	writeRawSegment(t, fs, 2, []byte("garbage that is not a record"))
	writeRawSegment(t, fs, 3, appendRecord(nil, Record{Seq: 3, Kind: KindInsert, S: "ghost", P: "p", O: "o", Score: 9}))

	l, r, err := Open(fs, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != 1 || r.Records[0].S != "keep" {
		t.Fatalf("recovered %+v, want only seq 1", r.Records)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == segmentName(3) {
			t.Fatal("unreachable era-1 segment survived Open")
		}
	}
	// Era 2 writes seqs 2 and 3 with new content; a torn era-2 tail must
	// never be continued by era-1's seq-3 record.
	if err := l.Append(Record{Kind: KindInsert, S: "era2-a", P: "p", O: "o", Score: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindInsert, S: "era2-b", P: "p", O: "o", Score: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, r2, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"keep", "era2-a", "era2-b"}
	if len(r2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(r2.Records), len(want))
	}
	for i, g := range r2.Records {
		if g.S != want[i] || g.Seq != uint64(i+1) {
			t.Fatalf("record %d = %+v, want %s at seq %d", i, g, want[i], i+1)
		}
	}
}
