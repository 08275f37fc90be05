package wal

import (
	"errors"
	"io"
	"runtime"
	"testing"
)

// feedFixture opens a log over a fresh MemFS with a planted manifest at
// snapSeq and appends n records, using a small segment size so rotation is
// exercised.
func feedFixture(t *testing.T, snapSeq uint64, n int) (*MemFS, *Log, *Feed) {
	t.Helper()
	fs := NewMemFS()
	initManifest(t, fs, snapSeq)
	l, _, err := Open(fs, Options{Policy: SyncAlways, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	return fs, l, NewFeed(fs, l)
}

func TestFeedReadAfterContiguous(t *testing.T) {
	const n = 50
	_, l, feed := feedFixture(t, 0, n)
	if l.SegmentCount() < 2 {
		t.Fatalf("fixture did not rotate: %d segments", l.SegmentCount())
	}
	for after := uint64(0); after <= n; after++ {
		recs, err := feed.ReadAfter(after, 1<<20)
		if err != nil {
			t.Fatalf("ReadAfter(%d): %v", after, err)
		}
		if got, want := len(recs), int(n-after); got != want {
			t.Fatalf("ReadAfter(%d) returned %d records, want %d", after, got, want)
		}
		for i, r := range recs {
			if r.Seq != after+uint64(i)+1 {
				t.Fatalf("ReadAfter(%d)[%d].Seq = %d, want %d", after, i, r.Seq, after+uint64(i)+1)
			}
			want := rec(int(r.Seq) - 1)
			want.Seq = r.Seq
			if r != want {
				t.Fatalf("ReadAfter(%d)[%d] = %+v, want %+v", after, i, r, want)
			}
		}
	}
}

func TestFeedReadAfterRespectsMaxBytes(t *testing.T) {
	const n = 40
	_, _, feed := feedFixture(t, 0, n)
	var applied uint64
	rounds := 0
	for applied < n {
		recs, err := feed.ReadAfter(applied, 64)
		if err != nil {
			t.Fatalf("ReadAfter(%d): %v", applied, err)
		}
		if len(recs) == 0 {
			t.Fatalf("ReadAfter(%d) returned no records before catching up", applied)
		}
		for _, r := range recs {
			if r.Seq != applied+1 {
				t.Fatalf("gap: seq %d after applied %d", r.Seq, applied)
			}
			applied = r.Seq
		}
		rounds++
	}
	if rounds < 2 {
		t.Fatalf("maxBytes=64 finished in %d round; expected batching", rounds)
	}
}

func TestFeedTruncatedPositionFallsBackToSnapshot(t *testing.T) {
	const n = 60
	fs, l, feed := feedFixture(t, 0, n)
	// Checkpoint at 40: new snapshot + manifest, then truncate the log.
	const snapSeq = 40
	initManifest(t, fs, snapSeq)
	if err := l.TruncateThrough(snapSeq); err != nil {
		t.Fatal(err)
	}
	// A position inside the truncated range must redirect to the snapshot…
	if _, err := feed.ReadAfter(10, 1<<20); !errors.Is(err, ErrPositionTruncated) {
		t.Fatalf("ReadAfter(10) after truncation = %v, want ErrPositionTruncated", err)
	}
	// …whose seq covers the missing records.
	rc, seq, err := feed.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if seq != snapSeq {
		t.Fatalf("OpenSnapshot seq = %d, want %d", seq, snapSeq)
	}
	// Positions at or past the retained tail still read fine. TruncateThrough
	// keeps the active segment, so some records <= snapSeq may survive; the
	// contract only requires positions >= snapSeq to work.
	recs, err := feed.ReadAfter(snapSeq, 1<<20)
	if err != nil {
		t.Fatalf("ReadAfter(%d): %v", snapSeq, err)
	}
	if len(recs) != n-snapSeq || recs[0].Seq != snapSeq+1 {
		t.Fatalf("ReadAfter(%d): %d records starting %d", snapSeq, len(recs), recs[0].Seq)
	}
}

func TestFeedCaughtUpReturnsEmpty(t *testing.T) {
	const n = 7
	_, _, feed := feedFixture(t, 0, n)
	recs, err := feed.ReadAfter(n, 1<<20)
	if err != nil || len(recs) != 0 {
		t.Fatalf("caught-up ReadAfter = %d records, %v; want 0, nil", len(recs), err)
	}
	if got := feed.LastSeq(); got != n {
		t.Fatalf("LastSeq = %d, want %d", got, n)
	}
}

func TestFeedEmptyLogBehindSnapshotIsTruncated(t *testing.T) {
	// A follower at seq 3 pulling from a primary whose log starts fresh after
	// a checkpoint at 10 must be sent the snapshot, not told "caught up".
	fs := NewMemFS()
	initManifest(t, fs, 10)
	l, _, err := Open(fs, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	feed := NewFeed(fs, l)
	if _, err := feed.ReadAfter(3, 1<<20); !errors.Is(err, ErrPositionTruncated) {
		t.Fatalf("ReadAfter(3) = %v, want ErrPositionTruncated", err)
	}
	if recs, err := feed.ReadAfter(10, 1<<20); err != nil || len(recs) != 0 {
		t.Fatalf("ReadAfter(10) = %d records, %v; want caught up", len(recs), err)
	}
}

func TestFeedTornTailShortensBatch(t *testing.T) {
	// Written-but-torn bytes at the segment tail must shorten the batch, not
	// corrupt it: the feed serves the valid prefix only.
	fs, l, feed := feedFixture(t, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append garbage to the last segment image to simulate a torn append
	// racing the read.
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, name := range names {
		if _, ok := parseSegmentName(name); ok && name > last {
			last = name
		}
	}
	if last == "" {
		t.Fatal("no segment found")
	}
	rc, err := fs.Open(last)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(last) // truncates; rewrite valid bytes + torn tail
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(body, 0xde, 0xad, 0xbe)); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	f.Close()
	// Reopen a log view over the same fs for the feed's segment list.
	l2, _, err := Open(fs, Options{Policy: SyncAlways, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	feed = NewFeed(fs, l2)
	recs, err := feed.ReadAfter(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[len(recs)-1].Seq != 5 {
		t.Fatalf("torn tail: got %d records, last seq %d", len(recs), recs[len(recs)-1].Seq)
	}
}

func TestFrameRecordRoundTrips(t *testing.T) {
	want := Record{Seq: 42, Kind: KindTombstone, S: "s", P: "p", O: "o"}
	framed := FrameRecord(nil, want)
	var got []Record
	n, err := ReadRecords(bytesReader(framed), 42, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil || n != 1 || len(got) != 1 || got[0] != want {
		t.Fatalf("round trip: n=%d err=%v got=%+v", n, err, got)
	}
}

// bytesReader avoids importing bytes just for one reader.
func bytesReader(b []byte) io.Reader { return &sliceReader{b: b} }

type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// openCountingFS counts the files a Feed opens.
type openCountingFS struct {
	FS
	opens int
}

func (c *openCountingFS) Open(name string) (io.ReadCloser, error) {
	c.opens++
	return c.FS.Open(name)
}

// allocBytesPerRun reports the mean heap bytes one call of f allocates.
func allocBytesPerRun(runs int, f func()) float64 {
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// A follower polling an idle primary re-reads nothing: a caught-up
// ReadAfter opens no file and allocates (next to) nothing, however long the
// active segment is.
func TestFeedCaughtUpReadAfterAllocs(t *testing.T) {
	const n = 700
	fs := NewMemFS()
	initManifest(t, fs, 0)
	l, _, err := Open(fs, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	cfs := &openCountingFS{FS: fs}
	feed := NewFeed(cfs, l)
	per := allocBytesPerRun(100, func() {
		if recs, err := feed.ReadAfter(n, 1<<20); err != nil || len(recs) != 0 {
			t.Fatalf("caught-up ReadAfter = %d records, %v", len(recs), err)
		}
	})
	if per > 1024 {
		t.Errorf("caught-up ReadAfter allocates %.0f B, want at most 1 KiB", per)
	}
	if cfs.opens != 0 {
		t.Errorf("caught-up ReadAfter opened %d files, want none", cfs.opens)
	}
	// One record behind still reads the segment and finds it.
	recs, err := feed.ReadAfter(n-1, 1<<20)
	if err != nil || len(recs) != 1 || recs[0].Seq != n {
		t.Fatalf("ReadAfter(%d) = %d records, %v; want seq %d", n-1, len(recs), err, n)
	}
	if cfs.opens == 0 {
		t.Fatal("ReadAfter one record behind opened no segment")
	}
}

// A lagging pull costs what it ships: one record behind on a 700-record
// segment, ReadAfter verifies the records before the position without
// decoding them, so it allocates about the one record it returns — not every
// earlier record's strings, and not a copy of the segment.
func TestFeedLaggingReadAfterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, tc := range []struct {
		name string
		fs   func(t *testing.T) FS
	}{
		{"DirFS", func(t *testing.T) FS {
			fs, err := DirFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
		{"MemFS", func(*testing.T) FS { return NewMemFS() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 700
			fs := tc.fs(t)
			initManifest(t, fs, 0)
			l, _, err := Open(fs, Options{Policy: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			for i := 0; i < n; i++ {
				if err := l.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			feed := NewFeed(fs, l)
			var shipped int
			per := allocBytesPerRun(100, func() {
				recs, err := feed.ReadAfter(n-1, 1<<20)
				if err != nil || len(recs) != 1 || recs[0].Seq != n {
					t.Fatalf("ReadAfter(%d) = %d records, %v; want seq %d", n-1, len(recs), err, n)
				}
				shipped = recordSize(recs[0])
			})
			if limit := float64(2*shipped + 1024); per > limit {
				t.Errorf("ReadAfter one record behind allocates %.0f B, want at most %.0f (2x the %d-byte record + 1 KiB)", per, limit, shipped)
			}
		})
	}
}

// Opening a MemFS file copies nothing: open and read a 64 KiB file, half
// synced and half pending, and the read allocates only the reader.
func TestMemFSOpenAllocs(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	half := make([]byte, 32<<10)
	for i := range half {
		half[i] = byte(i)
	}
	if _, err := f.Write(half); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(half); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4<<10)
	per := allocBytesPerRun(100, func() {
		rc, err := fs.Open("seg")
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for {
			m, err := rc.Read(buf)
			total += m
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		rc.Close()
		if total != 2*len(half) {
			t.Fatalf("read %d bytes, want %d", total, 2*len(half))
		}
	})
	if per > 1024 {
		t.Errorf("opening and reading a 64 KiB MemFS file allocates %.0f B, want at most 1 KiB", per)
	}
}

// A scan borrows its read buffer: reading a segment allocates about what the
// records it delivers need, not a fresh buffer per call.
func TestReadRecordsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	var framed []byte
	const n = 50
	for i := 0; i < n; i++ {
		r := rec(i)
		r.Seq = uint64(i + 1)
		framed = FrameRecord(framed, r)
	}
	per := allocBytesPerRun(100, func() {
		if got, _ := ReadRecords(bytesReader(framed), 1, func(Record) error { return nil }); got != n {
			t.Fatalf("ReadRecords delivered %d records, want %d", got, n)
		}
	})
	if per > 64*n {
		t.Errorf("ReadRecords of %d records allocates %.0f B, want at most %d", n, per, 64*n)
	}
}
