package wal

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before acknowledging an append — no acked insert is
	// ever lost. Concurrent appenders share fsyncs through group commit: all
	// records buffered while one fsync is in flight are written and synced
	// as a single batch by the next commit leader.
	SyncAlways SyncPolicy = iota
	// SyncInterval acknowledges after the write and fsyncs in the
	// background at most every Interval: a crash loses at most the last
	// interval's acks, never a prefix-hole.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS decides. Cheapest, weakest.
	SyncNone
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses "always", "interval" or "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
	}
}

// DefaultInterval is the SyncInterval period when Options.Interval is zero.
const DefaultInterval = 10 * time.Millisecond

// DefaultSegmentSize is the rotation threshold when Options.SegmentSize is
// zero.
const DefaultSegmentSize = int64(64 << 20)

// Options configures a Log.
type Options struct {
	// Policy selects the fsync discipline (default SyncAlways).
	Policy SyncPolicy
	// Interval is the background fsync period under SyncInterval.
	Interval time.Duration
	// SegmentSize is the size at which the active segment is rotated.
	SegmentSize int64
	// OnCommit, when set, observes each successfully written group-commit
	// batch: records is the number of records the batch carried, syncDur the
	// fsync wall time (zero when the policy skipped the fsync). Called on the
	// commit leader's goroutine outside the log mutex — keep it cheap and
	// non-blocking (counter/histogram updates).
	OnCommit func(records int, syncDur time.Duration)
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	return o
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrWedged marks the sticky state a log enters after any I/O failure: every
// later append, sync or checkpoint fails, exactly like a crashed process,
// while reads of already-applied state stay valid. Errors returned by a
// wedged log match errors.Is(err, ErrWedged) and unwrap to the original I/O
// error — callers degrade to read-only serving on it rather than string-
// matching.
var ErrWedged = errors.New("wal: log wedged by an I/O error")

// wedgedError is the sticky error wrapper: it carries the original fault and
// identifies as ErrWedged under errors.Is.
type wedgedError struct{ cause error }

func (e *wedgedError) Error() string { return "wal: log wedged: " + e.cause.Error() }

// Unwrap exposes the original I/O error for errors.Is/As chains.
func (e *wedgedError) Unwrap() error { return e.cause }

// Is makes every wedged error match the ErrWedged sentinel.
func (e *wedgedError) Is(target error) bool { return target == ErrWedged }

// segment is one managed log file. first is the sequence number of its first
// record (also encoded in its name); size counts the bytes of valid records
// known to be in it.
type segment struct {
	name  string
	first uint64
	size  int64
}

// segmentName formats the canonical segment file name for a first sequence
// number.
func segmentName(first uint64) string { return fmt.Sprintf("wal-%016x.log", first) }

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (uint64, bool) {
	var first uint64
	if len(name) != len("wal-0000000000000000.log") {
		return 0, false
	}
	if _, err := fmt.Sscanf(name, "wal-%016x.log", &first); err != nil {
		return 0, false
	}
	return first, true
}

// batch is one group-commit round: every record buffered while the previous
// round was writing shares this round's write (and, under SyncAlways, its
// fsync). err is set before done is closed.
type batch struct {
	done chan struct{}
	err  error
}

// Log is the append-only segmented write-ahead log. Appends are safe for
// concurrent use; the commit protocol elects one appender per round as the
// leader, which writes and (policy permitting) fsyncs every record buffered
// so far in one batch — group commit. All I/O errors are sticky: a log that
// failed to write is wedged, exactly like a crashed process, and every later
// operation returns the original error.
type Log struct {
	fs   FS
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // broadcast when writing flips to false
	err  error      // sticky fatal error; the log is wedged
	// closed rejects new work; unlike err it still lets Close's own final
	// flush run.
	closed bool

	buf      []byte // framed records not yet handed to a commit leader
	bufFirst uint64 // seq of buf's first record
	bufCount int    // records in buf (group-commit batch-size observability)
	cur      *batch // round the buffered records belong to
	writing  bool   // a commit leader (or Sync) owns the files
	nextSeq  uint64
	// written is the highest sequence number whose record a segment holds
	// (or the recovered position, at Open): stored after each successful
	// write, so a reader past it knows no segment has more to give.
	written atomic.Uint64

	active     File
	activeName string
	activeSize int64
	segments   []segment
	totalSize  int64
	// unlock releases the directory's exclusive-writer lock at Close.
	unlock func() error

	// unsynced tracks bytes written to the active file since its last fsync.
	// Only the current writer (the goroutine holding writing=true) touches
	// the files, so plain fields suffice.
	unsynced bool

	stopTicker chan struct{}
	tickerDone chan struct{}
}

// Recovery describes what Open found in the directory.
type Recovery struct {
	// HasState reports whether a manifest exists — i.e. the directory holds
	// a durable store rather than being fresh.
	HasState bool
	// Manifest is the parsed manifest (zero value when !HasState).
	Manifest Manifest
	// Records are the valid log records with Seq > Manifest.SnapshotSeq, in
	// sequence order — the tail recovery replays on top of the snapshot.
	Records []Record
	// LastSeq is the highest sequence number accounted for: the last valid
	// record, or the snapshot position when it is newer than every surviving
	// record (records may be torn away that a captured snapshot already
	// covers). The next append is assigned LastSeq+1.
	LastSeq uint64
}

// Open scans the directory, reconstructs the replayable tail, and returns a
// log ready for appends. The torn tail discipline: within each segment,
// reading stops at the first corrupt or partial record; a later segment is
// chained only when it continues the sequence exactly (segments created
// after a torn-tail recovery start at the next sequence number, never
// appending after garbage). A directory with log segments but no manifest is
// corrupt — Open refuses to guess rather than silently dropping records.
func Open(fsys FS, opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	// The exclusive-writer lock comes first: a second live process appending,
	// checkpointing or truncating the same directory would corrupt both
	// writers' acked state. The lock is kernel-held on the os filesystem, so
	// it cannot go stale across a crash.
	unlock, err := fsys.Lock()
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Log, *Recovery, error) {
		unlock()
		return nil, nil, err
	}
	m, hasManifest, err := readManifest(fsys)
	if err != nil {
		return fail(err)
	}
	names, err := fsys.List()
	if err != nil {
		return fail(err)
	}
	var segs []segment
	for _, n := range names {
		if first, ok := parseSegmentName(n); ok {
			segs = append(segs, segment{name: n, first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	if !hasManifest && len(segs) > 0 {
		return fail(fmt.Errorf("wal: %d log segment(s) but no manifest — refusing to guess at state", len(segs)))
	}

	rec := &Recovery{HasState: hasManifest, Manifest: m, LastSeq: m.SnapshotSeq}
	var kept []segment
	prev := uint64(0) // seq of the last valid record seen; 0 = none
	for i, seg := range segs {
		// A segment chains when it continues the record sequence exactly, or
		// when it starts right after the snapshot position (the restart point
		// a torn-tail recovery uses: everything skipped is covered by the
		// snapshot). Anything else is unreachable — scanning stops, exactly
		// like a torn record.
		switch {
		case prev == 0 && seg.first <= m.SnapshotSeq+1:
		case prev != 0 && seg.first == prev+1:
		case seg.first == m.SnapshotSeq+1 && seg.first > prev:
		default:
			// Everything from here on is garbage from an older era, and it
			// must be deleted rather than merely ignored: a stale segment
			// whose first sequence number happens to continue some future
			// recovery's torn prefix would be chained back in and would
			// resurrect records that were never part of the acked history.
			// Failing the removal fails the Open — proceeding would leave
			// the trap armed.
			for _, g := range segs[i:] {
				if err := fsys.Remove(g.name); err != nil {
					return fail(err)
				}
			}
			return finishOpen(fsys, opts, rec, kept, prev, unlock)
		}
		last, size, serr := scanSegment(fsys, seg.name, seg.first, 0, func(r Record) bool {
			if r.Seq > m.SnapshotSeq {
				rec.Records = append(rec.Records, r)
			}
			return true
		})
		if serr != nil {
			return fail(serr)
		}
		if last == 0 {
			// Zero valid records: crash residue (a segment is only ever
			// created together with its first batch, so an empty or
			// garbage-only file means the crash ate everything). It must not
			// be managed — its first can equal the next append's sequence
			// number, and a name collision would alias two l.segments
			// entries onto one file, corrupting truncation. Deleting it is
			// garbage collection, not state: best-effort.
			_ = fsys.Remove(seg.name)
			continue
		}
		seg.size = size
		kept = append(kept, seg)
		prev = last
	}
	return finishOpen(fsys, opts, rec, kept, prev, unlock)
}

// finishOpen assembles the Log once scanning decided what survives.
func finishOpen(fsys FS, opts Options, rec *Recovery, kept []segment, prev uint64, unlock func() error) (*Log, *Recovery, error) {
	if prev > rec.LastSeq {
		rec.LastSeq = prev
	}
	l := &Log{
		fs:       fsys,
		opts:     opts,
		nextSeq:  rec.LastSeq + 1,
		segments: kept,
		unlock:   unlock,
	}
	for _, s := range kept {
		l.totalSize += s.size
	}
	l.written.Store(rec.LastSeq)
	l.cond = sync.NewCond(&l.mu)
	if opts.Policy == SyncInterval {
		l.stopTicker = make(chan struct{})
		l.tickerDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, rec, nil
}

// syncLoop is the SyncInterval background fsyncer.
func (l *Log) syncLoop() {
	defer close(l.tickerDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Errors are sticky in l.err; appenders surface them.
			_ = l.Sync()
		case <-l.stopTicker:
			return
		}
	}
}

// LastSeq returns the highest sequence number assigned so far.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Size returns the total bytes of valid records across managed segments
// (the durability layer's checkpoint threshold input).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalSize + int64(len(l.buf))
}

// Err returns the sticky fatal error, if any. A non-nil result matches
// errors.Is(err, ErrWedged).
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Wedged reports whether the log has entered the sticky failure state:
// appends and checkpoints fail, reads keep serving.
func (l *Log) Wedged() bool { return l.Err() != nil }

// AppendAsync frames the record into the commit pipeline, assigns its
// sequence number, and returns a wait function that blocks until the record
// is acknowledged per the sync policy (written — and under SyncAlways
// fsynced — by a group-commit leader, possibly the caller itself). The
// caller MUST invoke wait; the two-step shape exists so a caller can
// serialise "assign log position + apply to store" under its own mutex and
// pay the commit latency outside it.
func (l *Log) AppendAsync(r Record) (wait func() error, err error) {
	if err := validRecord(r); err != nil {
		return nil, err
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return nil, err
	}
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	r.Seq = l.nextSeq
	l.nextSeq++
	if len(l.buf) == 0 {
		l.bufFirst = r.Seq
	}
	l.buf = appendRecord(l.buf, r)
	l.bufCount++
	b := l.cur
	if b == nil {
		b = &batch{done: make(chan struct{})}
		l.cur = b
	}
	lead := !l.writing
	if lead {
		l.writing = true
	}
	l.mu.Unlock()
	return func() error {
		if lead {
			l.commit(false)
		}
		<-b.done
		return b.err
	}, nil
}

// Append logs one record and blocks until it is acknowledged per the sync
// policy.
func (l *Log) Append(r Record) error {
	wait, err := l.AppendAsync(r)
	if err != nil {
		return err
	}
	return wait()
}

// commit is the group-commit leader loop: repeatedly swap out the buffered
// records and write (and per policy fsync) them as one batch, acknowledging
// the batch's waiters, until the buffer stays empty. forceSync additionally
// fsyncs the active file before returning even when the policy would not.
// Only one goroutine runs commit at a time (the writing flag); it owns the
// active file until it flips the flag back.
func (l *Log) commit(forceSync bool) error {
	var lastErr error
	for {
		l.mu.Lock()
		buf, first, b, count := l.buf, l.bufFirst, l.cur, l.bufCount
		l.buf, l.cur, l.bufCount = nil, nil, 0
		if len(buf) == 0 {
			if forceSync && l.err == nil && l.active != nil && l.unsynced {
				l.mu.Unlock()
				if err := l.syncActive(); err != nil {
					// Sticky like every other I/O failure: a background
					// interval fsync that fails must wedge the log, or
					// appends would keep acking writes that never reach disk.
					l.fail(err)
					lastErr = l.Err()
				}
				l.mu.Lock()
			}
			l.writing = false
			l.cond.Broadcast()
			l.mu.Unlock()
			return lastErr
		}
		wedged := l.err
		l.mu.Unlock()

		err := wedged
		if err == nil {
			if err = l.writeChunk(buf, first); err == nil {
				l.written.Store(first + uint64(count) - 1)
			}
		}
		var syncDur time.Duration
		if err == nil && (forceSync || l.opts.Policy == SyncAlways) {
			if l.opts.OnCommit != nil {
				t0 := time.Now()
				err = l.syncActive()
				syncDur = time.Since(t0)
			} else {
				err = l.syncActive()
			}
		}
		if err == nil && l.opts.OnCommit != nil {
			l.opts.OnCommit(count, syncDur)
		}
		if err != nil {
			// Wedge first, then hand the batch the canonical wrapped error:
			// the very first failing append already reports ErrWedged, so a
			// server can flip to read-only on the fault itself rather than on
			// the next mutation.
			l.fail(err)
			err = l.Err()
			lastErr = err
		}
		b.err = err
		close(b.done)
	}
}

// writeChunk appends one batch of framed records to the active segment,
// rotating first when the active segment is full. A chunk is written whole:
// segment boundaries always fall between records (a batch may overshoot the
// segment size; rotation is checked before the write, not after).
func (l *Log) writeChunk(buf []byte, first uint64) error {
	if l.active != nil && l.activeSize >= l.opts.SegmentSize {
		if err := l.syncActive(); err != nil {
			return err
		}
		old := l.active
		l.mu.Lock()
		l.active = nil
		l.activeName = ""
		l.activeSize = 0
		l.mu.Unlock()
		if err := old.Close(); err != nil {
			return err
		}
	}
	if l.active == nil {
		name := segmentName(first)
		f, err := l.fs.Create(name)
		if err != nil {
			return err
		}
		l.mu.Lock()
		l.active = f
		l.activeName = name
		l.activeSize = 0
		l.segments = append(l.segments, segment{name: name, first: first})
		l.mu.Unlock()
	}
	n, err := l.active.Write(buf)
	l.mu.Lock()
	l.activeSize += int64(n)
	l.totalSize += int64(n)
	if len(l.segments) > 0 {
		l.segments[len(l.segments)-1].size += int64(n)
	}
	l.mu.Unlock()
	if err == nil {
		l.unsynced = true
	}
	return err
}

// syncActive fsyncs the active segment. Caller owns the files (writing=true).
func (l *Log) syncActive() error {
	if l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.unsynced = false
	return nil
}

// fail records the sticky fatal error and releases any batch that has not
// yet been taken by a leader, so no appender blocks on a wedged log. The
// error is wrapped once here — the single wedge point — so every later
// surface of l.err matches errors.Is(err, ErrWedged).
func (l *Log) fail(err error) {
	if !errors.Is(err, ErrWedged) {
		err = &wedgedError{cause: err}
	}
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	b := l.cur
	l.cur = nil
	l.buf = nil
	l.bufCount = 0
	l.mu.Unlock()
	if b != nil {
		b.err = err
		close(b.done)
	}
}

// Sync flushes every buffered record and fsyncs the active segment,
// regardless of policy. It blocks while a commit round is in flight and
// returns the log's sticky error if the flush (or any earlier write) failed.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.mu.Unlock()
	return l.flushSync()
}

// flushSync is Sync without the closed check (Close uses it for the final
// flush).
func (l *Log) flushSync() error {
	l.mu.Lock()
	for l.writing {
		l.cond.Wait()
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.writing = true
	l.mu.Unlock()
	return l.commit(true)
}

// Close stops the background fsyncer, flushes and fsyncs everything pending,
// and closes the active segment. Further appends fail with ErrClosed. Close
// is idempotent; it returns the first error encountered (a wedged log
// returns its sticky error).
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.closed = true
	l.mu.Unlock()
	if l.stopTicker != nil {
		close(l.stopTicker)
		<-l.tickerDone
	}
	err := l.flushSync()
	l.mu.Lock()
	for l.writing {
		l.cond.Wait()
	}
	f := l.active
	l.active = nil
	l.activeName = ""
	l.mu.Unlock()
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if l.unlock != nil {
		if uerr := l.unlock(); err == nil {
			err = uerr
		}
	}
	return err
}

// TruncateThrough deletes log segments every record of which has sequence
// number ≤ seq — they are covered by a snapshot the manifest already points
// at. The active segment is never deleted. Deletion is oldest-first, so a
// crash mid-truncation leaves a contiguous suffix. A failed removal is
// reported but does not wedge the log: leftover segments are re-skipped on
// the next recovery (their records filter out against the manifest) and
// retried by the next checkpoint.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segments) > 1 && l.segments[0].name != l.activeName && l.segments[1].first <= seq+1 {
		if err := l.fs.Remove(l.segments[0].name); err != nil {
			return err
		}
		l.totalSize -= l.segments[0].size
		l.segments = l.segments[1:]
	}
	return nil
}

// SegmentCount reports how many log segments are currently managed
// (observability and tests).
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}
