package wal

import (
	"errors"
	"fmt"
	"io"
)

// This file is the log-shipping export: positional reads over a live WAL
// directory, the primary-side surface replication (internal/repl) serves
// followers from. A Feed never mutates anything — it reads the manifest, the
// snapshot the manifest names, and the record segments, all through the same
// FS seam the durability layer writes through, so the whole shipping path is
// crash- and fault-injectable with MemFS.

// ErrPositionTruncated reports that the log no longer holds the records
// immediately after the requested position: a checkpoint truncated them away.
// The caller must fall back to shipping the covering snapshot.
var ErrPositionTruncated = errors.New("wal: requested position truncated; ship the snapshot")

// FrameRecord appends r in the on-disk record framing (u32 len, u32 CRC32C,
// payload) — the exact bytes ReadRecords accepts. Exported for the
// replication protocol, which reuses the WAL framing on the wire so a shipped
// record and a logged record are the same bytes.
func FrameRecord(buf []byte, r Record) []byte { return appendRecord(buf, r) }

// ReadManifest returns the directory's current manifest. ok is false when no
// manifest exists (a fresh directory); a present-but-corrupt manifest is an
// error.
func ReadManifest(fsys FS) (m Manifest, ok bool, err error) {
	return readManifest(fsys)
}

// Feed serves positional reads over one live log for replication. It is safe
// for concurrent use with the log's writer: segment lists are snapshotted
// under the log's mutex, record scans re-verify CRC and sequence continuity,
// and a read racing a checkpoint's truncation surfaces as
// ErrPositionTruncated — the follower re-roots from the snapshot, exactly
// like a crash recovery would.
type Feed struct {
	fs  FS
	log *Log
}

// NewFeed returns a Feed over the directory fsys whose live writer is log.
func NewFeed(fsys FS, log *Log) *Feed { return &Feed{fs: fsys, log: log} }

// LastSeq reports the highest sequence number the log has assigned — the
// position a fully caught-up follower converges to.
func (f *Feed) LastSeq() uint64 { return f.log.LastSeq() }

// SnapshotSeq reports the last sequence number the current checkpoint covers
// (the manifest's position). Records at or below it may be truncated at any
// moment.
func (f *Feed) SnapshotSeq() (uint64, error) {
	m, ok, err := readManifest(f.fs)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("wal: feed directory holds no manifest")
	}
	return m.SnapshotSeq, nil
}

// OpenSnapshot opens the current checkpoint snapshot for reading and returns
// the sequence number it covers. The caller must Close the reader. A
// checkpoint may land between the manifest read and the open; the one-retry
// loop absorbs the rename race (the new manifest is already durable when the
// old snapshot is removed, so the second read always names a live file).
func (f *Feed) OpenSnapshot() (rc io.ReadCloser, seq uint64, err error) {
	for attempt := 0; ; attempt++ {
		m, ok, rerr := readManifest(f.fs)
		if rerr != nil {
			return nil, 0, rerr
		}
		if !ok {
			return nil, 0, fmt.Errorf("wal: feed directory holds no manifest")
		}
		rc, err = f.fs.Open(m.Snapshot)
		if err == nil {
			return rc, m.SnapshotSeq, nil
		}
		if attempt >= 3 {
			return nil, 0, fmt.Errorf("wal: snapshot %s vanished under the feed: %w", m.Snapshot, err)
		}
	}
}

// segmentsSnapshot copies the managed segment list under the log's mutex.
func (l *Log) segmentsSnapshot() []segment {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]segment, len(l.segments))
	copy(out, l.segments)
	return out
}

// ReadAfter collects records with Seq > after, in sequence order, until
// maxBytes of framed records are gathered or the log's readable tail ends.
// The returned slice is strictly contiguous from after+1: the first record is
// after+1 and each next one increments by one, so a follower can apply the
// batch blindly after its own revalidation. When the records right after the
// position no longer exist — truncated by a checkpoint — ReadAfter returns
// ErrPositionTruncated and the caller ships the snapshot instead.
//
// Records still buffered in the commit pipeline (written by no leader yet)
// are not visible; they ship on a later call. Reading races appends safely:
// a scan observing a half-written record stops at the CRC, which just shortens
// this batch. A position at or past the log's written watermark is caught up:
// ReadAfter answers it without opening a file, so a follower polling an idle
// primary costs no I/O and no decoding.
func (f *Feed) ReadAfter(after uint64, maxBytes int) ([]Record, error) {
	if after >= f.log.written.Load() {
		// Nothing after the position is written yet, so nothing after it
		// can have been truncated either: whatever comes next is still in
		// the commit pipeline.
		return nil, nil
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	segs := f.log.segmentsSnapshot()
	if len(segs) == 0 {
		// Nothing written since the covering checkpoint: the position is
		// current only if no newer records should exist below it.
		return f.emptyOrTruncated(after)
	}
	// Find the first segment that can contain after+1: the last one whose
	// first sequence number is at or below it.
	start := -1
	for i, s := range segs {
		if s.first <= after+1 {
			start = i
		}
	}
	if start < 0 {
		// Every retained segment starts beyond the requested position — the
		// records in between were truncated away.
		return nil, ErrPositionTruncated
	}
	var out []Record
	bytes := 0
	next := after + 1
	for _, seg := range segs[start:] {
		if bytes >= maxBytes {
			break
		}
		if seg.first > next {
			// A gap between retained segments (possible transiently while a
			// truncation deletes oldest-first): the tail is unreachable from
			// this position.
			break
		}
		// Records before next are verified but not decoded, and the scan
		// stops once the batch is full, so a pull costs about what it ships.
		_, _, err := scanSegment(f.fs, seg.name, seg.first, next, func(r Record) bool {
			out = append(out, r)
			bytes += recordSize(r)
			next++
			return bytes < maxBytes
		})
		if err != nil {
			// The segment vanished mid-read: a checkpoint truncated it. If we
			// already chained records the batch is still a valid contiguous
			// prefix; otherwise report the truncation.
			if len(out) == 0 {
				return nil, ErrPositionTruncated
			}
			break
		}
	}
	if len(out) == 0 {
		return f.emptyOrTruncated(after)
	}
	return out, nil
}

// emptyOrTruncated disambiguates "no records after the position": caught up
// (the position is at or beyond everything the snapshot does not already
// cover) versus truncated (a checkpoint advanced past it, so records the
// follower never saw are gone).
func (f *Feed) emptyOrTruncated(after uint64) ([]Record, error) {
	snapSeq, err := f.SnapshotSeq()
	if err != nil {
		return nil, err
	}
	if after < snapSeq {
		return nil, ErrPositionTruncated
	}
	return nil, nil
}
