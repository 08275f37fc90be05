package specqp

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"specqp/internal/kg"
	"specqp/internal/wal"
)

// This file is the durability layer: it threads the internal/wal subsystem
// through the engine so that every acknowledged mutation — Insert, Delete or
// Update — survives a crash.
//
// The protocol is write-ahead with one serialisation point: a mutation (1)
// validates, (2) under the durable mutex reserves its log position AND
// applies to the store — so log order and global mutation order are the same
// order — and (3) outside the mutex waits for the group-commit pipeline to
// make the record durable per the SyncPolicy. Every kg.Mutation logs as
// exactly one record of the matching kind (KindInsert, KindTombstone or
// KindUpdate) and counts as exactly one store operation (LiveGraph.Ops — NOT
// one triple: a tombstone consumes a sequence number without adding a
// triple). So a snapshot pinned at operation count O covers exactly log
// positions 1..O-base, which is how checkpoints pin their (snapshot, log
// offset) pair without quiescing writers: WriteGraphSnapshot captures a
// consistent pinned view (survivors only — a checkpoint never carries a
// retracted fact) and returns its operation count, and the manifest commit
// plus segment truncation follow.
//
// Recovery (OpenDurable) loads the manifest's snapshot into a fresh store —
// flat or sharded per Options.Shards — replays the log tail's records (term
// strings, not IDs: re-encoding in log order reproduces the mutation order,
// and subject-hash routing re-derives shard placement under any shard
// count), and resumes with the next sequence number. Each record replays
// through replay, the one record → mutation function a follower's
// Replica.Apply shares. A pure-insert tail replays pre-freeze; the first
// tombstone or update freezes the store and replays the rest live.

// SyncPolicy re-exports the WAL fsync discipline.
type SyncPolicy = wal.SyncPolicy

// Re-exported sync policies (see wal.SyncPolicy).
const (
	// SyncAlways fsyncs (group-committed) before every Insert returns.
	SyncAlways = wal.SyncAlways
	// SyncInterval acknowledges after the buffered write and fsyncs in the
	// background every Options.SyncInterval.
	SyncInterval = wal.SyncInterval
	// SyncNone leaves fsync timing to the OS.
	SyncNone = wal.SyncNone
)

// ParseSyncPolicy parses "always", "interval" or "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// ErrWedged is the typed, errors.Is-able marker of a wedged write-ahead log:
// after any WAL I/O failure every later Insert/Delete/Update (and Sync,
// Checkpoint) on the durable engine fails with an error matching
// errors.Is(err, ErrWedged), unwrapping to the original fault. Queries are
// unaffected — the engine keeps serving reads from the last applied state,
// which is the library-level read-only degradation the serving layer builds
// on (see Engine.Wedged).
var ErrWedged = wal.ErrWedged

// Wedged reports whether the engine's write-ahead log has entered the sticky
// failure state: mutations fail fast with ErrWedged while queries keep
// serving. Always false on non-durable engines — they have no log to wedge.
func (e *Engine) Wedged() bool {
	return e.wal != nil && e.wal.log.Wedged()
}

// DefaultCheckpointBytes is how many WAL bytes a durable engine appends
// between automatic checkpoints when Options.CheckpointBytes is zero.
const DefaultCheckpointBytes = int64(64 << 20)

// The WAL's per-term bound must equal the snapshot format's: a record the
// log accepts must be loadable from a snapshot and vice versa. This is the
// compile-time tripwire — it fails to build if either side drifts.
var _ = [1]struct{}{}[kg.MaxTermLen-wal.MaxTermLen]

// walState is a durable engine's write-ahead machinery.
type walState struct {
	// mu serialises "reserve log position + apply to store", making log
	// order identical to global insertion order. The durability wait —
	// including the group-committed fsync — happens outside it, so
	// concurrent inserters batch into shared fsyncs.
	mu  sync.Mutex
	fs  wal.FS
	log *wal.Log
	// base aligns the store's operation count with the log: operation count
	// minus base is the log sequence number of the store's last applied
	// mutation. It may be negative — a recovered snapshot holds only
	// surviving triples, so its operation count can trail the sequence
	// numbers its deletes consumed.
	base            int
	checkpointBytes int64
	// cpMark is the log size right after the newest checkpoint truncated it.
	// The auto-trigger counts bytes appended since then, not the total: a
	// checkpoint can only drop closed segments, so the active segment's bytes
	// survive it and would otherwise re-trigger on every mutation.
	cpMark atomic.Int64
	// cpMu serialises checkpoints; cpBusy gates the auto-trigger to one
	// in-flight goroutine; cpWG lets Close wait for it. spawnMu fences
	// checkpoint-goroutine spawning against Close: a spawn either registers
	// with cpWG before Close's fence (so Close waits for it) or observes
	// closed afterwards (so it never starts) — without the fence a straggler
	// could checkpoint a directory whose writer lock Close already released.
	cpMu    sync.Mutex
	cpBusy  atomic.Bool
	cpWG    sync.WaitGroup
	spawnMu sync.Mutex
	closed  atomic.Bool

	// Group-commit observability, fed by the WAL's OnCommit hook (commit
	// leader goroutine, outside the log mutex — see wal.Options.OnCommit).
	commits       atomic.Int64
	commitRecords atomic.Int64
	fsyncCount    atomic.Int64
	fsyncNS       atomic.Int64
	lastFsyncNS   atomic.Int64
	// Checkpoint observability, recorded by checkpoint() on success.
	checkpoints    atomic.Int64
	checkpointNS   atomic.Int64
	lastCheckpoint atomic.Int64 // bytes of the newest snapshot
}

// noteCommit is the wal.Options.OnCommit hook: one call per group commit,
// records = batch size, syncDur > 0 iff the batch ended in a timed fsync.
func (w *walState) noteCommit(records int, syncDur time.Duration) {
	w.commits.Add(1)
	w.commitRecords.Add(int64(records))
	if syncDur > 0 {
		w.fsyncCount.Add(1)
		w.fsyncNS.Add(syncDur.Nanoseconds())
		w.lastFsyncNS.Store(syncDur.Nanoseconds())
	}
}

// DurableStateExists reports whether dir holds a recoverable durable store
// (a WAL manifest). It does not validate the state — OpenDurable does.
func DurableStateExists(dir string) (bool, error) {
	_, err := os.Stat(filepath.Join(dir, wal.ManifestName))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, err
}

// OpenDurable opens the durable engine rooted at dir (or Options.WALDir when
// dir is empty): if the directory holds durable state it is recovered —
// newest snapshot, then the WAL tail replayed in sequence order — and
// otherwise an empty durable store is initialised. Every Insert on the
// returned engine is crash-durable per Options.SyncPolicy. Close the engine
// to release the log.
func OpenDurable(dir string, rules *RuleSet, opts Options) (*Engine, error) {
	return OpenDurableWith(dir, nil, rules, opts)
}

// OpenDurableWith is OpenDurable with a bootstrap store: when dir is fresh,
// base's triples become the durable starting state (an opening checkpoint
// persists them, so the directory is self-contained from the first Insert).
// A non-nil base with existing durable state is an error — recovery will not
// silently discard either side.
func OpenDurableWith(dir string, base *Store, rules *RuleSet, opts Options) (*Engine, error) {
	if dir == "" {
		dir = opts.WALDir
	}
	if dir == "" {
		return nil, fmt.Errorf("specqp: OpenDurable needs a WAL directory (dir argument or Options.WALDir)")
	}
	fsys, err := wal.DirFS(dir)
	if err != nil {
		return nil, err
	}
	return openDurableFS(fsys, base, rules, opts)
}

// openDurableFS is OpenDurableWith behind the filesystem seam — the entry
// point the crash-fault-injection tests drive with an in-memory FS.
func openDurableFS(fsys wal.FS, base *Store, rules *RuleSet, opts Options) (*Engine, error) {
	if rules == nil {
		rules = NewRuleSet()
	}
	cpBytes := opts.CheckpointBytes
	if cpBytes == 0 {
		cpBytes = DefaultCheckpointBytes
	}
	w := &walState{fs: fsys, checkpointBytes: cpBytes}
	log, rec, err := wal.Open(fsys, wal.Options{
		Policy:      opts.SyncPolicy,
		Interval:    opts.SyncInterval,
		SegmentSize: opts.WALSegmentSize,
		OnCommit:    w.noteCommit,
	})
	if err != nil {
		return nil, err
	}
	w.log = log

	engOpts := opts
	engOpts.WALDir = "" // consumed here; NewEngineWith rejects it
	var eng *Engine
	if rec.HasState {
		if base != nil {
			log.Close()
			return nil, fmt.Errorf("specqp: directory already holds durable state; open it without a base store")
		}
		g, err := loadDurableState(fsys, rec, engOpts)
		if err != nil {
			log.Close()
			return nil, err
		}
		eng = NewEngineOver(g, rules, engOpts)
		w.base = int(g.Ops()) - int(rec.LastSeq)
		eng.wal = w
		// Re-root the directory at a fresh checkpoint before accepting any
		// append. The replayed tail may have been read from bytes no one
		// ever fsynced (a kill -9 leaves them in the page cache): without
		// this, a later power loss could shrink the old segment's valid
		// prefix and strand every newer segment behind a sequence gap. The
		// new snapshot covers LastSeq durably, post-recovery segments chain
		// from SnapshotSeq+1 by construction, and the replay work done here
		// is never repeated on the next start.
		if err := eng.Checkpoint(); err != nil {
			log.Close()
			return nil, err
		}
		return eng, nil
	}

	if base == nil {
		base = NewStore()
	}
	eng = NewEngineWith(base, rules, engOpts)
	lg, ok := eng.graph.(kg.LiveGraph)
	if !ok {
		log.Close()
		return nil, fmt.Errorf("specqp: %T does not support live inserts", eng.graph)
	}
	w.base = int(lg.Ops())
	eng.wal = w
	// The opening checkpoint makes the directory self-contained: recovery
	// never needs the bootstrap source again. Until the manifest lands the
	// directory holds no state, so a crash here just means a fresh start.
	if err := eng.Checkpoint(); err != nil {
		log.Close()
		return nil, err
	}
	return eng, nil
}

// loadDurableState rebuilds the store a recovery describes: the manifest's
// snapshot loaded into the layout Options.Shards selects, then the log tail
// replayed in sequence order. The pure-insert prefix of the tail replays
// into the unfrozen store, staged like Add; the first tombstone or update
// freezes it (deletes and updates are live operations) and the rest replays
// live, which keeps the operation count in lockstep with the sequence
// numbers under any interleaving.
func loadDurableState(fsys wal.FS, rec *wal.Recovery, opts Options) (kg.LiveGraph, error) {
	rd, err := fsys.Open(rec.Manifest.Snapshot)
	if err != nil {
		return nil, fmt.Errorf("specqp: manifest names snapshot %s: %w", rec.Manifest.Snapshot, err)
	}
	defer rd.Close()

	g := newStage(opts.Shards)
	if err := kg.ReadBinaryInto(rd, g.Dict(), g.Add); err != nil {
		return nil, fmt.Errorf("specqp: loading snapshot %s: %w", rec.Manifest.Snapshot, err)
	}
	for _, r := range rec.Records {
		if r.Kind != wal.KindInsert && !g.Frozen() {
			g.Freeze()
		}
		if err := replay(g, r); err != nil {
			return nil, err
		}
	}
	// With a pure-insert tail the store returns unfrozen and NewEngineOver
	// picks the parallel freeze path.
	return g, nil
}

// stage is the loading surface both store layouts share: a live graph that
// can be bulk-loaded before Freeze.
type stage interface {
	kg.LiveGraph
	Add(kg.Triple) error
	Freeze()
}

// newStage returns an empty store in the layout a shard count selects: flat
// for 0 or 1, sharded beyond, one shard per CPU when negative.
func newStage(shards int) stage {
	if shards < 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > 1 {
		return kg.NewShardedStore(nil, shards)
	}
	return kg.NewStore(nil)
}

// The mutation ops are the WAL record kinds that log them, so a record and
// its mutation convert by value. These fail to build if either side drifts.
var (
	_ = [1]struct{}{}[int(kg.OpInsert)-int(wal.KindInsert)]
	_ = [1]struct{}{}[int(kg.OpDelete)-int(wal.KindTombstone)]
	_ = [1]struct{}{}[int(kg.OpUpdate)-int(wal.KindUpdate)]
)

// replay applies one logged record to g as the one mutation it logged, any
// compaction it triggers run inline. It serves recovery's log tail and a
// follower's shipped records alike. Record terms are interned
// unconditionally — never looked up and skipped when unknown, which would
// skip the operation this record's sequence number consumed — so dictionary
// IDs may diverge from the original process's, but term-level content (what
// recovery and replication promise) is reproduced exactly.
func replay(g kg.LiveGraph, r wal.Record) error {
	d := g.Dict()
	m := kg.Mutation{Op: kg.Op(r.Kind), Triple: kg.Triple{S: d.Encode(r.S), P: d.Encode(r.P), O: d.Encode(r.O), Score: r.Score}}
	_, compact, err := g.Apply(m)
	if compact != nil {
		compact()
	}
	if err != nil {
		return fmt.Errorf("specqp: replaying WAL record %d: %w", r.Seq, err)
	}
	return nil
}

// apply is the durable write path (see the file comment for the protocol):
// m validated, its one record reserved and m applied under the ordering
// mutex, the durability wait outside it. A delete of a key with no live
// copies still logs (and consumes a sequence number) — the store counts it
// as an operation either way, which keeps the ops↔seq lockstep
// unconditional.
func (w *walState) apply(lg kg.LiveGraph, m kg.Mutation) (int, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	d := lg.Dict()
	t := m.Triple
	if n := kg.ID(d.Len()); t.S >= n || t.P >= n || t.O >= n {
		return 0, fmt.Errorf("specqp: mutation references unknown term ID (dictionary holds %d terms)", n)
	}
	rec := wal.Record{Kind: byte(m.Op), S: d.Decode(t.S), P: d.Decode(t.P), O: d.Decode(t.O), Score: t.Score}

	w.mu.Lock()
	wait, err := w.log.AppendAsync(rec)
	if err != nil {
		w.mu.Unlock()
		return 0, err
	}
	removed, compact, aerr := lg.Apply(m)
	w.mu.Unlock()
	if aerr != nil {
		// Unreachable: m was validated above with the store's own checks.
		// Reaching this would leave a logged record with no applied
		// mutation — a broken durability invariant worth crashing over.
		panic(fmt.Sprintf("specqp: validated mutation rejected by store after logging: %v", aerr))
	}
	werr := wait()
	if compact != nil {
		// The merge the mutation triggered runs on this goroutine like the
		// non-durable path, but outside the ordering mutex: other durable
		// mutations proceed while the posting arenas rebuild.
		compact()
	}
	if werr != nil {
		return removed, werr
	}
	w.maybeCheckpoint(lg)
	return removed, nil
}

// maybeCheckpoint starts a background checkpoint once the threshold's worth
// of bytes has been appended since the last one, at most one in flight.
func (w *walState) maybeCheckpoint(g kg.Graph) {
	if w.checkpointBytes <= 0 || w.log.Size()-w.cpMark.Load() < w.checkpointBytes {
		return
	}
	if !w.cpBusy.CompareAndSwap(false, true) {
		return
	}
	w.spawnMu.Lock()
	if w.closed.Load() {
		w.spawnMu.Unlock()
		w.cpBusy.Store(false)
		return
	}
	w.cpWG.Add(1)
	w.spawnMu.Unlock()
	go func() {
		defer w.cpWG.Done()
		defer w.cpBusy.Store(false)
		// Errors are not fatal here: the log keeps growing and the next
		// threshold crossing (or explicit Checkpoint/Compact) retries.
		_ = w.checkpoint(g)
	}()
}

// checkpoint persists the store's current state as a binary snapshot, commits
// it through the manifest, and truncates the log segments it covers. It
// refuses closed engines (Close released the exclusive-writer lock — the
// directory may belong to another process now) and wedged logs (a failed
// commit means the in-memory store can be ahead of every acked insert;
// durable state stays at the last consistent prefix).
func (w *walState) checkpoint(g kg.Graph) error {
	w.cpMu.Lock()
	defer w.cpMu.Unlock()
	if w.closed.Load() {
		return fmt.Errorf("specqp: checkpoint on closed engine")
	}
	if err := w.log.Err(); err != nil {
		return fmt.Errorf("specqp: checkpoint refused, log is wedged: %w", err)
	}

	cpStart := time.Now()
	const tmp = "snap.tmp"
	f, err := w.fs.Create(tmp)
	if err != nil {
		return err
	}
	nbytes, ops, err := kg.WriteGraphSnapshot(f, g)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	seq := uint64(int(ops) - w.base)
	name := wal.SnapshotName(seq)
	if err := w.fs.Rename(tmp, name); err != nil {
		return err
	}
	if err := wal.WriteManifest(w.fs, wal.Manifest{Snapshot: name, SnapshotSeq: seq}); err != nil {
		return err
	}
	// The manifest commit is the durability point: record the checkpoint as
	// done even if the garbage collection below fails.
	w.checkpoints.Add(1)
	w.checkpointNS.Add(time.Since(cpStart).Nanoseconds())
	w.lastCheckpoint.Store(int64(nbytes))
	// Anything that fails from here on is garbage collection, not
	// correctness: the manifest already commits the new snapshot.
	err = w.log.TruncateThrough(seq)
	w.cpMark.Store(w.log.Size())
	if err != nil {
		return err
	}
	names, err := w.fs.List()
	if err != nil {
		return err
	}
	for _, old := range names {
		if wal.IsSnapshotName(old) && old != name {
			if err := w.fs.Remove(old); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sync forces every buffered WAL record to durable storage, regardless of
// the sync policy — the barrier an application calls before acknowledging
// externally visible state. A no-op on engines without a WAL.
func (e *Engine) Sync() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.log.Sync()
}

// Checkpoint persists the current store state as a binary snapshot in the
// WAL directory, commits it via the manifest, and truncates every log
// segment it covers. Concurrent inserts are safe: the snapshot captures a
// consistent prefix and newer records simply stay in the log. A no-op on
// engines without a WAL.
func (e *Engine) Checkpoint() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.checkpoint(e.graph)
}

// Close flushes and fsyncs the WAL, waits for any in-flight automatic
// checkpoint, and releases the log. Queries remain usable; further Inserts
// fail. Idempotent; a no-op on engines without a WAL.
func (e *Engine) Close() error {
	if e.wal == nil {
		return nil
	}
	w := e.wal
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	// The fence: any checkpoint spawn that won the race registered with cpWG
	// under spawnMu before we acquire it here; any later spawn sees closed.
	w.spawnMu.Lock()
	w.spawnMu.Unlock() //nolint:staticcheck // empty critical section IS the fence
	w.cpWG.Wait()
	// Drain any in-flight explicit Checkpoint/Compact before the log close
	// releases the directory lock; later ones fail the closed check above.
	w.cpMu.Lock()
	w.cpMu.Unlock() //nolint:staticcheck // empty critical section IS the fence
	return w.log.Close()
}
