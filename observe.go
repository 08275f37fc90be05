package specqp

import (
	"specqp/internal/kg"
)

// EngineStats is a point-in-time snapshot of the engine's internals: store
// occupancy across the LSM tiers, compaction and list-cache behaviour, and —
// on durable engines — WAL group-commit, fsync and checkpoint activity. All
// counters are cumulative since engine construction; gauges (sizes, pinned
// snapshots) are instantaneous. Collecting a snapshot takes no locks beyond
// the atomic loads, so it is safe to call from a metrics scrape path at any
// frequency.
type EngineStats struct {
	// Store occupancy. LiveTriples counts non-retracted triples; HeadLen and
	// L1Len are the un-compacted mutable tiers; Tombstones counts pending
	// retraction keys (a full Compact drives it to zero).
	LiveTriples int `json:"live_triples"`
	HeadLen     int `json:"head_len"`
	L1Len       int `json:"l1_len"`
	Tombstones  int `json:"tombstones"`
	// Ops mirrors the WAL sequence on durable engines: triples at freeze
	// plus one per Insert/Delete and two per Update.
	Ops uint64 `json:"ops"`

	// Compaction activity, split by tier: full merges rebuild the frozen
	// arenas, tiered merges fold the head into L1.
	Compactions        uint64 `json:"compactions"`
	CompactionsFull    uint64 `json:"compactions_full"`
	CompactionsTiered  uint64 `json:"compactions_tiered"`
	CompactionFullNS   int64  `json:"compaction_full_ns"`
	CompactionTieredNS int64  `json:"compaction_tiered_ns"`

	// PinnedSnapshots counts consistent read views taken (cumulative): each
	// pin froze the then-current head prefix for an isolated reader.
	PinnedSnapshots int64 `json:"pinned_snapshots"`

	// PlanCacheHits and PlanCacheMisses always read 0: the engine has no
	// plan cache. They remain only because the benchmark harness in bench/
	// still reads them, and are left out of the JSON form.
	PlanCacheHits   int64 `json:"-"`
	PlanCacheMisses int64 `json:"-"`
	// Merged/residual list cache hit accounting. The tallies are
	// process-wide — cache instances are per-snapshot and dropped wholesale
	// on version changes.
	ListCacheHits   int64 `json:"list_cache_hits"`
	ListCacheMisses int64 `json:"list_cache_misses"`

	// WAL activity; the zero values mean "not a durable engine" (check
	// Durable, not WALSize — an empty log is legitimately size 0).
	Durable bool `json:"durable"`
	// WALLastSeq is the last reserved log sequence number and WALSize the
	// byte size of the live segments — together the log position.
	WALLastSeq  uint64 `json:"wal_last_seq,omitempty"`
	WALSize     int64  `json:"wal_size,omitempty"`
	WALSegments int    `json:"wal_segments,omitempty"`
	// Group commit: WALCommits batches carried WALCommitRecords records —
	// the ratio is the mean group-commit batch size.
	WALCommits       int64 `json:"wal_commits,omitempty"`
	WALCommitRecords int64 `json:"wal_commit_records,omitempty"`
	// Fsync latency: cumulative count and nanoseconds, plus the most recent
	// sync's duration.
	WALFsyncs      int64 `json:"wal_fsyncs,omitempty"`
	WALFsyncNS     int64 `json:"wal_fsync_ns,omitempty"`
	WALLastFsyncNS int64 `json:"wal_last_fsync_ns,omitempty"`
	// Checkpoints: cumulative count, wall time, and the byte size of the
	// newest committed snapshot.
	Checkpoints         int64 `json:"checkpoints,omitempty"`
	CheckpointNS        int64 `json:"checkpoint_ns,omitempty"`
	LastCheckpointBytes int64 `json:"last_checkpoint_bytes,omitempty"`
	// Wedged reports the sticky WAL failure state (reads keep serving).
	Wedged bool `json:"wedged,omitempty"`
}

// Stats collects an EngineStats snapshot. Cheap and lock-free: safe on every
// /metrics scrape and /healthz probe.
func (e *Engine) Stats() EngineStats {
	var s EngineStats
	s.LiveTriples = e.graph.Len()
	if lg, ok := e.graph.(kg.LiveGraph); ok {
		s.LiveTriples = lg.LiveLen()
		s.HeadLen = lg.HeadLen()
		s.Tombstones = lg.Tombstones()
		s.Ops = lg.Ops()
		s.Compactions = lg.Compactions()
	}
	// L1Len, per-tier compaction split and pin counts live on the concrete
	// store layouts, not the LiveGraph interface.
	switch g := e.graph.(type) {
	case *kg.Store:
		s.L1Len = g.L1Len()
		s.CompactionsFull, s.CompactionsTiered, s.CompactionFullNS, s.CompactionTieredNS = g.CompactionStats()
		s.PinnedSnapshots = g.Pins()
	case *kg.ShardedStore:
		s.L1Len = g.L1Len()
		s.CompactionsFull, s.CompactionsTiered, s.CompactionFullNS, s.CompactionTieredNS = g.CompactionStats()
		s.PinnedSnapshots = g.Pins()
	}
	s.ListCacheHits, s.ListCacheMisses = kg.ListCacheStats()
	if w := e.wal; w != nil {
		s.Durable = true
		s.WALLastSeq = w.log.LastSeq()
		s.WALSize = w.log.Size()
		s.WALSegments = w.log.SegmentCount()
		s.WALCommits = w.commits.Load()
		s.WALCommitRecords = w.commitRecords.Load()
		s.WALFsyncs = w.fsyncCount.Load()
		s.WALFsyncNS = w.fsyncNS.Load()
		s.WALLastFsyncNS = w.lastFsyncNS.Load()
		s.Checkpoints = w.checkpoints.Load()
		s.CheckpointNS = w.checkpointNS.Load()
		s.LastCheckpointBytes = w.lastCheckpoint.Load()
		s.Wedged = w.log.Wedged()
	}
	return s
}
