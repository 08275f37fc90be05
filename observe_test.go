package specqp

import (
	"context"
	"strings"
	"testing"

	"specqp/internal/wal"
)

// TestQueryTracedBitIdentity is the engine-level half of the tracing oracle:
// for every mode, a traced execution must return exactly the answers of the
// untraced one — same bindings, same scores, same order — while carrying a
// populated trace.
func TestQueryTracedBitIdentity(t *testing.T) {
	eng, q := engineFixture(t)
	for _, mode := range []Mode{ModeSpecQP, ModeTriniT, ModeExact} {
		want, err := eng.QueryContext(context.Background(), q, 3, mode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.QueryTraced(context.Background(), q, 3, mode)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, "traced vs untraced "+mode.String(), got.Answers, want.Answers)
		if got.Trace == nil {
			t.Fatalf("%v: no trace attached", mode)
		}
		if got.Trace.Mode != mode.String() {
			t.Fatalf("%v: trace mode %q", mode, got.Trace.Mode)
		}
		if got.Trace.Answers != len(got.Answers) {
			t.Fatalf("%v: trace answers %d, result %d", mode, got.Trace.Answers, len(got.Answers))
		}
		if got.Trace.Root == nil {
			t.Fatalf("%v: no operator tree in the trace", mode)
		}
	}
}

// TestQueryTracedShapeKey pins the planner-decision fields: every spec-qp
// run carries the query's shape key, k and relaxation count, and two runs of
// one query carry the same key.
func TestQueryTracedShapeKey(t *testing.T) {
	eng, q := engineFixture(t)
	first, err := eng.QueryTraced(context.Background(), q, 3, ModeSpecQP)
	if err != nil {
		t.Fatal(err)
	}
	tr := first.Trace
	if tr.ShapeKey == "" {
		t.Fatal("shape key not stamped")
	}
	if tr.K != 3 {
		t.Fatalf("trace k=%d", tr.K)
	}
	if tr.Relaxations != first.Plan.NumRelaxed() {
		t.Fatalf("trace relaxations %d, plan relaxes %d", tr.Relaxations, first.Plan.NumRelaxed())
	}
	second, err := eng.QueryTraced(context.Background(), q, 3, ModeSpecQP)
	if err != nil {
		t.Fatal(err)
	}
	if second.Trace.ShapeKey != tr.ShapeKey {
		t.Fatalf("shape key drifted: %q vs %q", second.Trace.ShapeKey, tr.ShapeKey)
	}
	// The executed tree did real work and says so.
	root := second.Trace.Root.Snapshot()
	if root.Pulls == 0 && root.Emits == 0 {
		t.Fatalf("root node recorded no activity: %+v", root)
	}
	var leaves int
	var walk func(*TraceNode)
	walk = func(n *TraceNode) {
		if len(n.Children) == 0 {
			leaves++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(second.Trace.Root)
	if leaves == 0 {
		t.Fatal("trace tree has no leaves")
	}
}

// TestExplainString checks the rendered explanation carries both halves —
// the planner's speculative reasoning and the executed trace — and that
// non-spec-qp modes render the trace alone.
func TestExplainString(t *testing.T) {
	eng, q := engineFixture(t)
	out, err := eng.ExplainString(context.Background(), q, 3, ModeSpecQP)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan:", "mode=spec-qp", "k=3", "answers="} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	exact, err := eng.ExplainString(context.Background(), q, 3, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exact, "plan:") {
		t.Fatalf("exact mode rendered a speculative plan:\n%s", exact)
	}
	if !strings.Contains(exact, "mode=exact") {
		t.Fatalf("exact explain missing header:\n%s", exact)
	}
	if _, err := eng.ExplainString(context.Background(), NewQuery(), 3, ModeSpecQP); err == nil {
		t.Fatal("empty query accepted")
	}
}

// TestEngineStatsLifecycle drives a live engine through inserts, deletes,
// queries and a compaction and checks the Stats snapshot tracks each phase:
// head growth, tombstone accounting, compaction counters, and the retired
// plan-cache counters staying at 0.
func TestEngineStatsLifecycle(t *testing.T) {
	eng, q := engineFixture(t)
	s0 := eng.Stats()
	if s0.LiveTriples != 9 || s0.HeadLen != 0 || s0.Tombstones != 0 {
		t.Fatalf("fresh stats: %+v", s0)
	}
	if s0.Durable {
		t.Fatal("flat engine reports durable")
	}

	if err := eng.InsertSPO("newbie", "rdf:type", "singer", 60); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DeleteSPO("miley", "rdf:type", "singer"); err != nil {
		t.Fatal(err)
	}
	s1 := eng.Stats()
	if s1.HeadLen != 1 {
		t.Fatalf("head after insert: %d", s1.HeadLen)
	}
	if s1.Tombstones != 1 {
		t.Fatalf("tombstones after delete: %d", s1.Tombstones)
	}
	if s1.LiveTriples != 9 { // 9 seed + 1 insert - 1 delete
		t.Fatalf("live triples: %d", s1.LiveTriples)
	}

	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	s2 := eng.Stats()
	if s2.HeadLen != 0 || s2.Tombstones != 0 {
		t.Fatalf("post-compact occupancy: head=%d tombstones=%d", s2.HeadLen, s2.Tombstones)
	}
	if s2.Compactions == 0 || s2.CompactionsFull == 0 {
		t.Fatalf("compaction not counted: %+v", s2)
	}

	// The engine has no plan cache: its retired counters read 0 after
	// queries through every entry point.
	if _, err := eng.QueryTraced(context.Background(), q, 3, ModeSpecQP); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryBatch(context.Background(), []Query{q, q}, 3, ModeSpecQP); err != nil {
		t.Fatal(err)
	}
	if s3 := eng.Stats(); s3.PlanCacheHits != 0 || s3.PlanCacheMisses != 0 {
		t.Fatalf("plan cache counters: hits=%d misses=%d", s3.PlanCacheHits, s3.PlanCacheMisses)
	}
}

// TestEngineStatsDurable checks the WAL-side counters on a durable engine:
// group commits, fsync accounting under SyncAlways, log position, and the
// checkpoint counters after an explicit Checkpoint.
func TestEngineStatsDurable(t *testing.T) {
	dict, triples, rules, _ := randomLiveFixture(t, 4242)
	base := len(triples) / 2
	fs := wal.NewMemFS()
	eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules,
		Options{SyncPolicy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	for _, tr := range triples[base:] {
		if err := eng.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	s := eng.Stats()
	if !s.Durable {
		t.Fatal("durable engine not flagged")
	}
	inserted := int64(len(triples) - base)
	if s.WALCommits == 0 || s.WALCommitRecords < inserted {
		t.Fatalf("group-commit accounting: commits=%d records=%d want >=%d records",
			s.WALCommits, s.WALCommitRecords, inserted)
	}
	if s.WALCommits > s.WALCommitRecords {
		t.Fatalf("more commits than records: %d > %d", s.WALCommits, s.WALCommitRecords)
	}
	if s.WALFsyncs == 0 || s.WALFsyncNS <= 0 {
		t.Fatalf("SyncAlways fsync accounting: count=%d ns=%d", s.WALFsyncs, s.WALFsyncNS)
	}
	if s.WALLastSeq == 0 || s.WALSize <= 0 || s.WALSegments == 0 {
		t.Fatalf("log position: seq=%d size=%d segments=%d", s.WALLastSeq, s.WALSize, s.WALSegments)
	}
	// Bootstrap may have written an initial snapshot through the same path;
	// take the current count as the baseline.
	baseline := s.Checkpoints

	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2 := eng.Stats()
	if s2.Checkpoints != baseline+1 {
		t.Fatalf("checkpoints: %d, want %d", s2.Checkpoints, baseline+1)
	}
	if s2.LastCheckpointBytes <= 0 || s2.CheckpointNS <= 0 {
		t.Fatalf("checkpoint size/time not recorded: bytes=%d ns=%d",
			s2.LastCheckpointBytes, s2.CheckpointNS)
	}
	if s2.Wedged {
		t.Fatal("healthy engine reports wedged")
	}
}
