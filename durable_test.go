package specqp

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"specqp/internal/kg"
	"specqp/internal/wal"
)

// This file proves the durability subsystem end to end, against the same
// bit-identical oracle discipline PRs 3–4 used: at every injected crash
// point, OpenDurable must recover a store whose triples are exactly the
// acked insert prefix and whose answers — both paper engines and the naive
// reference, across shard counts — equal a flat engine rebuilt from that
// prefix. The whole stack (log, snapshots, manifest) runs against wal.MemFS,
// whose byte-budget fault kills the writer mid-record and whose Crash views
// keep only synced bytes plus an arbitrary prefix of the unsynced tail.

var durableShardCounts = []int{1, 2, 7}

// buildBaseStore loads the first n fixture triples into a flat store over
// the fixture dict (the durable bootstrap store).
func buildBaseStore(t *testing.T, dict *kg.Dict, triples []Triple, n int) *Store {
	t.Helper()
	st := kg.NewStore(dict)
	for _, tr := range triples[:n] {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// flatOracle builds the reference engine over exactly the first pos fixture
// triples.
func flatOracle(t *testing.T, dict *kg.Dict, triples []Triple, pos int, rules *RuleSet) *Engine {
	t.Helper()
	st := buildBaseStore(t, dict, triples, pos)
	st.Freeze()
	return NewEngineWith(st, rules, Options{Shards: 1})
}

// assertOracleEqual checks the engine's answers against the flat oracle for
// the first three fixture queries under both paper engines and the naive
// reference.
func assertOracleEqual(t *testing.T, label string, eng, oracle *Engine, queries []Query) {
	t.Helper()
	for qi, q := range queries[:3] {
		for _, mode := range []Mode{ModeSpecQP, ModeTriniT} {
			want, err := oracle.Query(q, 8, mode)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Query(q, 8, mode)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, fmt.Sprintf("%s query %d mode %v", label, qi, mode), got.Answers, want.Answers)
		}
		sameAnswers(t, fmt.Sprintf("%s query %d naive", label, qi),
			naiveQuery(eng, q, 8).Answers, naiveQuery(oracle, q, 8).Answers)
	}
}

// assertTriplePrefix checks the recovered store holds exactly the first pos
// fixture triples, comparing decoded terms (recovered dictionaries reproduce
// IDs for snapshot terms, but the contract is string-level identity).
func assertTriplePrefix(t *testing.T, label string, g Graph, dict *kg.Dict, triples []Triple, pos int) {
	t.Helper()
	if g.Len() != pos {
		t.Fatalf("%s: recovered %d triples, want %d", label, g.Len(), pos)
	}
	rd := g.Dict()
	for i := 0; i < pos; i++ {
		got, want := g.Triple(int32(i)), triples[i]
		if rd.Decode(got.S) != dict.Decode(want.S) || rd.Decode(got.P) != dict.Decode(want.P) ||
			rd.Decode(got.O) != dict.Decode(want.O) || got.Score != want.Score {
			t.Fatalf("%s: triple %d = %v, want %v", label, i, got, want)
		}
	}
}

// TestDurableCloseReopen is the clean-shutdown contract: ingest through the
// WAL, close, reopen from the directory alone — at the same or a different
// shard count — and get a bit-identical engine that can keep ingesting.
func TestDurableCloseReopen(t *testing.T) {
	for trial := int64(0); trial < 2; trial++ {
		dict, triples, rules, queries := randomLiveFixture(t, 6100+trial)
		base := len(triples) * 3 / 5
		for _, shards := range durableShardCounts {
			fs := wal.NewMemFS()
			eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules,
				Options{Shards: shards, SyncPolicy: SyncAlways, WALSegmentSize: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			mid := base + (len(triples)-base)/2
			for _, tr := range triples[base:mid] {
				if err := eng.Insert(tr); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Insert(triples[mid]); err == nil {
				t.Fatal("insert after Close succeeded")
			}

			// Recover at a rotated shard count: replay re-routes by subject
			// hash, so the layout is free to change between runs.
			reShards := durableShardCounts[(trial+1)%int64(len(durableShardCounts))]
			reng, err := openDurableFS(fs, nil, rules, Options{Shards: reShards, SyncPolicy: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d shards=%d→%d", trial, shards, reShards)
			assertTriplePrefix(t, label, reng.Graph(), dict, triples, mid)
			assertOracleEqual(t, label, reng, flatOracle(t, dict, triples, mid, rules), queries)

			// Resume ingesting on the recovered engine and re-verify at the
			// final state.
			for _, tr := range triples[mid:] {
				if err := reng.Insert(tr); err != nil {
					t.Fatal(err)
				}
			}
			if err := reng.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := openDurableFS(fs, nil, rules, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			label += " resumed"
			assertTriplePrefix(t, label, final.Graph(), dict, triples, len(triples))
			assertOracleEqual(t, label, final, flatOracle(t, dict, triples, len(triples), rules), queries)
			final.Close()
		}
	}
}

// TestDurableCrashFaultInjection is the flagship harness: randomized byte
// budgets kill the writer at arbitrary offsets — mid-record, mid-fsync
// window, mid-checkpoint — while a schedule of inserts, compactions and
// checkpoints runs; recovery must always yield the flat oracle of exactly
// some acked-consistent prefix, and under SyncAlways the prefix must cover
// every insert that returned nil.
func TestDurableCrashFaultInjection(t *testing.T) {
	policies := []SyncPolicy{SyncAlways, SyncNone}
	trial := int64(0)
	for _, policy := range policies {
		for _, shards := range durableShardCounts {
			for rep := 0; rep < 4; rep++ {
				trial++
				rng := rand.New(rand.NewSource(4400 + trial))
				dict, triples, rules, queries := randomLiveFixture(t, 8800+trial)
				base := len(triples) / 2
				fs := wal.NewMemFS()
				eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules, Options{
					Shards:          shards,
					SyncPolicy:      policy,
					WALSegmentSize:  1 << 10, // force rotation under the schedule
					CheckpointBytes: -1,      // checkpoints fire from the schedule, deterministically
					HeadLimit:       16,      // force head merges under the schedule
				})
				if err != nil {
					t.Fatal(err)
				}
				// Arm the kill: the opening checkpoint is durable, everything
				// after may die at any byte.
				fs.SetBudget(int64(rng.Intn(6000)))

				acked := 0
				for pos := base; pos < len(triples); pos++ {
					switch rng.Intn(12) {
					case 0:
						_ = eng.Checkpoint() // may die mid-snapshot; recovery must not care
					case 1:
						_ = eng.Compact() // head merge + checkpoint
					}
					if err := eng.Insert(triples[pos]); err != nil {
						break
					}
					acked++
				}

				crashed := fs.Crash(func(_ string, pending int) int { return rng.Intn(pending + 1) })
				reShards := durableShardCounts[rng.Intn(len(durableShardCounts))]
				reng, err := openDurableFS(crashed, nil, rules, Options{Shards: reShards})
				if err != nil {
					t.Fatalf("trial %d (policy=%v shards=%d→%d): recovery failed: %v",
						trial, policy, shards, reShards, err)
				}
				label := fmt.Sprintf("trial %d policy=%v shards=%d→%d acked=%d", trial, policy, shards, reShards, acked)
				recovered := reng.Graph().Len() - base
				if recovered < 0 || base+recovered > len(triples) {
					t.Fatalf("%s: recovered length %d out of range", label, reng.Graph().Len())
				}
				if policy == SyncAlways && recovered < acked {
					t.Fatalf("%s: lost acked inserts — recovered %d of %d", label, recovered, acked)
				}
				assertTriplePrefix(t, label, reng.Graph(), dict, triples, base+recovered)
				assertOracleEqual(t, label, reng, flatOracle(t, dict, triples, base+recovered, rules), queries)
				reng.Close()
			}
		}
	}
}

// TestDurableSyncBarrier pins Engine.Sync's contract under SyncNone: inserts
// acknowledged before a successful Sync survive a crash that drops every
// unsynced byte; inserts after it may not, but never out of order.
func TestDurableSyncBarrier(t *testing.T) {
	dict, triples, rules, queries := randomLiveFixture(t, 1357)
	base := len(triples) / 2
	fs := wal.NewMemFS()
	eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules,
		Options{SyncPolicy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	mid := base + (len(triples)-base)/2
	for _, tr := range triples[base:mid] {
		if err := eng.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples[mid:] {
		if err := eng.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Harshest crash: only synced bytes survive.
	reng, err := openDurableFS(fs.Crash(wal.SyncedOnly), nil, rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := reng.Graph().Len()
	if got < mid {
		t.Fatalf("synced prefix lost: recovered %d triples, synced through %d", got, mid)
	}
	assertTriplePrefix(t, "sync barrier", reng.Graph(), dict, triples, got)
	assertOracleEqual(t, "sync barrier", reng, flatOracle(t, dict, triples, got, rules), queries)
	reng.Close()
	eng.Close()
}

// TestDurableIntervalPolicy exercises the background fsyncer: an interval
// engine's inserts become durable without explicit Syncs, within a few
// periods.
func TestDurableIntervalPolicy(t *testing.T) {
	dict, triples, rules, _ := randomLiveFixture(t, 2468)
	base := len(triples) / 2
	fs := wal.NewMemFS()
	eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules,
		Options{SyncPolicy: SyncInterval, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples[base:] {
		if err := eng.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		reng, err := openDurableFS(fs.Crash(wal.SyncedOnly), nil, rules, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := reng.Graph().Len()
		reng.Close()
		if n == len(triples) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background fsync never covered the tail: %d of %d durable", n, len(triples))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCheckpointTruncatesLog pins the checkpoint contract: after
// Compact, the snapshot covers everything, obsolete segments are deleted,
// and recovery replays nothing.
func TestDurableCheckpointTruncatesLog(t *testing.T) {
	dict, triples, rules, queries := randomLiveFixture(t, 97)
	base := len(triples) / 2
	fs := wal.NewMemFS()
	eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules,
		Options{SyncPolicy: SyncAlways, WALSegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples[base:] {
		if err := eng.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := eng.wal.log.SegmentCount(); got > 1 {
		t.Fatalf("checkpoint left %d log segments", got)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, n := range names {
		if wal.IsSnapshotName(n) {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("checkpoint left %d snapshots: %v", snaps, names)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash view keeping nothing unsynced: the checkpoint must be complete.
	reng, err := openDurableFS(fs.Crash(wal.SyncedOnly), nil, rules, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertTriplePrefix(t, "post-checkpoint", reng.Graph(), dict, triples, len(triples))
	assertOracleEqual(t, "post-checkpoint", reng, flatOracle(t, dict, triples, len(triples), rules), queries)
	reng.Close()
}

// TestAutoCheckpointCadence pins the automatic checkpoint trigger to the
// bytes appended since the last checkpoint. A checkpoint can only drop
// closed log segments, so with CheckpointBytes below WALSegmentSize a trigger
// on the total log size stays armed until the active segment rotates and
// fires again after nearly every insert. Each insert waits out the automatic
// checkpoint it started, so every armed trigger fires and the count is
// deterministic.
func TestAutoCheckpointCadence(t *testing.T) {
	const segment, every = 64 << 10, 8 << 10
	eng, err := openDurableFS(wal.NewMemFS(), nil, nil,
		Options{WALSegmentSize: segment, CheckpointBytes: every})
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	for i := 0; i < 4000; i++ {
		s, o, score := fmt.Sprintf("s%d", i), fmt.Sprintf("o%d", i%50), float64(1+i%100)
		if err := eng.InsertSPO(s, "p", o, score); err != nil {
			t.Fatal(err)
		}
		appended += len(wal.FrameRecord(nil, wal.Record{Kind: wal.KindInsert, S: s, P: "p", O: o, Score: score}))
		for eng.wal.cpBusy.Load() {
			runtime.Gosched()
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	got := eng.Stats().Checkpoints
	limit := int64((appended+every-1)/every) + 1 // +1: the opening checkpoint
	if got > limit {
		t.Fatalf("%d checkpoints for %d appended bytes, want at most %d", got, appended, limit)
	}
	if got < limit-2 {
		t.Fatalf("%d checkpoints for %d appended bytes, want at least %d", got, appended, limit-2)
	}
}

// TestDurableStateGuards pins the API misuse errors: re-bootstrapping over
// existing state is rejected, and NewEngineWith refuses Options.WALDir.
func TestDurableStateGuards(t *testing.T) {
	dict, triples, rules, _ := randomLiveFixture(t, 31)
	fs := wal.NewMemFS()
	eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, 20), rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := openDurableFS(fs, buildBaseStore(t, dict, triples, 5), rules, Options{}); err == nil {
		t.Fatal("bootstrap over existing durable state succeeded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewEngineWith accepted Options.WALDir")
			}
		}()
		NewEngineWith(kg.NewStore(nil), rules, Options{WALDir: "somewhere"})
	}()
	// A non-durable engine's durable surface is inert, not an error.
	plain := NewEngineWith(buildBaseStore(t, dict, triples, 20), rules, Options{})
	if err := plain.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := plain.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableInsertHammer races concurrent durable inserters against
// Engine.Sync, explicit checkpoints and queries (run with -race in CI), then
// proves the recovered store is bit-identical to the live store's final
// state — insertion order included, since the WAL serialises it.
func TestDurableInsertHammer(t *testing.T) {
	dict, triples, rules, queries := randomLiveFixture(t, 5150)
	base := len(triples) / 3
	fs := wal.NewMemFS()
	eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules, Options{
		Shards:          3,
		SyncPolicy:      SyncAlways,
		WALSegmentSize:  1 << 11,
		CheckpointBytes: 1 << 13, // let the automatic threshold fire too
		HeadLimit:       32,
	})
	if err != nil {
		t.Fatal(err)
	}
	rest := triples[base:]
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(rest); i += workers {
				if err := eng.Insert(rest[i]); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := eng.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := eng.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	for qi := 0; qi < 10; qi++ {
		if _, err := eng.Query(queries[qi%len(queries)], 5, ModeSpecQP); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if eng.Graph().Len() != len(triples) {
		t.Fatalf("live store has %d triples, want %d", eng.Graph().Len(), len(triples))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	reng, err := openDurableFS(fs, nil, rules, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reng.Close()
	// The concurrent insert order is whatever the WAL serialised; the
	// recovered store must reproduce it triple for triple.
	g, rg := eng.Graph(), reng.Graph()
	if rg.Len() != g.Len() {
		t.Fatalf("recovered %d triples, live had %d", rg.Len(), g.Len())
	}
	ld, rd := g.Dict(), rg.Dict()
	for i := 0; i < g.Len(); i++ {
		a, b := g.Triple(int32(i)), rg.Triple(int32(i))
		if ld.Decode(a.S) != rd.Decode(b.S) || ld.Decode(a.P) != rd.Decode(b.P) ||
			ld.Decode(a.O) != rd.Decode(b.O) || a.Score != b.Score {
			t.Fatalf("triple %d diverged after recovery: %v vs %v", i, a, b)
		}
	}
	for qi, q := range queries[:3] {
		for _, mode := range []Mode{ModeSpecQP, ModeTriniT} {
			want, err := eng.Query(q, 8, mode)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reng.Query(q, 8, mode)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, fmt.Sprintf("hammer recovery query %d mode %v", qi, mode), got.Answers, want.Answers)
		}
		sameAnswers(t, fmt.Sprintf("hammer recovery query %d naive", qi),
			naiveQuery(reng, q, 8).Answers, naiveQuery(eng, q, 8).Answers)
	}
}

// TestRecoveryRecheckpointsReplayedTail pins the double-crash contract: a
// recovery may replay log bytes nobody ever fsynced (a kill -9 leaves them
// in the page cache), so it must re-root the directory at a fresh covering
// checkpoint before accepting appends. Modelled by recovering from an
// everything-written crash view, then deleting every log segment (the
// power loss that would have eaten the unsynced bytes) and recovering
// again: the replayed tail must survive via the recovery checkpoint.
func TestRecoveryRecheckpointsReplayedTail(t *testing.T) {
	dict, triples, rules, queries := randomLiveFixture(t, 8642)
	base := len(triples) / 2
	fs := wal.NewMemFS()
	eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules,
		Options{SyncPolicy: SyncNone}) // nothing fsynced: the page-cache model
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples[base:] {
		if err := eng.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	// kill -9: all written bytes survive in the page cache, none are durable.
	view := fs.Crash(wal.EverythingWritten)
	reng, err := openDurableFS(view, nil, rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reng.Graph().Len() != len(triples) {
		t.Fatalf("first recovery got %d triples, want %d", reng.Graph().Len(), len(triples))
	}
	if err := reng.Close(); err != nil {
		t.Fatal(err)
	}
	// The deferred power loss: the old segments' bytes were never fsynced by
	// anyone pre-recovery, so they may vanish entirely.
	names, err := view.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") {
			if err := view.Remove(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	final, err := openDurableFS(view, nil, rules, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	assertTriplePrefix(t, "post-double-crash", final.Graph(), dict, triples, len(triples))
	assertOracleEqual(t, "post-double-crash", final, flatOracle(t, dict, triples, len(triples), rules), queries)
}

// recOp is one step of the mutation crash harness's survivor model: an
// insert or a retraction, with an update modelled as its retraction followed
// by its insert. An update logs as one record, so no crash recovers the
// prefix that splits the pair — the model's prefix scan simply never matches
// it.
type recOp struct {
	del     bool
	s, p, o string
	score   float64
}

// survivorsOf replays a record prefix into the surviving fact sequence.
func survivorsOf(records []recOp) []recOp {
	var out []recOp
	for _, r := range records {
		if r.del {
			kept := out[:0]
			for _, t := range out {
				if t.s == r.s && t.p == r.p && t.o == r.o {
					continue
				}
				kept = append(kept, t)
			}
			out = kept
			continue
		}
		out = append(out, r)
	}
	return out
}

// liveSequence extracts a graph's surviving triples in global insertion
// order as term strings, by round-tripping the survivors-only snapshot
// writer (which is itself part of the contract under test).
func liveSequence(t *testing.T, g Graph) []recOp {
	t.Helper()
	var buf strings.Builder
	if _, _, err := kg.WriteGraphSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	d := kg.NewDict()
	var out []recOp
	add := func(tr Triple) error {
		out = append(out, recOp{s: d.Decode(tr.S), p: d.Decode(tr.P), o: d.Decode(tr.O), score: tr.Score})
		return nil
	}
	if err := kg.ReadBinaryInto(strings.NewReader(buf.String()), d, add); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameRecOps reports whether two survivor sequences are identical.
func sameRecOps(a, b []recOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDurableMutationCrashFaultInjection is the tombstone-bearing crash
// harness: a randomized schedule of inserts, deletes, updates, compactions
// and checkpoints runs under byte-budget fault injection; recovery must
// yield exactly the survivors of some record-level prefix of the mutation
// log — under SyncAlways a prefix covering every acked mutation — and a
// deleted fact must never resurrect. Shard counts rotate across recovery,
// and checkpoints in the schedule make some crashes land with a covering
// snapshot (tombstones resolved, replay empty) and some without.
func TestDurableMutationCrashFaultInjection(t *testing.T) {
	trial := int64(0)
	for _, policy := range []SyncPolicy{SyncAlways, SyncNone} {
		for _, shards := range durableShardCounts {
			for rep := 0; rep < 4; rep++ {
				trial++
				rng := rand.New(rand.NewSource(9100 + trial))
				dict, triples, rules, queries := randomLiveFixture(t, 7700+trial)
				base := len(triples) / 2
				l1 := 0
				if rep%2 == 0 {
					l1 = 48 // alternate reps run the tiered compaction path
				}
				fs := wal.NewMemFS()
				eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules, Options{
					Shards:          shards,
					SyncPolicy:      policy,
					WALSegmentSize:  1 << 10,
					CheckpointBytes: -1,
					HeadLimit:       16,
					L1Limit:         l1,
				})
				if err != nil {
					t.Fatal(err)
				}
				// The model starts at the bootstrap store's contents.
				var records []recOp
				for _, tr := range triples[:base] {
					records = append(records, recOp{
						s: dict.Decode(tr.S), p: dict.Decode(tr.P), o: dict.Decode(tr.O), score: tr.Score})
				}
				fs.SetBudget(int64(rng.Intn(8000)))
				acked := len(records)

				deletable := func() Triple {
					if s := survivorsOf(records); len(s) > 0 && rng.Intn(4) != 0 {
						pick := s[rng.Intn(len(s))]
						return Triple{S: dict.Encode(pick.s), P: dict.Encode(pick.p), O: dict.Encode(pick.o)}
					}
					return triples[rng.Intn(len(triples))]
				}
				// The bootstrap dict IS the fixture dict, and recovery snapshots
				// persist the full dictionary in ID order, so IDs stay stable
				// across every crash/recover cycle below.
				pos := base
				for pos < len(triples) {
					var err error
					switch op := rng.Intn(16); {
					case op == 0:
						_ = eng.Checkpoint()
					case op == 1:
						_ = eng.Compact()
					case op < 5: // delete
						tr := deletable()
						records = append(records, recOp{
							del: true, s: dict.Decode(tr.S), p: dict.Decode(tr.P), o: dict.Decode(tr.O)})
						_, err = eng.Delete(tr.S, tr.P, tr.O)
					case op < 8: // latest-wins update
						tr := deletable()
						tr.Score = float64(1 + rng.Intn(25))
						records = append(records,
							recOp{del: true, s: dict.Decode(tr.S), p: dict.Decode(tr.P), o: dict.Decode(tr.O)},
							recOp{s: dict.Decode(tr.S), p: dict.Decode(tr.P), o: dict.Decode(tr.O), score: tr.Score})
						err = eng.Update(tr)
					default:
						tr := triples[pos]
						records = append(records, recOp{
							s: dict.Decode(tr.S), p: dict.Decode(tr.P), o: dict.Decode(tr.O), score: tr.Score})
						err = eng.Insert(tr)
						pos++
					}
					if err != nil {
						break // wedged log: nothing past this point is acked
					}
					acked = len(records)
				}

				crashed := fs.Crash(func(_ string, pending int) int { return rng.Intn(pending + 1) })
				reShards := durableShardCounts[rng.Intn(len(durableShardCounts))]
				reng, err := openDurableFS(crashed, nil, rules, Options{Shards: reShards})
				if err != nil {
					t.Fatalf("trial %d (policy=%v shards=%d→%d): recovery failed: %v",
						trial, policy, shards, reShards, err)
				}
				label := fmt.Sprintf("trial %d policy=%v shards=%d→%d", trial, policy, shards, reShards)
				got := liveSequence(t, reng.Graph())
				lo := 0
				if policy == SyncAlways {
					lo = acked
				}
				matched := -1
				for l := lo; l <= len(records); l++ {
					if sameRecOps(got, survivorsOf(records[:l])) {
						matched = l
						break
					}
				}
				if matched < 0 {
					t.Fatalf("%s: recovered state matches no record prefix in [%d,%d] (got %d survivors, acked-prefix has %d)",
						label, lo, len(records), len(got), len(survivorsOf(records[:acked])))
				}
				// Answer-level oracle over the matched prefix's survivors,
				// built over the fixture dict (ID-stable, see above).
				flat := kg.NewStore(dict)
				for _, r := range survivorsOf(records[:matched]) {
					if err := flat.AddSPO(r.s, r.p, r.o, r.score); err != nil {
						t.Fatal(err)
					}
				}
				flat.Freeze()
				oracle := NewEngineWith(flat, rules, Options{Shards: 1})
				assertOracleEqual(t, label, reng, oracle, queries)
				reng.Close()
			}
		}
	}
}

// TestDurableMutationCloseReopen is the clean-shutdown face of full
// mutability: mutate through the WAL — deletes and updates included — close,
// recover at a different shard count, and get exactly the surviving facts
// back, whether or not a checkpoint covered the tombstones.
func TestDurableMutationCloseReopen(t *testing.T) {
	for _, checkpointed := range []bool{false, true} {
		dict, triples, rules, queries := randomLiveFixture(t, 3300)
		base := len(triples) * 3 / 5
		fs := wal.NewMemFS()
		eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules,
			Options{Shards: 2, SyncPolicy: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		var records []recOp
		for _, tr := range triples[:base] {
			records = append(records, recOp{
				s: dict.Decode(tr.S), p: dict.Decode(tr.P), o: dict.Decode(tr.O), score: tr.Score})
		}
		rng := rand.New(rand.NewSource(31337))
		for _, tr := range triples[base:] {
			s, p, o := dict.Decode(tr.S), dict.Decode(tr.P), dict.Decode(tr.O)
			switch rng.Intn(4) {
			case 0:
				if _, err := eng.Delete(tr.S, tr.P, tr.O); err != nil {
					t.Fatal(err)
				}
				records = append(records, recOp{del: true, s: s, p: p, o: o})
			case 1:
				up := 1 + float64(rng.Intn(30))
				if err := eng.Update(Triple{S: tr.S, P: tr.P, O: tr.O, Score: up}); err != nil {
					t.Fatal(err)
				}
				records = append(records, recOp{del: true, s: s, p: p, o: o},
					recOp{s: s, p: p, o: o, score: up})
			default:
				if err := eng.Insert(tr); err != nil {
					t.Fatal(err)
				}
				records = append(records, recOp{s: s, p: p, o: o, score: tr.Score})
			}
		}
		if checkpointed {
			if err := eng.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		reng, err := openDurableFS(fs, nil, rules, Options{Shards: 7})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("mutation close/reopen checkpointed=%v", checkpointed)
		want := survivorsOf(records)
		got := liveSequence(t, reng.Graph())
		if !sameRecOps(got, want) {
			t.Fatalf("%s: recovered %d survivors, want %d (or content diverged)", label, len(got), len(want))
		}
		flat := kg.NewStore(dict)
		for _, r := range want {
			if err := flat.AddSPO(r.s, r.p, r.o, r.score); err != nil {
				t.Fatal(err)
			}
		}
		flat.Freeze()
		oracle := NewEngineWith(flat, rules, Options{Shards: 1})
		assertOracleEqual(t, label, reng, oracle, queries)
		reng.Close()
	}
}

// TestCheckpointRefusedAfterCloseAndWedge pins the two checkpoint guards: a
// closed engine (the directory lock is released — another process may own
// it) and a wedged log (the in-memory store can be ahead of acked state)
// must both refuse to touch the manifest.
func TestCheckpointRefusedAfterCloseAndWedge(t *testing.T) {
	dict, triples, rules, _ := randomLiveFixture(t, 271)
	fs := wal.NewMemFS()
	eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, 30), rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err == nil {
		t.Fatal("checkpoint on closed engine succeeded")
	}
	if err := eng.Compact(); err == nil {
		t.Fatal("compact-checkpoint on closed engine succeeded")
	}

	// Wedge path: arm the fault, fail an insert, then demand Checkpoint
	// refuse to persist the indeterminate state.
	fs2 := wal.NewMemFS()
	eng2, err := openDurableFS(fs2, buildBaseStore(t, dict, triples, 30), rules, Options{SyncPolicy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	fs2.SetBudget(10)
	var insertErr error
	for _, tr := range triples[30:40] {
		if insertErr = eng2.Insert(tr); insertErr != nil {
			break
		}
	}
	if insertErr == nil {
		t.Fatal("budget fault never fired")
	}
	if err := eng2.Checkpoint(); err == nil {
		t.Fatal("checkpoint on wedged engine succeeded")
	}
}

// TestRecoveryReplaysLegacyUpdatePair: logs written before KindUpdate existed
// carry an update as a tombstone record followed by an insert record. Such a
// log must still recover, at every shard count, to exactly the survivors the
// one-record update recovers to — and keep the operation count in lockstep
// with the sequence numbers, so a mutation and a checkpoint after recovery
// land where they belong.
func TestRecoveryReplaysLegacyUpdatePair(t *testing.T) {
	seed := func() *Store {
		st := NewStore()
		for i, o := range []string{"singer", "guitarist", "painter"} {
			if err := st.AddSPO("bowie", "rdf:type", o, float64(90+i)); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	opts := Options{SyncPolicy: SyncAlways, CheckpointBytes: -1}
	// The current format: the engine logs the update as one record.
	cur := wal.NewMemFS()
	eng, err := openDurableFS(cur, seed(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.UpdateSPO("bowie", "rdf:type", "singer", 97); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertSPO("prince", "rdf:type", "guitarist", 99); err != nil {
		t.Fatal(err)
	}
	want := liveSequence(t, eng.Graph())
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// The legacy format: the same two mutations hand-written as three records.
	legacy := wal.NewMemFS()
	eng, err = openDurableFS(legacy, seed(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	log, _, err := wal.Open(legacy, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []wal.Record{
		{Kind: wal.KindTombstone, S: "bowie", P: "rdf:type", O: "singer"},
		{Kind: wal.KindInsert, S: "bowie", P: "rdf:type", O: "singer", Score: 97},
		{Kind: wal.KindInsert, S: "prince", P: "rdf:type", O: "guitarist", Score: 99},
	} {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	all := func(_ string, pending int) int { return pending }
	for _, shards := range durableShardCounts {
		for name, fs := range map[string]*wal.MemFS{"current": cur, "legacy": legacy} {
			label := fmt.Sprintf("%s log, shards %d", name, shards)
			dir := fs.Crash(all)
			reng, err := openDurableFS(dir, nil, nil, Options{Shards: shards, SyncPolicy: SyncAlways})
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", label, err)
			}
			if got := liveSequence(t, reng.Graph()); !sameRecOps(got, want) {
				t.Fatalf("%s: recovered %v, want %v", label, got, want)
			}
			// Past recovery the positions must still line up: one more update,
			// a clean close and a second recovery reproduce the live state.
			if err := reng.UpdateSPO("bowie", "rdf:type", "painter", 50); err != nil {
				t.Fatal(err)
			}
			live := liveSequence(t, reng.Graph())
			if err := reng.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := openDurableFS(dir, nil, nil, Options{Shards: shards})
			if err != nil {
				t.Fatalf("%s: second recovery failed: %v", label, err)
			}
			if got := liveSequence(t, again.Graph()); !sameRecOps(got, live) {
				t.Fatalf("%s: second recovery got %v, want %v", label, got, live)
			}
			again.Close()
		}
	}
}
