package specqp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"specqp/internal/kg"
	"specqp/internal/repl"
	"specqp/internal/wal"
)

// This file is the cross-process oracle for WAL log shipping: a follower —
// at ANY shard count — must answer bit-identically to a flat engine rebuilt
// from the primary's acked mutation prefix at every WAL position the shipping
// protocol lets it observe. It is the replication analogue of
// TestShardedEnginesBitIdentical (shard ladder) and the durable recovery
// oracle (acked-prefix discipline): bootstrap arrives as the checkpoint
// snapshot (the restart rule — base triples exist in no record), tails arrive
// as record batches, and a checkpoint racing a lagging follower must surface
// as a snapshot reinstall, never as a gap.

// replOp is one WAL-position-level mutation: an insert, a tombstone or an
// update. Every engine-level mutation logs as exactly one record, so ops[i]
// is the record at WAL sequence i+1 and an oracle at position n is
// base + ops[:n].
type replOp = kg.Mutation

// randomOps drives nOps WAL positions of mixed mutations through the primary
// engine and returns the op-level log. Terms stay inside the fixture's 16, so
// every dictionary in the test (fixture, snapshots, replicas, oracles)
// assigns identical IDs and answers compare at the raw Binding level.
func randomOps(t *testing.T, eng *Engine, rng *rand.Rand, nOps int) []replOp {
	t.Helper()
	randTriple := func() Triple {
		return Triple{
			S:     ID(rng.Intn(8)),
			P:     ID(8 + rng.Intn(3)),
			O:     ID(11 + rng.Intn(5)),
			Score: float64(1 + rng.Intn(25)),
		}
	}
	var ops []replOp
	for len(ops) < nOps {
		op := replOp{Op: kg.OpUpdate}
		switch r := rng.Intn(10); {
		case r < 6 || len(ops) == 0:
			op.Op = kg.OpInsert
		case r < 8:
			// Delete a random key — sometimes absent, which still consumes a
			// sequence number (the durable layer logs no-op deletes too).
			op.Op = kg.OpDelete
		}
		op.Triple = randTriple()
		if op.Op == kg.OpDelete {
			op.Triple.Score = 0
		}
		if _, err := eng.mutate(op); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	return ops
}

// opsOracle is the acked-prefix reference engine at WAL position n: the base
// triples frozen flat, then ops[:n] applied live — the exact state a crashed
// primary would recover at that position.
func opsOracle(t *testing.T, dict *kg.Dict, triples []Triple, base int, ops []replOp, n int, rules *RuleSet) *Engine {
	t.Helper()
	st := buildBaseStore(t, dict, triples, base)
	st.Freeze()
	eng := NewEngineWith(st, rules, Options{Shards: 1})
	for _, op := range ops[:n] {
		if _, err := eng.mutate(op); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// oracleCache memoises opsOracle by position — every follower in a shard
// ladder observes roughly the same delivery boundaries.
type oracleCache struct {
	t       *testing.T
	dict    *kg.Dict
	triples []Triple
	base    int
	ops     []replOp
	rules   *RuleSet
	cache   map[uint64]*Engine
}

func (c *oracleCache) at(pos uint64) *Engine {
	if eng, ok := c.cache[pos]; ok {
		return eng
	}
	eng := opsOracle(c.t, c.dict, c.triples, c.base, c.ops, int(pos), c.rules)
	c.cache[pos] = eng
	return eng
}

// decTriple is a decoded survivor triple for state-level comparison.
type decTriple struct {
	S, P, O string
	Score   float64
}

// survivorTriples enumerates a graph's LIVE triples, decoded, in canonical
// insertion order, by round-tripping through the snapshot format — the same
// enumeration checkpoints ship. This matters because Graph.Len()/Triple(i) on
// a live graph still count tombstone-masked dead copies until compaction: a
// snapshot-installed replica (survivors only) and a replay-built oracle
// (masked deads retained) must compare equal at the survivor level, which is
// the state the queries actually see.
func survivorTriples(t *testing.T, g Graph) []decTriple {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := kg.WriteGraphSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	st, err := kg.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := st.Dict()
	out := make([]decTriple, st.Len())
	for i := range out {
		tr := st.Triple(int32(i))
		out[i] = decTriple{S: d.Decode(tr.S), P: d.Decode(tr.P), O: d.Decode(tr.O), Score: tr.Score}
	}
	return out
}

// assertSameTriples compares two graphs' surviving triples, decoded, in
// canonical order — the state-identity half of the oracle, independent of
// query execution.
func assertSameTriples(t *testing.T, label string, g, og Graph) {
	t.Helper()
	a, b := survivorTriples(t, g), survivorTriples(t, og)
	if len(a) != len(b) {
		t.Fatalf("%s: %d live triples, oracle has %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: live triple %d = %v, oracle has %v", label, i, a[i], b[i])
		}
	}
}

// assertReplicaOracle compares a replica's answers against the oracle engine
// under every mode and the naive reference — exact float equality, raw
// bindings, relaxation provenance included (sameAnswers).
func assertReplicaOracle(t *testing.T, label string, rep *Replica, oracle *Engine, queries []Query) {
	t.Helper()
	eng := rep.Engine()
	if eng == nil {
		t.Fatalf("%s: replica not bootstrapped", label)
	}
	for qi, q := range queries[:3] {
		for _, mode := range []Mode{ModeSpecQP, ModeTriniT, ModeExact} {
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

// mustListen binds a loopback TCP listener for wire-level tests.
func mustListen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// bootstrapReplica steps a follower until the first snapshot installs — the
// only way a blank replica can acquire state.
func bootstrapReplica(t *testing.T, label string, f *repl.Follower, rep *Replica, maxSteps int) {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		if rep.Engine() != nil {
			return
		}
		if _, err := f.Step(); err != nil && !errors.Is(err, repl.ErrInjected) && !errors.Is(err, repl.ErrCorrupt) {
			t.Fatalf("%s: bootstrap step: %v", label, err)
		}
	}
	t.Fatalf("%s: replica never bootstrapped after %d steps", label, maxSteps)
}

// stepReplicaTo steps a follower until the replica reaches at least target,
// tolerating injected faults and corrupt (torn) deliveries — both are
// retryable by contract. After every progressing step the replica's state is
// compared against the oracle at its newly observed position: that is the
// "bit-identical at every observed lag position" half of the acceptance.
func stepReplicaTo(t *testing.T, label string, f *repl.Follower, rep *Replica, target uint64, oc *oracleCache, queries []Query, maxSteps int) {
	t.Helper()
	prev := rep.AppliedSeq()
	for i := 0; i < maxSteps; i++ {
		if rep.AppliedSeq() >= target {
			return
		}
		progressed, err := f.Step()
		if err != nil && !errors.Is(err, repl.ErrInjected) && !errors.Is(err, repl.ErrCorrupt) {
			t.Fatalf("%s: step: %v", label, err)
		}
		pos := rep.AppliedSeq()
		if pos < prev {
			t.Fatalf("%s: applied position rewound %d -> %d", label, prev, pos)
		}
		if progressed && pos != prev {
			oracle := oc.at(pos)
			assertSameTriples(t, fmt.Sprintf("%s pos %d", label, pos), rep.Engine().Graph(), oracle.Graph())
			if queries != nil {
				assertReplicaOracle(t, fmt.Sprintf("%s pos %d", label, pos), rep, oracle, queries)
			}
			prev = pos
		}
	}
	t.Fatalf("%s: follower stuck at %d, want %d after %d steps", label, rep.AppliedSeq(), target, maxSteps)
}

// TestReplicaBitIdenticalAcrossShardLadder is the headline oracle: one
// primary (itself sharded), five followers across the shard ladder, mixed
// inserts/deletes/updates shipped in chunks with a mid-stream checkpoint
// truncating the log, and a late-joining laggard that must recover through
// the snapshot fallback. Every follower is compared against the acked-prefix
// oracle at every position it observes, under all four modes.
func TestReplicaBitIdenticalAcrossShardLadder(t *testing.T) {
	for trial := int64(0); trial < 2; trial++ {
		dict, triples, rules, queries := randomLiveFixture(t, 9100+trial)
		rng := rand.New(rand.NewSource(9200 + trial))
		base := len(triples) / 2
		fs := wal.NewMemFS()
		eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules, Options{
			Shards:          2,
			SyncPolicy:      SyncAlways,
			WALSegmentSize:  1 << 11,
			CheckpointBytes: -1, // manual checkpoints only: the test owns truncation timing
		})
		if err != nil {
			t.Fatal(err)
		}
		prim := repl.NewPrimary(eng.WALFeed(), repl.PrimaryOptions{PollWait: -1, MaxBatchBytes: 512})

		type fol struct {
			rep *Replica
			f   *repl.Follower
		}
		followers := make(map[int]*fol, len(oracleShardCounts))
		oc := &oracleCache{t: t, dict: dict, triples: triples, base: base, rules: rules, cache: map[uint64]*Engine{}}
		for _, shards := range oracleShardCounts {
			rep := NewReplica(rules, Options{Shards: shards})
			followers[shards] = &fol{rep: rep, f: repl.NewFollower(&repl.LocalClient{Primary: prim}, rep, repl.FollowerOptions{})}
			// Bootstrap from the opening checkpoint: position 0.
			bootstrapReplica(t, fmt.Sprintf("trial %d shards %d", trial, shards), followers[shards].f, rep, 4)
			assertReplicaOracle(t, fmt.Sprintf("trial %d shards %d pos 0", trial, shards), rep, oc.at(0), queries)
		}

		// The laggard: bootstrapped at position 0, then left unstepped until
		// after the mid-stream checkpoint truncates position 0 away.
		laggard := &fol{rep: NewReplica(rules, Options{Shards: 7})}
		laggard.f = repl.NewFollower(&repl.LocalClient{Primary: prim}, laggard.rep, repl.FollowerOptions{})
		bootstrapReplica(t, "laggard", laggard.f, laggard.rep, 4)

		const chunks, perChunk = 5, 24
		var ops []replOp
		for chunk := 0; chunk < chunks; chunk++ {
			ops = append(ops, randomOps(t, eng, rng, perChunk)...)
			oc.ops = ops
			target := uint64(len(ops))
			if chunk == 2 {
				// Mid-stream checkpoint: truncates every shipped position so
				// far. Caught-up followers keep tailing; the laggard's next
				// pull must fall back to this snapshot.
				if err := eng.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			for _, shards := range oracleShardCounts {
				stepReplicaTo(t, fmt.Sprintf("trial %d shards %d chunk %d", trial, shards, chunk),
					followers[shards].f, followers[shards].rep, target, oc, queries, 200)
			}
		}

		// The laggard wakes up at position 0 with positions 1..48 truncated:
		// its recovery MUST route through the snapshot fallback and still land
		// bit-identical at the tip.
		before := laggard.rep.AppliedSeq()
		stepReplicaTo(t, "laggard catch-up", laggard.f, laggard.rep, uint64(len(ops)), oc, queries, 400)
		if before != 0 {
			t.Fatalf("laggard moved before the catch-up phase: %d", before)
		}

		// Final: every follower at the tip, full four-mode comparison, and the
		// primary itself agrees with its own acked-prefix oracle.
		tip := oc.at(uint64(len(ops)))
		assertSameTriples(t, "primary tip", eng.Graph(), tip.Graph())
		for _, shards := range oracleShardCounts {
			assertReplicaOracle(t, fmt.Sprintf("trial %d shards %d tip", trial, shards), followers[shards].rep, tip, queries)
		}
		assertReplicaOracle(t, "laggard tip", laggard.rep, tip, queries)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaOverTCPMatchesOracle runs the same oracle through the real
// network client against a live TCP primary — the cross-process wire path —
// including a forced disconnect mid-stream (resume via positional pull).
func TestReplicaOverTCPMatchesOracle(t *testing.T) {
	dict, triples, rules, queries := randomLiveFixture(t, 9500)
	rng := rand.New(rand.NewSource(9501))
	base := len(triples) / 2
	fs := wal.NewMemFS()
	eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules, Options{
		Shards:          1,
		SyncPolicy:      SyncAlways,
		WALSegmentSize:  1 << 11,
		CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	prim := repl.NewPrimary(eng.WALFeed(), repl.PrimaryOptions{PollWait: -1, MaxBatchBytes: 512})
	ln := mustListen(t)
	go prim.Serve(ln)
	defer prim.Close()

	client := repl.NewNetClient(ln.Addr().String(), repl.NetClientOptions{})
	defer client.Close()
	rep := NewReplica(rules, Options{Shards: 3})
	f := repl.NewFollower(client, rep, repl.FollowerOptions{})
	oc := &oracleCache{t: t, dict: dict, triples: triples, base: base, rules: rules, cache: map[uint64]*Engine{}}
	bootstrapReplica(t, "tcp", f, rep, 4)
	assertReplicaOracle(t, "tcp pos 0", rep, oc.at(0), queries)

	ops := randomOps(t, eng, rng, 40)
	oc.ops = ops
	stepReplicaTo(t, "tcp first half", f, rep, uint64(len(ops)), oc, queries, 200)

	// Disconnect; the next pull redials and resumes from the applied position.
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	ops = append(ops, randomOps(t, eng, rng, 40)...)
	oc.ops = ops
	stepReplicaTo(t, "tcp after reconnect", f, rep, uint64(len(ops)), oc, queries, 200)
	assertReplicaOracle(t, "tcp tip", rep, oc.at(uint64(len(ops))), queries)
}

// TestReplicaSeesUpdateAtomically: a primary's Update promises that no reader
// observes the key absent or doubled, and the promise must survive shipping.
// The records an Update leaves in the log are pulled through the feed and
// applied one at a time; after every apply the follower — flat and sharded —
// must show exactly one live copy of the key, and after the last one it must
// carry the new score.
func TestReplicaSeesUpdateAtomically(t *testing.T) {
	for _, shards := range []int{1, 3} {
		base := NewStore()
		for _, o := range []string{"singer", "guitarist", "painter"} {
			if err := base.AddSPO("bowie", "rdf:type", o, 90); err != nil {
				t.Fatal(err)
			}
		}
		eng, err := openDurableFS(wal.NewMemFS(), base, nil, Options{SyncPolicy: SyncAlways, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		feed := eng.WALFeed()
		rep := NewReplica(nil, Options{Shards: shards})
		rc, seq, err := feed.OpenSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.InstallSnapshot(seq, rc); err != nil {
			t.Fatal(err)
		}
		rc.Close()

		if err := eng.UpdateSPO("bowie", "rdf:type", "singer", 97); err != nil {
			t.Fatal(err)
		}
		recs, err := feed.ReadAfter(rep.AppliedSeq(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatalf("shards %d: the update shipped no records", shards)
		}
		var key Pattern
		for i, rec := range recs {
			if err := rep.Apply(rec); err != nil {
				t.Fatal(err)
			}
			g := rep.Engine().Graph()
			d := g.Dict()
			s, _ := d.Lookup("bowie")
			p, _ := d.Lookup("rdf:type")
			o, _ := d.Lookup("singer")
			key = Pattern{S: kg.Const(s), P: kg.Const(p), O: kg.Const(o)}
			if n := g.Cardinality(key); n != 1 {
				t.Fatalf("shards %d: after shipped record %d of %d (kind %d) the follower sees %d copies of the updated key, want 1",
					shards, i+1, len(recs), rec.Kind, n)
			}
		}
		if got := rep.Engine().Graph().MaxScore(key); got != 97 {
			t.Fatalf("shards %d: follower holds score %v after the update, want 97", shards, got)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
