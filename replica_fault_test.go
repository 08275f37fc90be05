package specqp

import (
	"fmt"
	"math/rand"
	"testing"

	"specqp/internal/kg"
	"specqp/internal/repl"
	"specqp/internal/wal"
)

// This file drives the full replication stack through the network fault
// injector — the transport analogue of the WAL's crash-fault suite. The
// FaultClient drops deliveries, replays stale ones, delays and reorders them,
// truncates them mid-frame and kills the link on a byte budget; the follower
// under all of it must keep the replica's state equal to the acked-prefix
// oracle at every position it reaches, never apply a record twice (a double
// apply changes the survivor multiset — the state comparison catches it),
// never rewind, and still converge to the primary's tip, including across
// checkpoints that truncate the log underneath its lag.

// TestReplicaConvergesUnderNetworkFaults runs four seeded fault schedules
// against four shard-ladder replicas, with the primary checkpointing
// mid-stream so truncation fallbacks interleave with the injected hazards.
func TestReplicaConvergesUnderNetworkFaults(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		shards := oracleShardCounts[int(seed)%len(oracleShardCounts)]
		t.Run(fmt.Sprintf("seed=%d shards=%d", seed, shards), func(t *testing.T) {
			dict, triples, rules, queries := randomLiveFixture(t, 9700+seed)
			rng := rand.New(rand.NewSource(9800 + seed))
			base := len(triples) / 2
			fs := wal.NewMemFS()
			eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules, Options{
				Shards:          2,
				SyncPolicy:      SyncAlways,
				WALSegmentSize:  1 << 11,
				CheckpointBytes: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			prim := repl.NewPrimary(eng.WALFeed(), repl.PrimaryOptions{PollWait: -1, MaxBatchBytes: 384})
			client := repl.NewFaultClient(&repl.LocalClient{Primary: prim}, repl.FaultOptions{
				Seed:       seed,
				Drop:       0.15,
				Duplicate:  0.15,
				Delay:      0.15,
				Truncate:   0.2,
				ByteBudget: 4096,
			})
			rep := NewReplica(rules, Options{Shards: shards})
			f := repl.NewFollower(client, rep, repl.FollowerOptions{})
			bootstrapReplica(t, "fault bootstrap", f, rep, 64)

			oc := &oracleCache{t: t, dict: dict, triples: triples, base: base, rules: rules, cache: map[uint64]*Engine{}}
			var ops []replOp
			for chunk := 0; chunk < 4; chunk++ {
				ops = append(ops, randomOps(t, eng, rng, 20)...)
				oc.ops = ops
				if chunk == 1 || chunk == 2 {
					// Checkpoints truncate shipped positions while the faulty
					// link has the follower lagging: recovery must route
					// through the snapshot fallback, under the same faults.
					if err := eng.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				stepReplicaTo(t, fmt.Sprintf("seed %d chunk %d", seed, chunk), f, rep, uint64(len(ops)), oc, queries, 3000)
			}

			tip := oc.at(uint64(len(ops)))
			assertSameTriples(t, "fault tip state", rep.Engine().Graph(), tip.Graph())
			assertReplicaOracle(t, "fault tip", rep, tip, queries)

			// The schedule must actually have exercised every hazard class —
			// a converging follower under a fault injector that never fired
			// proves nothing.
			c := client.Counts()
			if c.Drops == 0 || c.Duplicates == 0 || c.Delays == 0 || c.Reorders == 0 || c.Truncations == 0 || c.Kills == 0 {
				t.Fatalf("fault schedule left a hazard unexercised: %+v", c)
			}
		})
	}
}

// TestReplicaFaultsOverTCP runs a lighter fault schedule over the real TCP
// transport: the injector wraps the NetClient, so every injected error also
// tears the TCP connection path (redial + positional resume) rather than just
// an in-process call.
func TestReplicaFaultsOverTCP(t *testing.T) {
	dict, triples, rules, queries := randomLiveFixture(t, 9900)
	rng := rand.New(rand.NewSource(9901))
	base := len(triples) / 2
	fs := wal.NewMemFS()
	eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules, Options{
		SyncPolicy:      SyncAlways,
		WALSegmentSize:  1 << 11,
		CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	prim := repl.NewPrimary(eng.WALFeed(), repl.PrimaryOptions{PollWait: -1, MaxBatchBytes: 384})
	ln := mustListen(t)
	go prim.Serve(ln)
	defer prim.Close()

	nc := repl.NewNetClient(ln.Addr().String(), repl.NetClientOptions{})
	defer nc.Close()
	client := repl.NewFaultClient(nc, repl.FaultOptions{Seed: 7, Drop: 0.1, Duplicate: 0.1, Truncate: 0.15, ByteBudget: 8192})
	rep := NewReplica(rules, Options{Shards: 3})
	f := repl.NewFollower(client, rep, repl.FollowerOptions{})
	bootstrapReplica(t, "tcp fault bootstrap", f, rep, 64)

	oc := &oracleCache{t: t, dict: dict, triples: triples, base: base, rules: rules, cache: map[uint64]*Engine{}}
	ops := randomOps(t, eng, rng, 60)
	oc.ops = ops
	stepReplicaTo(t, "tcp fault", f, rep, uint64(len(ops)), oc, queries, 3000)
	assertReplicaOracle(t, "tcp fault tip", rep, oc.at(uint64(len(ops))), queries)
}

// TestReplicaNeverAppliesTwice pins replay protection in isolation: a
// duplicate-heavy schedule (every other delivery is a replay of the previous
// one) against a duplicate-sensitive state — repeated inserts of the SAME
// triple, where one double-apply changes the survivor multiset.
func TestReplicaNeverAppliesTwice(t *testing.T) {
	dict, triples, rules, queries := randomLiveFixture(t, 9950)
	base := len(triples) / 2
	fs := wal.NewMemFS()
	eng, err := openDurableFS(fs, buildBaseStore(t, dict, triples, base), rules, Options{
		SyncPolicy: SyncAlways, WALSegmentSize: 1 << 11, CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	prim := repl.NewPrimary(eng.WALFeed(), repl.PrimaryOptions{PollWait: -1, MaxBatchBytes: 128})
	client := repl.NewFaultClient(&repl.LocalClient{Primary: prim}, repl.FaultOptions{Seed: 3, Duplicate: 0.5})
	rep := NewReplica(rules, Options{Shards: 2})
	f := repl.NewFollower(client, rep, repl.FollowerOptions{})
	bootstrapReplica(t, "dup bootstrap", f, rep, 16)

	// 30 copies of one triple: every double-applied delivery adds a copy the
	// oracle does not have.
	tr := Triple{S: 0, P: 8, O: 11, Score: 5}
	var ops []replOp
	for i := 0; i < 30; i++ {
		if err := eng.Insert(tr); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, replOp{Op: kg.OpInsert, Triple: tr})
	}
	oc := &oracleCache{t: t, dict: dict, triples: triples, base: base, ops: ops, rules: rules, cache: map[uint64]*Engine{}}
	stepReplicaTo(t, "dup", f, rep, uint64(len(ops)), oc, queries, 2000)
	assertSameTriples(t, "dup tip", rep.Engine().Graph(), oc.at(uint64(len(ops))).Graph())
	if c := client.Counts(); c.Duplicates == 0 {
		t.Fatalf("duplicate schedule never fired: %+v", c)
	}
}
