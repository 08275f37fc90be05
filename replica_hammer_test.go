package specqp

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"specqp/internal/repl"
	"specqp/internal/wal"
)

// TestReplicaFollowerHammer races the whole replication stack under -race:
// two writers mutating the primary, a checkpointer truncating the log under
// the follower, a disconnector tearing the TCP link (every redial is a
// positional resume), the follower's Run loop tailing through all of it, and
// reader goroutines on the replica sampling the applied position — which must
// never move backwards — and running query batches against whatever state is
// live. At quiescence the replica must have caught the primary's WAL tip and
// be bit-identical to the live primary: same survivor triples, same answers
// in all four modes.
func TestReplicaFollowerHammer(t *testing.T) {
	dict, triples, rules, queries := randomLiveFixture(t, 9990)
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
	feed := eng.WALFeed()
	prim := repl.NewPrimary(feed, repl.PrimaryOptions{PollWait: -1, MaxBatchBytes: 512})
	ln := mustListen(t)
	go prim.Serve(ln)
	defer prim.Close()

	client := repl.NewNetClient(ln.Addr().String(), repl.NetClientOptions{})
	defer client.Close()
	rep := NewReplica(rules, Options{Shards: 3})
	f := repl.NewFollower(client, rep, repl.FollowerOptions{
		RetryDelay: time.Millisecond,
		IdleDelay:  time.Millisecond,
	})
	stop := make(chan struct{})
	var tail sync.WaitGroup
	tail.Add(1)
	go func() { defer tail.Done(); f.Run(stop) }()

	// Writers: mixed inserts, deletes (absent keys still consume a sequence
	// number) and updates (one position each, like every mutation), all
	// within the fixture's term set so every dictionary assigns identical IDs.
	const writers = 2
	const opsPerWriter = 120
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(9991 + int64(w)))
			randTriple := func() Triple {
				return Triple{
					S:     ID(rng.Intn(8)),
					P:     ID(8 + rng.Intn(3)),
					O:     ID(11 + rng.Intn(5)),
					Score: float64(1 + rng.Intn(25)),
				}
			}
			for i := 0; i < opsPerWriter; i++ {
				tr := randTriple()
				var err error
				switch r := rng.Intn(10); {
				case r < 6:
					err = eng.Insert(tr)
				case r < 8:
					_, err = eng.Delete(tr.S, tr.P, tr.O)
				default:
					err = eng.Update(tr)
				}
				if err != nil {
					t.Errorf("writer %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}

	// Checkpointer: forced checkpoints truncate shipped positions while the
	// follower lags, forcing snapshot-reinstall fallbacks mid-hammer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			time.Sleep(3 * time.Millisecond)
			if err := eng.Checkpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()

	// Disconnector: tears the TCP connection out from under in-flight round
	// trips; every subsequent pull redials and resumes from the follower's
	// position.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			time.Sleep(2 * time.Millisecond)
			client.Close()
		}
	}()

	// Readers: the applied position must be monotone under concurrent installs
	// and applies, and queries must either answer from a consistent engine or
	// report the replica as not yet bootstrapped — nothing in between.
	readerStop := make(chan struct{})
	var readers sync.WaitGroup
	for rdr := 0; rdr < 2; rdr++ {
		readers.Add(1)
		go func(rdr int) {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-readerStop:
					return
				default:
				}
				cur := rep.AppliedSeq()
				if cur < last {
					t.Errorf("reader %d: applied position rewound %d -> %d", rdr, last, cur)
					return
				}
				last = cur
				if _, err := rep.QueryBatchStream(context.Background(), queries[:2], 5, ModeSpecQP, nil); err != nil &&
					!errors.Is(err, ErrNotBootstrapped) {
					t.Errorf("reader %d: query batch: %v", rdr, err)
					return
				}
			}
		}(rdr)
	}

	wg.Wait()
	if t.Failed() {
		close(readerStop)
		close(stop)
		t.Fatal("writer-side goroutine failed; skipping convergence wait")
	}
	// Quiescence: writers are done, so the WAL tip is final; the follower must
	// reach it.
	target := feed.LastSeq()
	deadline := time.Now().Add(20 * time.Second)
	for rep.AppliedSeq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d, primary tip %d", rep.AppliedSeq(), target)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(readerStop)
	readers.Wait()
	close(stop)
	tail.Wait()

	assertSameTriples(t, "hammer tip state", rep.Engine().Graph(), eng.Graph())
	assertReplicaOracle(t, "hammer tip", rep, eng, queries)
}
