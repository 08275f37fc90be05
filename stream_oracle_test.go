package specqp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"specqp/internal/kg"
)

// This file is the streaming contract: QueryStream must emit exactly the
// buffered answer sequence — same order, bit-equal scores and masks — one
// answer at a time as the rank join proves each final, across every mode and
// shard count, with or without a client that stops mid-stream, and under
// concurrent ingest. "Streaming" that buffers and replays would pass the
// equality half of this file but is caught by the operator-level pull-count
// test (internal/operators); together they pin incremental emission end to
// end.

var streamOracleModes = []Mode{ModeSpecQP, ModeTriniT, ModeNaive, ModeExact}

// TestStreamingPrefixOracle: for randomized stores, every shard count and
// every mode, the streamed emission sequence equals the buffered Query
// answers element for element (exact float equality), the returned Result is
// itself bit-identical, and an emitter that stops after j answers receives
// exactly the length-j prefix.
func TestStreamingPrefixOracle(t *testing.T) {
	ctx := context.Background()
	for trial := int64(0); trial < 3; trial++ {
		st, rules, queries := randomEngineFixture(t, 7400+trial)
		for _, shards := range oracleShardCounts {
			eng := NewEngineWith(st, rules, Options{Shards: shards, NaiveLimit: 3})
			for qi, q := range queries {
				k := 2 + (qi+int(trial))%8
				for _, mode := range streamOracleModes {
					label := fmt.Sprintf("trial %d shards=%d query %d mode %v k=%d", trial, shards, qi, mode, k)
					want, err := eng.Query(q, k, mode)
					if err != nil {
						t.Fatal(err)
					}

					var streamed []Answer
					res, err := eng.QueryStream(ctx, q, k, mode, func(a Answer) bool {
						streamed = append(streamed, a)
						return true
					})
					if err != nil {
						t.Fatalf("%s: QueryStream: %v", label, err)
					}
					sameAnswers(t, label+" (emitted)", streamed, want.Answers)
					sameAnswers(t, label+" (result)", res.Answers, want.Answers)

					// Early-stop: a client that walks away after j answers got
					// exactly the proven prefix, the call still succeeds, and
					// the returned Result holds that prefix and nothing more.
					for _, j := range []int{1, len(want.Answers) / 2} {
						if j < 1 || j >= len(want.Answers) {
							continue
						}
						var prefix []Answer
						stopped, err := eng.QueryStream(ctx, q, k, mode, func(a Answer) bool {
							prefix = append(prefix, a)
							return len(prefix) < j
						})
						if err != nil {
							t.Fatalf("%s: early-stop QueryStream: %v", label, err)
						}
						sameAnswers(t, fmt.Sprintf("%s prefix j=%d", label, j), prefix, want.Answers[:j])
						sameAnswers(t, fmt.Sprintf("%s prefix j=%d (result)", label, j), stopped.Answers, want.Answers[:j])
					}
				}
			}
		}
	}
}

// TestStreamingBatchOracle: QueryBatchStream's per-query emissions, demuxed
// by index, equal each query's buffered answers, even though workers emit
// concurrently.
func TestStreamingBatchOracle(t *testing.T) {
	ctx := context.Background()
	st, rules, queries := randomEngineFixture(t, 9100)
	for _, shards := range []int{1, 3} {
		eng := NewEngineWith(st, rules, Options{Shards: shards, BatchWorkers: 3})
		const k = 6
		for _, mode := range streamOracleModes {
			var mu sync.Mutex
			perQuery := make([][]Answer, len(queries))
			results, err := eng.QueryBatchStream(ctx, queries, k, mode, func(i int, a Answer) bool {
				mu.Lock()
				perQuery[i] = append(perQuery[i], a)
				mu.Unlock()
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				want, err := eng.Query(q, k, mode)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("shards=%d mode %v batch query %d", shards, mode, qi)
				sameAnswers(t, label+" (emitted)", perQuery[qi], want.Answers)
				if results[qi].Err != nil {
					t.Fatalf("%s: %v", label, results[qi].Err)
				}
				sameAnswers(t, label+" (result)", results[qi].Result.Answers, want.Answers)
			}
		}
	}
}

// TestStreamingUnderIngestHammer runs streamed-vs-buffered equality against
// pinned snapshots while a writer ingests concurrently (run under -race).
// Each reader iteration pins the live graph once and builds an engine over
// the pinned snapshot, so both executions see the same version and must be
// bit-identical regardless of what the writer does meanwhile.
func TestStreamingUnderIngestHammer(t *testing.T) {
	dict, triples, rules, queries := randomLiveFixture(t, 5151)
	base := len(triples) / 2
	probes := queries[:3]
	const k = 7

	ss := kg.NewShardedStore(dict, 3)
	for _, tr := range triples[:base] {
		if err := ss.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngineOver(ss, rules, Options{})

	ctx := context.Background()
	done := make(chan struct{})
	var checks int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := probes[(r+i)%len(probes)]
				mode := streamOracleModes[(r+i)%len(streamOracleModes)]
				snap := NewEngineOver(eng.Graph().Pin(), rules, Options{})
				want, err := snap.Query(q, k, mode)
				if err != nil {
					t.Error(err)
					return
				}
				var streamed []Answer
				if _, err := snap.QueryStream(ctx, q, k, mode, func(a Answer) bool {
					streamed = append(streamed, a)
					return true
				}); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				sameAnswers(t, fmt.Sprintf("hammer r=%d i=%d mode %v", r, i, mode), streamed, want.Answers)
				checks++
				mu.Unlock()
			}
		}(r)
	}
	for i, tr := range triples[base:] {
		if err := eng.Insert(tr); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			runtime.Gosched()
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		mu.Lock()
		n := checks
		mu.Unlock()
		if n >= 20 || time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if checks == 0 {
		t.Fatal("no streamed-vs-buffered checks ran under ingest")
	}
}
