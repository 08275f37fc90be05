package specqp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// BatchResult pairs one query's execution result with its error, aligned by
// index with the queries passed to QueryBatch.
type BatchResult struct {
	Result Result
	Err    error
}

// QueryBatch executes queries concurrently on a bounded worker pool and
// returns one BatchResult per query, in input order. All queries run with
// the same k and mode. Concurrency is Options.BatchWorkers (GOMAXPROCS when
// unset); each query runs exactly as QueryContext would run it.
//
// Per-query failures (empty query, cancellation mid-batch) are reported in
// the corresponding BatchResult.Err; the returned error is non-nil only for
// batch-level misuse (k < 1). When ctx is cancelled, queries not yet started
// fail fast with ctx.Err() and in-flight queries return their partial top-k
// exactly like QueryContext.
func (e *Engine) QueryBatch(ctx context.Context, queries []Query, k int, mode Mode) ([]BatchResult, error) {
	return e.QueryBatchStream(ctx, queries, k, mode, nil)
}

// QueryBatchStream is QueryBatch with incremental emission: emit receives
// (query index, answer) pairs the moment each query's operators prove the
// answer final, so a consumer multiplexing many queries — the server's
// streaming /batch endpoint — can forward early answers while slower queries
// are still joining. Emissions from different queries interleave; within one
// query index they arrive in rank order. Because the pool runs queries on
// multiple goroutines, emit is called concurrently and must serialise its own
// side effects. An emit returning false stops that query early (its
// BatchResult keeps the emitted prefix) without affecting the others.
//
// A nil emit reproduces QueryBatch verbatim — the batch path is expressed on
// the streaming one, so both observe identical per-query answer sequences.
func (e *Engine) QueryBatchStream(ctx context.Context, queries []Query, k int, mode Mode, emit func(int, Answer) bool) ([]BatchResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("specqp: k must be >= 1, got %d", k)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return results, nil
	}
	workers := e.opts.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}

	jobs := make(chan int, len(queries))
	for qi := range queries {
		jobs <- qi
	}
	close(jobs)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range jobs {
				if err := ctx.Err(); err != nil {
					results[qi].Err = err
					continue
				}
				var perQuery AnswerEmitter
				if emit != nil {
					qi := qi
					perQuery = func(a Answer) bool { return emit(qi, a) }
				}
				results[qi].Result, results[qi].Err = e.run(ctx, queries[qi], k, mode, perQuery, false)
			}
		}()
	}
	wg.Wait()
	return results, nil
}
