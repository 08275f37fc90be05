package specqp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// expiringCtx is a context whose Err flips to DeadlineExceeded after a fixed
// number of polls — a deterministic model of a deadline expiring mid-batch.
// The batch workers poll Err before each query and the operators poll it
// every AbortStride pulls, so the early queries in a one-worker batch
// complete and the later ones expire, with no wall-clock dependence.
type expiringCtx struct {
	context.Context
	polls atomic.Int64
	allow int64
}

func (e *expiringCtx) Err() error {
	if e.polls.Add(1) > e.allow {
		return context.DeadlineExceeded
	}
	return nil
}

func (e *expiringCtx) Deadline() (time.Time, bool) { return time.Time{}, true }

// deadlineFixture builds a shape-recurring workload over an engine with the
// given shard count and a single batch worker (so completion order is the
// input order and "mid-batch" is well defined).
func deadlineFixture(t *testing.T, shards int) (*Engine, []Query) {
	t.Helper()
	st := NewStore()
	for e := 0; e < 300; e++ {
		name := fmt.Sprintf("e%03d", e)
		score := 500.0 / float64(1+e)
		if err := st.AddSPO(name, "rdf:type", fmt.Sprintf("T%d", e%6), score); err != nil {
			t.Fatal(err)
		}
		if e%2 == 0 {
			if err := st.AddSPO(name, "rdf:type", fmt.Sprintf("T%d", (e+1)%6), score*0.8); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Freeze()
	d := st.Dict()
	ty, _ := d.Lookup("rdf:type")
	pat := func(i int) Pattern {
		id, _ := d.Lookup(fmt.Sprintf("T%d", i))
		return NewPattern(Var("s"), Const(ty), Const(id))
	}
	rules := NewRuleSet()
	for i := 0; i < 6; i++ {
		if err := rules.Add(Rule{From: pat(i), To: pat((i + 1) % 6), Weight: 0.6}); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngineWith(st, rules, Options{Shards: shards, BatchWorkers: 1})
	var queries []Query
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < 6; i++ {
			queries = append(queries, NewQuery(pat(i), pat((i+2)%6)))
		}
	}
	return eng, queries
}

// TestQueryBatchDeadlineMidBatch pins QueryBatch's behavior when the
// deadline expires partway through: queries that completed before the expiry
// return their full results (bit-identical to an unpressured run), queries
// after it report context.DeadlineExceeded, and nothing hangs or panics —
// across flat and sharded layouts and all modes.
func TestQueryBatchDeadlineMidBatch(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, mode := range []Mode{ModeSpecQP, ModeTriniT, ModeExact} {
			t.Run(fmt.Sprintf("shards=%d/mode=%v", shards, mode), func(t *testing.T) {
				eng, queries := deadlineFixture(t, shards)
				oracle, err := eng.QueryBatch(context.Background(), queries, 5, mode)
				if err != nil {
					t.Fatal(err)
				}

				// Allow a modest number of polls: enough for the first queries
				// to finish, far too few for the whole batch (each of the 24
				// queries costs at least one pre-query poll, whatever the mode).
				ctx := &expiringCtx{Context: context.Background(), allow: 12}
				results, err := eng.QueryBatch(ctx, queries, 5, mode)
				if err != nil {
					t.Fatal(err)
				}
				if len(results) != len(queries) {
					t.Fatalf("results: %d for %d queries", len(results), len(queries))
				}

				completed, expired := 0, 0
				for qi, r := range results {
					switch {
					case r.Err == nil:
						completed++
						ref := oracle[qi]
						if len(r.Result.Answers) != len(ref.Result.Answers) {
							t.Fatalf("query %d: %d answers, unpressured run got %d",
								qi, len(r.Result.Answers), len(ref.Result.Answers))
						}
						for i := range ref.Result.Answers {
							if math.Abs(r.Result.Answers[i].Score-ref.Result.Answers[i].Score) > 1e-9 {
								t.Fatalf("query %d rank %d: %v vs %v", qi, i,
									r.Result.Answers[i].Score, ref.Result.Answers[i].Score)
							}
						}
					case errors.Is(r.Err, context.DeadlineExceeded):
						expired++
					default:
						t.Fatalf("query %d: unexpected error %v", qi, r.Err)
					}
				}
				if completed == 0 {
					t.Fatal("no query completed before the deadline")
				}
				if expired == 0 {
					t.Fatal("no query expired — deadline never bit mid-batch")
				}
			})
		}
	}
}

// TestQueryBatchDeadlineAlreadyExpired: a batch submitted past its deadline
// fails every query fast with DeadlineExceeded and touches no engine state.
func TestQueryBatchDeadlineAlreadyExpired(t *testing.T) {
	for _, shards := range []int{1, 3} {
		eng, queries := deadlineFixture(t, shards)
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		results, err := eng.QueryBatch(ctx, queries, 5, ModeSpecQP)
		if err != nil {
			t.Fatal(err)
		}
		for qi, r := range results {
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Fatalf("shards=%d query %d: err = %v", shards, qi, r.Err)
			}
			if len(r.Result.Answers) != 0 {
				t.Fatalf("shards=%d query %d: expired query produced answers", shards, qi)
			}
		}
	}
}
