package specqp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// batchFixture builds an engine plus a workload of shape-recurring queries,
// the template-generated workload QueryBatch serves.
func batchFixture(t *testing.T) (*Engine, []Query) {
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
	eng := NewEngine(st, rules)
	var queries []Query
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < 6; i++ {
			queries = append(queries, NewQuery(pat(i), pat((i+2)%6)))
		}
	}
	return eng, queries
}

func TestQueryBatchMatchesSequential(t *testing.T) {
	eng, queries := batchFixture(t)
	for _, mode := range []Mode{ModeSpecQP, ModeTriniT, ModeNaive} {
		results, err := eng.QueryBatch(context.Background(), queries, 5, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(queries) {
			t.Fatalf("%v: %d results for %d queries", mode, len(results), len(queries))
		}
		for qi, r := range results {
			if r.Err != nil {
				t.Fatalf("%v query %d: %v", mode, qi, r.Err)
			}
			ref, err := eng.Query(queries[qi], 5, mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Result.Answers) != len(ref.Answers) {
				t.Fatalf("%v query %d: %d answers, sequential got %d",
					mode, qi, len(r.Result.Answers), len(ref.Answers))
			}
			for i := range ref.Answers {
				if math.Abs(r.Result.Answers[i].Score-ref.Answers[i].Score) > 1e-9 {
					t.Fatalf("%v query %d rank %d: batch %v sequential %v",
						mode, qi, i, r.Result.Answers[i].Score, ref.Answers[i].Score)
				}
			}
		}
	}
}

func TestQueryBatchPerQueryErrors(t *testing.T) {
	eng, queries := batchFixture(t)
	mixed := []Query{queries[0], {}, queries[1]}
	results, err := eng.QueryBatch(context.Background(), mixed, 5, ModeSpecQP)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("valid queries failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("empty query did not report an error")
	}
	if _, err := eng.QueryBatch(context.Background(), queries, 0, ModeSpecQP); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestQueryBatchCancelled(t *testing.T) {
	eng, queries := batchFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := eng.QueryBatch(ctx, queries, 5, ModeSpecQP)
	if err != nil {
		t.Fatal(err)
	}
	for qi, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("query %d: err %v, want context.Canceled", qi, r.Err)
		}
	}
}

// TestQueryBatchHammer is the -race workhorse from the issue: many
// goroutines issue overlapping QueryBatch calls while others hammer
// residual-cache misses (S+O-bound patterns) on the same cold store, so the
// sharded single-flight cache, the statistics catalog, and the batch pool
// are all exercised together.
func TestQueryBatchHammer(t *testing.T) {
	eng, queries := batchFixture(t)
	st := eng.Store()
	d := st.Dict()

	refs, err := eng.QueryBatch(context.Background(), queries, 5, ModeSpecQP)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results, err := eng.QueryBatch(context.Background(), queries, 5, ModeSpecQP)
			if err != nil {
				errs <- err
				return
			}
			for qi, r := range results {
				if r.Err != nil {
					errs <- r.Err
					return
				}
				if len(r.Result.Answers) != len(refs[qi].Result.Answers) {
					errs <- fmt.Errorf("worker %d query %d: %d answers want %d",
						w, qi, len(r.Result.Answers), len(refs[qi].Result.Answers))
					return
				}
			}
		}(w)
	}
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 40; rep++ {
				s, _ := d.Lookup(fmt.Sprintf("e%03d", (w*17+rep)%300))
				o, _ := d.Lookup(fmt.Sprintf("T%d", rep%6))
				st.MatchList(NewPattern(Const(s), Var("p"), Const(o)))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
