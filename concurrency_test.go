package specqp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"specqp/internal/kg"
)

// TestEngineConcurrentQueries exercises the documented guarantee that one
// Engine serves concurrent queries safely once the store is frozen: the
// match-list cache, the statistics catalog and the query-count cache are all
// hit from multiple goroutines, and every goroutine must see identical
// answers. Run with -race for the full effect.
func TestEngineConcurrentQueries(t *testing.T) {
	st := NewStore()
	for e := 0; e < 500; e++ {
		name := fmt.Sprintf("e%03d", e)
		score := 1000.0 / float64(1+e)
		if err := st.AddSPO(name, "rdf:type", fmt.Sprintf("T%d", e%7), score); err != nil {
			t.Fatal(err)
		}
		if e%3 == 0 {
			if err := st.AddSPO(name, "rdf:type", fmt.Sprintf("T%d", (e+1)%7), score*0.9); err != nil {
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
	for i := 0; i < 7; i++ {
		if err := rules.Add(Rule{From: pat(i), To: pat((i + 1) % 7), Weight: 0.5 + float64(i)/20}); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(st, rules)

	queries := []Query{
		NewQuery(pat(0), pat(1)),
		NewQuery(pat(2), pat(3)),
		NewQuery(pat(4), pat(5), pat(6)),
	}
	// Reference answers computed sequentially first.
	refs := make([][]Answer, len(queries))
	for i, q := range queries {
		res, err := eng.Query(q, 10, ModeSpecQP)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res.Answers
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				qi := (w + rep) % len(queries)
				res, err := eng.Query(queries[qi], 10, ModeSpecQP)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Answers) != len(refs[qi]) {
					errs <- fmt.Errorf("worker %d: %d answers, want %d", w, len(res.Answers), len(refs[qi]))
					return
				}
				for i := range res.Answers {
					if math.Abs(res.Answers[i].Score-refs[qi][i].Score) > 1e-9 {
						errs <- fmt.Errorf("worker %d: rank %d score %v want %v",
							w, i, res.Answers[i].Score, refs[qi][i].Score)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestShardedQueryBatchHammer is the sharded concurrency hammer: QueryBatch
// over a multi-segment engine under -race, with a query mix that hits every
// shared structure at once — recurring shapes share the statistics catalog,
// S+O-bound and repeated-variable patterns exercise each shard's residual
// single-flight cache plus the sharded store's merged-list cache, and plain
// patterns run through the per-shard merge scans and leg prefetchers. Every
// batch's answers must equal the sequential unsharded reference.
func TestShardedQueryBatchHammer(t *testing.T) {
	st := NewStore()
	for e := 0; e < 400; e++ {
		name := fmt.Sprintf("e%03d", e)
		score := 1000.0 / float64(1+e)
		if err := st.AddSPO(name, "rdf:type", fmt.Sprintf("T%d", e%7), score); err != nil {
			t.Fatal(err)
		}
		if err := st.AddSPO(name, "linksTo", fmt.Sprintf("e%03d", (e*3+1)%400), score/2); err != nil {
			t.Fatal(err)
		}
		if e%5 == 0 { // duplicate (s,p,o) keys keep the dedup paths honest
			if err := st.AddSPO(name, "rdf:type", fmt.Sprintf("T%d", e%7), score*0.7); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Freeze()
	d := st.Dict()
	ty, _ := d.Lookup("rdf:type")
	links, _ := d.Lookup("linksTo")
	typePat := func(i int) Pattern {
		id, _ := d.Lookup(fmt.Sprintf("T%d", i))
		return NewPattern(Var("s"), Const(ty), Const(id))
	}
	rules := NewRuleSet()
	for i := 0; i < 7; i++ {
		if err := rules.Add(Rule{From: typePat(i), To: typePat((i + 2) % 7), Weight: 0.4 + float64(i)/20}); err != nil {
			t.Fatal(err)
		}
	}

	var queries []Query
	for i := 0; i < 7; i++ {
		e0, _ := d.Lookup(fmt.Sprintf("e%03d", i*13))
		queries = append(queries,
			// Recurring two-pattern shape: shared catalog entries across the batch.
			NewQuery(typePat(i), typePat((i+1)%7)),
			// Join through linksTo: per-shard merge paths on both legs.
			NewQuery(typePat(i), NewPattern(Var("s"), Const(links), Var("o"))),
			// S+O bound residual shape per shard.
			NewQuery(NewPattern(Const(e0), Var("p"), Const(e0)), typePat(i)),
			// Repeated-variable residual shape.
			NewQuery(NewPattern(Var("x"), Const(links), Var("x")), typePat(i)),
		)
	}

	ref := NewEngineWith(st, rules, Options{Shards: 1})
	refAnswers := make([][]Answer, len(queries))
	for i, q := range queries {
		res, err := ref.Query(q, 10, ModeSpecQP)
		if err != nil {
			t.Fatal(err)
		}
		refAnswers[i] = res.Answers
	}

	eng := NewEngineWith(st, rules, Options{Shards: 4, BatchWorkers: 8})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				results, err := eng.QueryBatch(context.Background(), queries, 10, ModeSpecQP)
				if err != nil {
					errs <- err
					return
				}
				for qi, r := range results {
					if r.Err != nil {
						errs <- fmt.Errorf("worker %d query %d: %v", w, qi, r.Err)
						return
					}
					if len(r.Result.Answers) != len(refAnswers[qi]) {
						errs <- fmt.Errorf("worker %d query %d: %d answers, want %d",
							w, qi, len(r.Result.Answers), len(refAnswers[qi]))
						return
					}
					for i, a := range r.Result.Answers {
						want := refAnswers[qi][i]
						if a.Score != want.Score || a.Binding.Compare(want.Binding) != 0 {
							errs <- fmt.Errorf("worker %d query %d rank %d: %v, want %v", w, qi, i, a, want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLiveIngestHammer is the live-ingest concurrency hammer, built to run
// under -race: writer goroutines Insert into a sharded live engine while
// reader goroutines run QueryBatch and a compactor forces whole-store and
// single-shard merges, all at a head limit small enough that automatic
// compactions fire constantly. Asserted invariants:
//
//   - no reader ever observes a torn state: every query succeeds and every
//     answer carries a finite score within the mode's bound and bindings
//     that decode against the dictionary;
//   - Len() is monotone non-decreasing throughout;
//   - at quiescence the live store answers bit-identically to a flat store
//     rebuilt from its final contents, and every insert is accounted for.
func TestLiveIngestHammer(t *testing.T) {
	dict := kg.NewDict()
	ty := dict.Encode("rdf:type")
	links := dict.Encode("linksTo")
	var types [7]ID
	for i := range types {
		types[i] = dict.Encode(fmt.Sprintf("T%d", i))
	}
	var ents [400]ID
	for i := range ents {
		ents[i] = dict.Encode(fmt.Sprintf("e%03d", i))
	}

	ss := kg.NewShardedStore(dict, 4)
	const base = 200
	for e := 0; e < base; e++ {
		score := 1000.0 / float64(1+e)
		if err := ss.Add(Triple{S: ents[e], P: ty, O: types[e%7], Score: score}); err != nil {
			t.Fatal(err)
		}
	}
	typePat := func(i int) Pattern {
		return NewPattern(Var("s"), Const(ty), Const(types[i]))
	}
	rules := NewRuleSet()
	for i := 0; i < 7; i++ {
		if err := rules.Add(Rule{From: typePat(i), To: typePat((i + 1) % 7), Weight: 0.5 + float64(i)/20}); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngineOver(ss, rules, Options{HeadLimit: 32, BatchWorkers: 4})

	var queries []Query
	for i := 0; i < 5; i++ {
		queries = append(queries,
			NewQuery(typePat(i), typePat((i+2)%7)),
			NewQuery(typePat(i), NewPattern(Var("s"), Const(links), Var("o"))),
		)
	}

	const writers = 3
	const perWriter = 250
	var writersDone sync.WaitGroup
	var running atomic.Bool
	running.Store(true)
	errs := make(chan error, 64)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	for w := 0; w < writers; w++ {
		writersDone.Add(1)
		go func(w int) {
			defer writersDone.Done()
			for i := 0; i < perWriter; i++ {
				n := w*perWriter + i
				tr := Triple{
					S:     ents[n%len(ents)],
					P:     links,
					O:     ents[(n*7+3)%len(ents)],
					Score: float64(1 + n%97),
				}
				if n%5 == 0 {
					tr.P, tr.O = ty, types[n%7]
				}
				if err := eng.Insert(tr); err != nil {
					fail("writer %d insert %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}

	// Compactor: alternate whole-store and single-shard merges while the
	// writers run.
	compactorDone := make(chan struct{})
	go func() {
		defer close(compactorDone)
		for i := 0; running.Load(); i++ {
			if i%2 == 0 {
				eng.Compact()
			} else {
				ss.CompactShard(i % ss.NumShards())
			}
		}
	}()

	// Monotone-Len observer.
	lenDone := make(chan struct{})
	go func() {
		defer close(lenDone)
		last := 0
		for running.Load() {
			l := eng.Graph().Len()
			if l < last {
				fail("Len went backwards: %d after %d", l, last)
				return
			}
			last = l
		}
	}()

	// Readers: QueryBatch under mutation; answers must be well-formed even
	// though their exact contents race the inserts.
	var readersDone sync.WaitGroup
	for r := 0; r < 3; r++ {
		readersDone.Add(1)
		go func(r int) {
			defer readersDone.Done()
			for rep := 0; running.Load(); rep++ {
				results, err := eng.QueryBatch(context.Background(), queries, 5, ModeSpecQP)
				if err != nil {
					fail("reader %d: %v", r, err)
					return
				}
				for qi, res := range results {
					if res.Err != nil {
						fail("reader %d query %d: %v", r, qi, res.Err)
						return
					}
					bound := float64(len(queries[qi].Patterns)) + 1e-9
					for _, a := range res.Result.Answers {
						if math.IsNaN(a.Score) || a.Score < 0 || a.Score > bound {
							fail("reader %d query %d: torn score %v (bound %v)", r, qi, a.Score, bound)
							return
						}
						for _, id := range a.Binding {
							if id != kg.NoID && int(id) >= dict.Len() {
								fail("reader %d query %d: binding id %d beyond dictionary", r, qi, id)
								return
							}
						}
					}
				}
			}
		}(r)
	}

	writersDone.Wait()
	running.Store(false)
	readersDone.Wait()
	<-compactorDone
	<-lenDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent verification: every insert landed, compactions happened, and
	// the final live store is bit-identical to a flat rebuild of its
	// contents.
	if got, want := eng.Graph().Len(), base+writers*perWriter; got != want {
		t.Fatalf("final store has %d triples, want %d", got, want)
	}
	live := eng.Graph().(LiveGraph)
	if live.Compactions() == 0 {
		t.Fatal("hammer finished without a single compaction")
	}
	eng.Compact()
	if live.HeadLen() != 0 {
		t.Fatalf("head holds %d triples after final Compact", live.HeadLen())
	}
	flat := kg.NewStore(dict)
	for i := 0; i < eng.Graph().Len(); i++ {
		if err := flat.Add(eng.Graph().Triple(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	flat.Freeze()
	ref := NewEngineWith(flat, rules, Options{Shards: 1})
	for qi, q := range queries {
		want, err := ref.Query(q, 10, ModeSpecQP)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Query(q, 10, ModeSpecQP)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Answers) != len(want.Answers) {
			t.Fatalf("query %d: %d answers, flat rebuild %d", qi, len(got.Answers), len(want.Answers))
		}
		for i := range got.Answers {
			g, w := got.Answers[i], want.Answers[i]
			if g.Score != w.Score || g.Binding.Compare(w.Binding) != 0 || g.Relaxed != w.Relaxed {
				t.Fatalf("query %d rank %d: %v, flat rebuild %v", qi, i, g, w)
			}
		}
	}
}

// TestEngineConcurrentMixedModes runs every engine mode concurrently against
// one store to exercise shared caches under mixed read patterns.
func TestEngineConcurrentMixedModes(t *testing.T) {
	eng, q := engineFixture(t)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mode := []Mode{ModeSpecQP, ModeTriniT, ModeExact}[w%3]
			if _, err := eng.Query(q, 3, mode); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
