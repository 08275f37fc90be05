package specqp

// This file times the paper's evaluation (Section 4) and the design-choice
// ablations. Run everything with
//
//	go test -bench=. -benchmem
//
// Naming maps directly onto the paper:
//
//	BenchmarkFigure6   — XKG runtime/memory by #TP              (Figure 6)
//	BenchmarkFigure7   — XKG runtime/memory by #TP relaxed      (Figure 7)
//	BenchmarkFigure8   — Twitter runtime/memory by #TP          (Figure 8)
//	BenchmarkFigure9   — Twitter runtime/memory by #TP relaxed  (Figure 9)
//	BenchmarkAblation* — histogram resolution, selectivity source, rank join
//
// Memory objects and precision are attached with b.ReportMetric. Benchmarks
// use a reduced-scale dataset for tolerable runtimes. The paper's exact
// numbers (Tables 2–4, the figures' memory columns) at full scale are pinned
// by TestPaperTables in internal/harness, not measured here.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"specqp/internal/datagen"
	"specqp/internal/exec"
	"specqp/internal/harness"
	"specqp/internal/kg"
	"specqp/internal/metrics"
	"specqp/internal/operators"
	"specqp/internal/planner"
	"specqp/internal/stats"
)

var (
	benchOnce    sync.Once
	benchXKGDS   *datagen.Dataset
	benchTwDS    *datagen.Dataset
	benchInitErr error
)

func benchDatasets(b *testing.B) (*datagen.Dataset, *datagen.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		benchXKGDS, benchInitErr = datagen.XKG(datagen.XKGConfig{Seed: 1, Entities: 8000, Queries: 39})
		if benchInitErr != nil {
			return
		}
		benchTwDS, benchInitErr = datagen.Twitter(datagen.TwitterConfig{Seed: 7, Tweets: 8000, Queries: 30})
	})
	if benchInitErr != nil {
		b.Fatal(benchInitErr)
	}
	return benchXKGDS, benchTwDS
}

// ---------------------------------------------------------------------------
// Figures 6–9: per (k, group, engine) series. The figure's y-axes (time and
// memory objects) map to ns/op and the mem-objects metric.

// runPlan executes p to completion through the executor's single entry.
func runPlan(ex *exec.Executor, p planner.Plan) exec.Result {
	res, _ := ex.Run(context.Background(), p, exec.RunOpts{})
	return res
}

func benchFigure(b *testing.B, ds *datagen.Dataset, byRelaxed bool) {
	ex := exec.New(ds.Store, ds.Rules)
	cat := stats.NewCatalog(ds.Store, 2, nil)
	pl := planner.New(cat, ds.Rules)

	for _, k := range []int{10, 15, 20} {
		// Group query indexes.
		groups := map[int][]int{}
		for qi, qs := range ds.Queries {
			g := len(qs.Query.Patterns)
			if byRelaxed {
				g = pl.Plan(qs.Query, k).NumRelaxed()
			}
			groups[g] = append(groups[g], qi)
		}
		var gkeys []int
		for g := range groups {
			gkeys = append(gkeys, g)
		}
		sort.Ints(gkeys)
		label := "tp"
		if byRelaxed {
			label = "relaxed"
		}
		for _, g := range gkeys {
			idxs := groups[g]
			b.Run(fmt.Sprintf("k=%d/%s=%d/TriniT", k, label, g), func(b *testing.B) {
				var mem int64
				for i := 0; i < b.N; i++ {
					res := runPlan(ex, planner.TriniTPlan(ds.Queries[idxs[i%len(idxs)]].Query, k))
					mem += res.MemoryObjects
				}
				b.ReportMetric(float64(mem)/float64(b.N), "mem-objects")
			})
			b.Run(fmt.Sprintf("k=%d/%s=%d/SpecQP", k, label, g), func(b *testing.B) {
				var mem int64
				for i := 0; i < b.N; i++ {
					res := runPlan(ex, pl.Plan(ds.Queries[idxs[i%len(idxs)]].Query, k))
					mem += res.MemoryObjects
				}
				b.ReportMetric(float64(mem)/float64(b.N), "mem-objects")
			})
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	xkg, _ := benchDatasets(b)
	benchFigure(b, xkg, false)
}

func BenchmarkFigure7(b *testing.B) {
	xkg, _ := benchDatasets(b)
	benchFigure(b, xkg, true)
}

func BenchmarkFigure8(b *testing.B) {
	_, tw := benchDatasets(b)
	benchFigure(b, tw, false)
}

func BenchmarkFigure9(b *testing.B) {
	_, tw := benchDatasets(b)
	benchFigure(b, tw, true)
}

// ---------------------------------------------------------------------------
// Ablations.

// BenchmarkAblationBuckets varies the estimator's histogram resolution
// (paper §4.5.2: multi-bucket histograms model the distribution better but
// cost more planning time).
func BenchmarkAblationBuckets(b *testing.B) {
	xkg, _ := benchDatasets(b)
	for _, buckets := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			var prec float64
			var n int
			for i := 0; i < b.N; i++ {
				r := harness.NewRunnerWith(xkg, buckets, nil, []int{10})
				for qi := range xkg.Queries {
					o := r.RunQuery(qi, 10)
					prec += o.Precision
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(prec/float64(n), "precision")
			}
		})
	}
}

// BenchmarkAblationSelectivity compares exact join counting (the paper's
// configuration, footnote 3) against the independence-based estimate.
func BenchmarkAblationSelectivity(b *testing.B) {
	xkg, _ := benchDatasets(b)
	for _, cfg := range []struct {
		name    string
		counter stats.Counter
	}{
		{"exact", nil},
		{"estimated", stats.EstimatedCounter{Store: xkg.Store}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var prec float64
			var n int
			for i := 0; i < b.N; i++ {
				r := harness.NewRunnerWith(xkg, 2, cfg.counter, []int{10})
				for qi := range xkg.Queries {
					o := r.RunQuery(qi, 10)
					prec += o.Precision
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(prec/float64(n), "precision")
			}
		})
	}
}

// BenchmarkAblationRankJoin compares the HRJN hash rank join against the
// nested-loops NRJN variant on a two-pattern join.
func BenchmarkAblationRankJoin(b *testing.B) {
	xkg, _ := benchDatasets(b)
	// Pick the first 2-pattern query.
	var q kg.Query
	for _, qs := range xkg.Queries {
		if len(qs.Query.Patterns) == 2 {
			q = qs.Query
			break
		}
	}
	if len(q.Patterns) == 0 {
		b.Skip("no 2-pattern query")
	}
	vs := kg.NewVarSet(q)
	jv := operators.JoinVars(
		operators.PatternBoundVars(vs, q.Patterns[0]),
		operators.PatternBoundVars(vs, q.Patterns[1]),
	)
	b.Run("HRJN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := operators.NewListScan(xkg.Store, vs, q.Patterns[0], 1, 0, nil)
			r := operators.NewListScan(xkg.Store, vs, q.Patterns[1], 1, 0, nil)
			rj := operators.NewRankJoin(l, r, jv, nil)
			operators.DrainK(rj, 10)
		}
	})
	b.Run("NRJN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := operators.NewListScan(xkg.Store, vs, q.Patterns[0], 1, 0, nil)
			r := operators.NewListScan(xkg.Store, vs, q.Patterns[1], 1, 0, nil)
			nj := operators.NewNRJN(l, r, jv, nil)
			operators.DrainK(nj, 10)
		}
	})
}

// ---------------------------------------------------------------------------
// Batch query API: sequential Engine.Query against Engine.QueryBatch at
// several pool widths, over the same workload. The ns/op ratio is the
// multi-core speedup: each batched query runs exactly as a sequential one.

func BenchmarkQueryBatch(b *testing.B) {
	xkg, _ := benchDatasets(b)
	queries := make([]Query, len(xkg.Queries))
	for i, qs := range xkg.Queries {
		queries[i] = qs.Query
	}
	b.Run("sequential", func(b *testing.B) {
		eng := NewEngine(xkg.Store, xkg.Rules)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := eng.Query(q, 10, ModeSpecQP); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := NewEngineWith(xkg.Store, xkg.Rules, Options{BatchWorkers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := eng.QueryBatch(context.Background(), queries, 10, ModeSpecQP)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Sharded execution: the Figure 6 workload (XKG queries, k ∈ {10}) per store
// layout. shards=1 is the flat baseline and must match the unsharded ns/op
// and allocs/op; shards=GOMAXPROCS is the multi-core configuration — on a
// multi-core runner its ns/op drop is the sharding speedup (answers are
// bit-identical across the ladder, see TestShardedEnginesBitIdentical).

func shardedBenchCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	} else {
		// Single-core runner: still exercise the sharded code path so its
		// overhead is visible, even though no parallel speedup is possible.
		counts = append(counts, 4)
	}
	return counts
}

func BenchmarkShardedFigure6(b *testing.B) {
	xkg, _ := benchDatasets(b)
	for _, shards := range shardedBenchCounts() {
		eng := NewEngineWith(xkg.Store, xkg.Rules, Options{Shards: shards})
		for _, mode := range []Mode{ModeSpecQP, ModeTriniT} {
			b.Run(fmt.Sprintf("shards=%d/%v", shards, mode), func(b *testing.B) {
				// Warm match-list, statistics and residual caches so the
				// measurement isolates execution.
				for _, qs := range xkg.Queries {
					if _, err := eng.Query(qs.Query, 10, mode); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qs := xkg.Queries[i%len(xkg.Queries)]
					if _, err := eng.Query(qs.Query, 10, mode); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShardedMatchList drains one pattern's scan per store layout: the
// flat ListScan over its zero-alloc posting view against the sharded k-way
// merge over per-segment views (the path every sharded query's leg takes).
// Both emit the identical entry sequence; kg's BenchmarkShardedMatchList
// covers the raw merged-list reads underneath.
func BenchmarkShardedMatchList(b *testing.B) {
	xkg, _ := benchDatasets(b)
	pat := xkg.Queries[0].Query.Patterns[0]
	vs := kg.NewVarSet(kg.NewQuery(pat))
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			operators.Drain(operators.NewPatternScan(xkg.Store, vs, pat, 1, 0, nil))
		}
	})
	for _, shards := range shardedBenchCounts()[1:] {
		ss := kg.NewShardedStoreFrom(xkg.Store, shards)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				operators.Drain(operators.NewPatternScan(ss, vs, pat, 1, 0, nil))
			}
		})
	}
}

// BenchmarkShardedQueryBatch runs the whole workload through QueryBatch per
// layout — inter-query concurrency on top of intra-query sharding.
func BenchmarkShardedQueryBatch(b *testing.B) {
	xkg, _ := benchDatasets(b)
	queries := make([]Query, len(xkg.Queries))
	for i, qs := range xkg.Queries {
		queries[i] = qs.Query
	}
	for _, shards := range shardedBenchCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng := NewEngineWith(xkg.Store, xkg.Rules, Options{Shards: shards})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := eng.QueryBatch(context.Background(), queries, 10, ModeSpecQP)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Operator and estimator micro-benchmarks.

func BenchmarkIncrementalMerge(b *testing.B) {
	xkg, _ := benchDatasets(b)
	var pat kg.Pattern
	for _, qs := range xkg.Queries {
		pat = qs.Query.Patterns[0]
		break
	}
	vs := kg.NewVarSet(kg.NewQuery(pat))
	rules := xkg.Rules.For(pat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inputs := []operators.Stream{operators.NewListScan(xkg.Store, vs, pat, 1, 0, nil)}
		for _, r := range rules {
			inputs = append(inputs, operators.NewListScan(xkg.Store, vs, r.To, r.Weight, 1, nil))
		}
		m := operators.NewIncrementalMerge(inputs, nil)
		operators.DrainK(m, 100)
	}
}

func BenchmarkListScan(b *testing.B) {
	xkg, _ := benchDatasets(b)
	pat := xkg.Queries[0].Query.Patterns[0]
	vs := kg.NewVarSet(kg.NewQuery(pat))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		operators.Drain(operators.NewListScan(xkg.Store, vs, pat, 1, 0, nil))
	}
}

func BenchmarkConvolve(b *testing.B) {
	a := stats.PiecewiseConst{Bounds: []float64{0, 0.3, 1}, Heights: []float64{2.0 / 3, 0.8 / 0.7}}
	c := stats.PiecewiseConst{Bounds: []float64{0, 0.6, 1}, Heights: []float64{1.0 / 3, 2.0}}
	// Normalise c so the bench input is a valid density.
	mass := 0.0
	for i := range c.Heights {
		mass += c.Heights[i] * (c.Bounds[i+1] - c.Bounds[i])
	}
	for i := range c.Heights {
		c.Heights[i] /= mass
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := stats.Convolve(a, c)
		_ = pl.InvCDF(0.95)
	}
}

func BenchmarkPlanGen(b *testing.B) {
	xkg, _ := benchDatasets(b)
	cat := stats.NewCatalog(xkg.Store, 2, nil)
	pl := planner.New(cat, xkg.Rules)
	// Warm pattern caches so the bench isolates PLANGEN itself.
	for _, qs := range xkg.Queries {
		pl.Plan(qs.Query, 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Plan(xkg.Queries[i%len(xkg.Queries)].Query, 10)
	}
}

func BenchmarkExactCount(b *testing.B) {
	xkg, _ := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kg.Count(xkg.Store, xkg.Queries[i%len(xkg.Queries)].Query)
	}
}

// BenchmarkPrecisionAgainstTruth is a whole-pipeline quality gate: it runs
// the reduced workload once per iteration and reports the exact-match rate
// and precision so regressions in the estimator show up in -bench output.
func BenchmarkPrecisionAgainstTruth(b *testing.B) {
	xkg, _ := benchDatasets(b)
	ex := exec.New(xkg.Store, xkg.Rules)
	cat := stats.NewCatalog(xkg.Store, 2, nil)
	pl := planner.New(cat, xkg.Rules)
	b.ResetTimer()
	var prec float64
	var exact, n int
	for i := 0; i < b.N; i++ {
		qs := xkg.Queries[i%len(xkg.Queries)]
		tr := runPlan(ex, planner.TriniTPlan(qs.Query, 10))
		sp := runPlan(ex, pl.Plan(qs.Query, 10))
		prec += metrics.Precision(sp.Answers, tr.Answers, 10)
		if metrics.PredictionExact(sp.Plan.RelaxMask(), metrics.RequiredRelaxations(tr.Answers, 10)) {
			exact++
		}
		n++
	}
	b.ReportMetric(prec/float64(n), "precision")
	b.ReportMetric(float64(exact)/float64(n), "exact-match-rate")
}

// ---------------------------------------------------------------------------
// Live ingest: hold-out triples streamed back through Engine.Insert vs a full
// rebuild per batch.

// benchIngestTriples extracts a dataset's triples as a replayable sequence.
func benchIngestTriples(b *testing.B, st *Store, n int) []Triple {
	b.Helper()
	if st.Len() < n {
		b.Fatalf("dataset has %d triples, need %d", st.Len(), n)
	}
	out := make([]Triple, n)
	for i := range out {
		out[i] = st.Triple(int32(i))
	}
	return out
}

// BenchmarkLiveIngest times the growing-knowledge-graph scenario the paper's
// workload implies: a base store is built once, then a stream of new triples
// arrives in batches with one probe query per batch.
//
//	rebuild — the pre-live-ingest behaviour: every batch pays a full store
//	          rebuild + freeze before it can be queried;
//	live    — Engine.Insert into the mutable heads with automatic
//	          merge-on-threshold compaction.
//
// Answers are bit-identical between the two (TestLiveInterleavedOracle);
// this measures what the mutable head buys in wall-clock per scenario.
func BenchmarkLiveIngest(b *testing.B) {
	xkg, _ := benchDatasets(b)
	const baseN, streamN, batch = 8000, 1000, 100
	triples := benchIngestTriples(b, xkg.Store, baseN+streamN)
	probe := xkg.Queries[0].Query
	dict := xkg.Store.Dict()

	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for pos := baseN; pos <= baseN+streamN; pos += batch {
				st := kg.NewStore(dict)
				for _, tr := range triples[:pos] {
					if err := st.Add(tr); err != nil {
						b.Fatal(err)
					}
				}
				st.Freeze()
				eng := NewEngineOver(st, xkg.Rules, Options{})
				if _, err := eng.Query(probe, 10, ModeSpecQP); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, shards := range shardedBenchCounts() {
		b.Run(fmt.Sprintf("live/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ss := kg.NewShardedStore(dict, shards)
				for _, tr := range triples[:baseN] {
					if err := ss.Add(tr); err != nil {
						b.Fatal(err)
					}
				}
				eng := NewEngineOver(ss, xkg.Rules, Options{})
				if _, err := eng.Query(probe, 10, ModeSpecQP); err != nil {
					b.Fatal(err)
				}
				for pos := baseN; pos < baseN+streamN; pos += batch {
					for _, tr := range triples[pos : pos+batch] {
						if err := eng.Insert(tr); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := eng.Query(probe, 10, ModeSpecQP); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCompact isolates the merge itself: compacting a 1024-triple head
// into a frozen base versus re-freezing the whole store from scratch — the
// work a rebuild-per-batch design pays at the same point.
func BenchmarkCompact(b *testing.B) {
	xkg, _ := benchDatasets(b)
	const baseN, headN = 8000, 1024
	triples := benchIngestTriples(b, xkg.Store, baseN+headN)
	dict := xkg.Store.Dict()

	b.Run("compact-head", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := kg.NewStore(dict)
			for _, tr := range triples[:baseN] {
				if err := st.Add(tr); err != nil {
					b.Fatal(err)
				}
			}
			st.Freeze()
			st.SetHeadLimit(-1)
			for _, tr := range triples[baseN:] {
				if err := st.Insert(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			st.Compact()
		}
	})
	b.Run("full-refreeze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := kg.NewStore(dict)
			for _, tr := range triples {
				if err := st.Add(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			st.Freeze()
		}
	})
	// On a sharded store the merge is segment-local: compacting the shard
	// that absorbed the head costs ~1/N of the flat rebuild, and the other
	// shards' snapshots are untouched.
	for _, shards := range shardedBenchCounts()[1:] {
		b.Run(fmt.Sprintf("compact-one-shard/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ss := kg.NewShardedStore(dict, shards)
				for _, tr := range triples[:baseN] {
					if err := ss.Add(tr); err != nil {
						b.Fatal(err)
					}
				}
				ss.Freeze()
				ss.SetHeadLimit(-1)
				for _, tr := range triples[baseN:] {
					if _, _, err := ss.Apply(kg.Mutation{Op: kg.OpInsert, Triple: tr}); err != nil {
						b.Fatal(err)
					}
				}
				target := 0
				for s := 0; s < shards; s++ {
					if ss.Shard(s).HeadLen() > ss.Shard(target).HeadLen() {
						target = s
					}
				}
				b.StartTimer()
				ss.CompactShard(target)
			}
		})
	}
}
