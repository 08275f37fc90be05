package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"specqp"
	"specqp/internal/metrics"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks the datasets and schedules; 1 is the reference size, the
	// smoke test runs at 1/20.
	scale float64
	// setups is how often an end-to-end run sets up before it measures, so
	// that setup_s is a median and not one draw.
	setups int
	procs  int
	// tmp holds WAL directories and the span dump. It sits inside the
	// checkout: the benchmark writes nowhere else.
	tmp string
}

// workload is one row of the README's workload table.
type workload struct {
	name  string
	why   string
	setup func(c *config) (instance, error)
}

// instance is a workload that has been set up: datasets generated, engine
// (and server, log, follower) built, caches warm.
type instance interface {
	corpus() *corpus
	// run measures for about d, checks every output, and tears down whatever
	// the checks need torn down (a durable engine is closed and reopened).
	run(d time.Duration, rec *recorder, tail bool) (*outcome, error)
	// close stops every goroutine and listener and removes every file the
	// instance created.
	close()
}

var workloads = []workload{
	{"xkg_specqp", "the paper's headline path: planner+stats then exec/operators/kg do all the work; sparql, server, wal, repl do none",
		func(c *config) (instance, error) { return setupLibrary(c, specqp.ModeSpecQP) }},
	{"xkg_trinit", "same queries with the planner bypassed and every relaxation merged: a planner change must not move it, an operator change moves it most",
		func(c *config) (instance, error) { return setupLibrary(c, specqp.ModeTriniT) }},
	{"twitter_serve", "adds server and sparql over the same engine and saturates the cores with a closed loop, so it shows throughput and queueing",
		func(c *config) (instance, error) { return setupHTTP(c, kindServe) }},
	{"twitter_open", "same server under an open loop at a fixed rate below saturation: latency from the intended send time, no coordinated omission",
		func(c *config) (instance, error) { return setupHTTP(c, kindOpen) }},
	{"twitter_mixed", "writes beside reads on a durable engine: every mutation moves the store version, so catalog and plan cache go cold under the queries",
		func(c *config) (instance, error) { return setupHTTP(c, kindMixed) }},
	{"twitter_ingest", "wal, kg mutation and compaction, checkpoints, recovery and log shipping do the work and exec almost none: the bypass for query-path changes",
		func(c *config) (instance, error) { return setupIngest(c) }},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// outcome is what one measured run produced.
type outcome struct {
	attempted, failed int64
	wall              time.Duration
	ops               []time.Duration // latency samples of the workload's op, in the order issued
	ends              []time.Duration // when each sample's op completed, from the start of the window
	per               int             // ops a sample stands for (0 is 1)
	segment           int             // samples in a segment: whole passes over the queries, where there are passes
	precision         float64
	memoryObjects     float64
	layer             map[string]float64 // per-layer numbers the workload itself yields
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
	}
}

// result is what gets printed.
type result struct {
	attempted, failed int64
	values            map[string]float64
}

func execute(c *config) (*result, error) {
	wl, err := findWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(c.procs)
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return nil, err
	}
	if c.trace {
		return executeTraced(c, wl)
	}
	var inst instance
	var setups []float64
	for i := 0; i < max(c.setups, 1); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if inst, err = wl.setup(c); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	heap := liveHeapMiB()
	out, err := inst.run(time.Duration(c.seconds*float64(time.Second)), nil, true)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if n := samplesBeyond(min(out.segment, len(out.ops)), tailQ); n < 10 || len(out.ops) < 3*out.segment {
		fmt.Fprintf(os.Stderr, "bench: op_p90_ms rests on %d samples beyond it in each of %d segments; run longer for a trustworthy tail\n", n, len(out.ops)/max(out.segment, 1))
	}
	p50, tail, rate := segmentMedians(out.ops, out.ends, out.segment, max(out.per, 1), out.wall)
	return &result{out.attempted, out.failed, map[string]float64{
		"setup_s":        median(setups),
		"op_p50_ms":      p50,
		"op_p90_ms":      tail,
		"op_per_s":       rate,
		"precision_at_k": out.precision,
		"memory_objects": out.memoryObjects,
		"heap_live_mb":   heap,
	}}, nil
}

// executeTraced is the per-layer run: the workload at quarter length with
// tracing off, again with the benchmark's spans on (the difference is the
// tracing overhead), then each layer's probes over the same dataset.
func executeTraced(c *config, wl workload) (*result, error) {
	quarter := time.Duration(c.seconds * float64(time.Second) / 4)
	measure := func(rec *recorder) (*outcome, *corpus, error) {
		inst, err := wl.setup(c)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		defer inst.close()
		out, err := inst.run(quarter, rec, rec != nil)
		return out, inst.corpus(), err
	}
	plain, _, err := measure(nil)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := newRecorder()
	traced, corp, err := measure(rec)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)

	values := traced.layer
	// Caller-visible numbers come from the untraced half. The whole-run p99
	// is here and not in the end-to-end table because it does not repeat.
	values["client.op_p99_ms"] = quantile(sortedMS(plain.ops), 0.99)
	for name, v := range plain.layer {
		if strings.HasPrefix(name, "client.") {
			values[name] = v
		}
	}
	// A layer's self time is its span minus what its child spans cover.
	self, count := rec.selfTimes()
	for name, spanName := range map[string]string{
		"bench.http_transport_us": "client.request",
		"server.self_us":          "server.handler",
		"specqp.self_us":          "specqp.query",
	} {
		if n := count[spanName]; n > 0 {
			values[name] = meanDur(self[spanName], n) / 1e3
		}
	}
	p50 := func(o *outcome) float64 { return quantile(sortedMS(o.ops), 0.5) }
	values["bench.trace_overhead_frac"] = ratio(p50(traced)-p50(plain), p50(plain))
	values["bench.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if err := runProbes(c, corp, values); err != nil {
		return nil, err
	}
	dump := filepath.Join(c.tmp, fmt.Sprintf("spans-%s-seed%d.json", wl.name, c.seed))
	if err := rec.dump(dump, environment(c)); err != nil {
		return nil, fmt.Errorf("writing span dump: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(rec.spans), dump)
	return &result{plain.attempted + traced.attempted, plain.failed + traced.failed, values}, nil
}

func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// ---------------------------------------------------------------------------
// What every query workload shares.

// pair is one (query, k) of a workload.
type pair struct{ q, k int }

func pairsOf(queries int, ks ...int) []pair {
	var out []pair
	for _, k := range ks {
		for q := 0; q < queries; q++ {
			out = append(out, pair{q, k})
		}
	}
	return out
}

// queryAcc adds up what the program reports about the queries of a run: the
// counters behind the planner/exec/specqp rows.
type queryAcc struct {
	n                int
	wall, plan, exec time.Duration
	answers, objects int64
	coldQueries      int
	version          uint64
	hits0, misses0   int64
}

func newQueryAcc(eng *specqp.Engine) *queryAcc {
	st := eng.Stats()
	return &queryAcc{version: eng.Graph().Version(), hits0: st.PlanCacheHits, misses0: st.PlanCacheMisses}
}

// seeVersion notes, before a query is issued, whether the store's content
// version moved since the previous one (catalog and plan cache are then cold).
func (a *queryAcc) seeVersion(eng *specqp.Engine) {
	if v := eng.Graph().Version(); v != a.version {
		a.version = v
		a.coldQueries++
	}
}

func (a *queryAcc) add(wall, plan, exec time.Duration, answers int, objects int64) {
	a.n++
	a.wall += wall
	a.plan += plan
	a.exec += exec
	a.answers += int64(answers)
	a.objects += objects
}

func (a *queryAcc) into(layer map[string]float64, eng *specqp.Engine) {
	st := eng.Stats()
	hits, misses := float64(st.PlanCacheHits-a.hits0), float64(st.PlanCacheMisses-a.misses0)
	layer["stats.cold_frac"] = ratio(float64(a.coldQueries), float64(a.n))
	layer["planner.plan_share"] = ratio(float64(a.plan), float64(a.wall))
	layer["planner.cache_hit_frac"] = ratio(hits, hits+misses)
	layer["exec.exec_us"] = meanDur(a.exec, a.n) / 1e3
	layer["exec.exec_share"] = ratio(float64(a.exec), float64(a.wall))
}

// quality is the untimed tail: the workload's pairs once more in TriniT mode
// on the same engine, to score the paper's trade — precision, score error and
// memory objects — and to count what the planner pruned. got holds the
// workload-mode results when the caller already has them.
func quality(eng *specqp.Engine, queries []specqp.Query, pairs []pair, mode specqp.Mode, got []specqp.Result, out *outcome) error {
	var prec, serr, objects, answers, relaxed, exact, legsSpec, legsTri float64
	var self time.Duration
	rules := eng.Rules()
	for i, p := range pairs {
		q := queries[p.q]
		var mine specqp.Result
		var err error
		if got != nil {
			mine = got[i]
		} else {
			t0 := time.Now()
			if mine, err = eng.Query(q, p.k, mode); err != nil {
				return fmt.Errorf("quality tail: %w", err)
			}
			self += time.Since(t0) - mine.PlanTime - mine.ExecTime
		}
		truth := mine
		if mode != specqp.ModeTriniT {
			if truth, err = eng.Query(q, p.k, specqp.ModeTriniT); err != nil {
				return fmt.Errorf("quality tail: %w", err)
			}
		}
		prec += metrics.Precision(mine.Answers, truth.Answers, p.k)
		se, _ := metrics.ScoreError(mine.Answers, truth.Answers, p.k)
		serr += se
		objects += float64(mine.MemoryObjects)
		answers += float64(len(mine.Answers))
		for _, pat := range q.Patterns {
			legsTri += float64(len(rules.For(pat)))
		}
		if mode == specqp.ModeSpecQP {
			relaxed += float64(mine.Plan.NumRelaxed())
			for _, pi := range mine.Plan.Singletons {
				legsSpec += float64(len(rules.For(q.Patterns[pi])))
			}
			if metrics.PredictionExact(mine.Plan.RelaxMask(), metrics.RequiredRelaxations(truth.Answers, p.k)) {
				exact++
			}
		}
	}
	n := float64(len(pairs))
	out.precision = prec / n
	out.memoryObjects = objects / n
	if got == nil {
		// The engine's own share of a library call; the HTTP workloads
		// cannot see it from outside the server and take it from here.
		out.layer["specqp.self_us"] = meanDur(self, len(pairs)) / 1e3
	}
	out.layer["planner.score_error"] = serr / n
	out.layer["exec.objects_per_answer"] = ratio(objects, answers)
	out.layer["planner.relaxed_per_query"] = relaxed / n
	out.layer["planner.prediction_exact_frac"] = exact / n
	out.layer["relax.legs_per_query.specqp"] = legsSpec / n
	out.layer["relax.legs_per_query.trinit"] = legsTri / n
	return nil
}

// sameAsOracle checks that eng answers every workload query as a fresh flat
// store rebuilt from the surviving triples does. Each engine has its own
// dictionary, so queries go in as text and answers compare decoded, with
// equal-score ties unordered (see sameUpToTies).
func sameAsOracle(what string, eng, oracle *specqp.Engine, corp *corpus, out *outcome) {
	for i, src := range corp.sparql {
		out.attempted++
		var got, want []wireAnswer
		for j, e := range []*specqp.Engine{eng, oracle} {
			q, err := e.ParseSPARQL(src)
			if err != nil {
				out.fail("%s: query %d: parse: %v", what, i, err)
				break
			}
			res, err := e.Query(q, specqp.DefaultK, specqp.ModeSpecQP)
			if err != nil {
				out.fail("%s: query %d: %v", what, i, err)
				break
			}
			if j == 0 {
				got = decodeAnswers(e, q, res.Answers)
			} else if want = decodeAnswers(e, q, res.Answers); !sameUpToTies(got, want, specqp.DefaultK) {
				out.fail("%s: query %d differs from the flat rebuild of the surviving triples", what, i)
			}
		}
	}
}
