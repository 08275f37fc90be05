// Package exec executes query plans over the kg store using the operators
// package. Executor.Run is the one execution entry: it builds the operator
// tree for a plan — a sorted scan per join-group pattern, an Incremental
// Merge over the pattern and its relaxations per singleton, left-deep rank
// joins over the legs — and drains it to the plan's k. The engines the
// evaluation compares differ only in the plan the caller hands it:
//
//   - TriniT (planner.TriniTPlan): the non-speculative baseline — every
//     pattern is a singleton (Section 2.1, Figure 2);
//   - Spec-QP (planner.Planner.Plan): the speculative plan — only the
//     patterns PLANGEN predicts can reach the top-k are singletons
//     (Section 3.2.2, Figure 5); the caller times planning into
//     Result.PlanTime;
//   - Exact (planner.ExactPlan): no singletons, the unrelaxed top-k.
//
// Naive is the evaluate-everything reference: every relaxed query evaluated
// completely, merged, sorted and cut at k (the strawman costed at 48 queries
// in the paper's Introduction).
package exec

import (
	"context"
	"sort"
	"sync"
	"time"

	"specqp/internal/kg"
	"specqp/internal/operators"
	"specqp/internal/planner"
	"specqp/internal/relax"
	"specqp/internal/trace"
)

// Result carries an execution's answers and its efficiency metrics.
type Result struct {
	Answers []kg.Answer
	// MemoryObjects is the paper's memory metric: answer objects created by
	// the operators during this execution.
	MemoryObjects int64
	// PlanTime is the speculative planning overhead (zero for TriniT/Naive).
	PlanTime time.Duration
	// ExecTime is the operator execution time.
	ExecTime time.Duration
	// Plan is the executed plan.
	Plan planner.Plan
	// Trace is the per-operator execution trace — nil unless the run was
	// traced (RunOpts.Trace); untraced runs pay nothing for it.
	Trace *trace.Trace
}

// AnswerEmitFunc receives answers the instant the operator tree proves them
// final — for rank-join plans, the moment the corner bound drops to the
// answer's score, which is typically long before the full top-k is known.
// Returning false stops the execution early; no further operator pulls happen
// after a false return.
type AnswerEmitFunc func(kg.Answer) bool

// RunOpts selects what a Run does besides computing the top-k.
type RunOpts struct {
	// Emit, when non-nil, receives each answer as the operators prove it
	// final (see AnswerEmitFunc).
	Emit AnswerEmitFunc
	// Trace makes the operators record per-instance execution statistics,
	// compiled into Result.Trace as a plan-shaped tree. Tracing never changes
	// what is executed — same answers, same order — only what is recorded.
	Trace bool
}

// Executor runs plans against one store + rule set.
type Executor struct {
	Store kg.Graph
	Rules *relax.RuleSet
	// Parallel executes independent join legs concurrently: legs are
	// constructed on separate goroutines (cardinality probes, match-list and
	// chain-relaxation materialisation overlap), and each leg stream is
	// wrapped in an order-preserving Prefetch so leg production overlaps the
	// rank join's consumption. Answers are bit-identical to sequential
	// execution — Prefetch is observationally identical to its inner stream —
	// but Result.MemoryObjects may exceed the sequential count: prefetched
	// entries the top-k cutoff never consumes are still created and counted.
	Parallel bool
}

// New returns an Executor.
func New(st kg.Graph, rs *relax.RuleSet) *Executor {
	return &Executor{Store: st, Rules: rs}
}

// leg is one independent input pipeline of the left-deep join.
type leg struct {
	stream operators.Stream
	vars   map[int]bool
	card   int
	single bool
}

// buildLeg constructs the pipeline for pattern index i of the plan: a plain
// sorted scan for join-group patterns, an Incremental Merge over the original
// scan plus one weighted scan per relaxation rule for singletons. g is the
// pinned snapshot shared by every leg of the tree.
func (ex *Executor) buildLeg(g kg.Graph, q kg.Query, vs *kg.VarSet, i int, single bool, c *operators.Counter) leg {
	pat := q.Patterns[i]
	if !single {
		return leg{
			stream: operators.NewPatternScan(g, vs, pat, 1, 0, c),
			vars:   operators.PatternBoundVars(vs, pat),
			card:   g.Cardinality(pat),
		}
	}
	mask := uint32(1) << uint(i)
	inputs := []operators.Stream{operators.NewPatternScan(g, vs, pat, 1, 0, c)}
	card := g.Cardinality(pat)
	for _, r := range ex.Rules.For(pat) {
		if r.IsChain() {
			matches := relax.ChainMatches(g, relax.ApplyChain(ex.Rules.Rule(pat, r), pat), vs)
			inputs = append(inputs, operators.NewAnswerScan(matches, r.Weight, mask, c))
			card += len(matches)
			continue
		}
		rp := relax.Apply(r.To, pat)
		inputs = append(inputs, operators.NewPatternScan(g, vs, rp, r.Weight, mask, c))
		card += g.Cardinality(rp)
	}
	return leg{
		stream: operators.NewIncrementalMerge(inputs, c),
		vars:   operators.PatternBoundVars(vs, pat),
		card:   card,
		single: true,
	}
}

// buildStream assembles the operator tree for a plan and returns the root
// stream plus a stop function releasing any background prefetchers (call it
// once the stream will no longer be consumed). The join order is join group
// first (cheapest pattern first), then singletons by ascending cardinality —
// a deterministic left-deep order that keeps intermediate results small,
// independent of construction concurrency.
func (ex *Executor) buildStream(p planner.Plan, c *operators.Counter) (operators.Stream, *kg.VarSet, func()) {
	q := p.Query
	vs := kg.NewVarSet(q)

	// One pinned snapshot serves the entire operator tree: every scan,
	// cardinality probe and normalisation constant — across all legs, even
	// when legs are built concurrently — reads the same content version, so
	// a query racing live inserts answers for exactly one store state.
	g := ex.Store.Pin()

	legs := make([]leg, len(p.JoinGroup)+len(p.Singletons))
	build := func(slot int, patIdx int, single bool) {
		legs[slot] = ex.buildLeg(g, q, vs, patIdx, single, c)
	}
	if c.Tracing() {
		// Traced executions additionally stamp each leg's construction wall
		// time on its root trace node; the untraced path takes no time.Now
		// calls and builds the exact same closures.
		inner := build
		build = func(slot int, patIdx int, single bool) {
			t0 := time.Now()
			inner(slot, patIdx, single)
			operators.StampBuild(legs[slot].stream, time.Since(t0).Microseconds())
		}
	}
	if ex.Parallel && len(legs) > 1 {
		var wg sync.WaitGroup
		for slot, i := range p.JoinGroup {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				build(slot, i, false)
			}(slot, i)
		}
		for off, i := range p.Singletons {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				build(slot, i, true)
			}(len(p.JoinGroup)+off, i)
		}
		wg.Wait()
	} else {
		for slot, i := range p.JoinGroup {
			build(slot, i, false)
		}
		for off, i := range p.Singletons {
			build(len(p.JoinGroup)+off, i, true)
		}
	}

	// Deterministic order: join-group legs first, each group sorted by
	// ascending cardinality.
	sort.SliceStable(legs, func(a, b int) bool {
		if legs[a].single != legs[b].single {
			return !legs[a].single
		}
		return legs[a].card < legs[b].card
	})

	streams := make([]operators.Stream, len(legs))
	vars := make([]map[int]bool, len(legs))
	for i, l := range legs {
		streams[i], vars[i] = l.stream, l.vars
	}
	stop := func() {}
	if ex.Parallel && len(streams) > 1 {
		stop = operators.PrefetchAll(streams, operators.DefaultPrefetchDepth)
	}
	return operators.LeftDeep(streams, vars, c), vs, stop
}

// Run executes plan p and returns its top-k answers (k from the plan). It
// honours ctx inside the operator pull loops, not just between answers: the
// counter's abort hook is polled every operators.AbortStride input pulls, so
// a cancelled run stops within a bounded number of probes even when the next
// answer would require draining an input. On cancellation the partial result
// — every answer already produced — is returned together with ctx.Err(); an
// emitter returning false truncates with a nil error (the consumer chose to
// stop; nothing failed). Result.Answers always equals the sequence handed to
// the emitter, so streaming and buffered callers observe one sequence by
// construction.
//
// The operators draw their slabs from one workspace per execution, released
// once the drain is over; every answer is copied out of it as it is emitted,
// so Result.Answers and the answers handed to the emitter own their bindings
// and stay valid after the workspace is reused by a later query.
func (ex *Executor) Run(ctx context.Context, p planner.Plan, o RunOpts) (Result, error) {
	c := &operators.Counter{}
	// Installed before buildStream so the prefetch goroutines observe the
	// hook through their creation edge; ctx.Err is safe for concurrent use.
	c.SetAbort(func() bool { return ctx.Err() != nil })
	if o.Trace {
		// Also before buildStream: operators allocate their trace nodes at
		// construction, observing the flag through the same edge.
		c.EnableTracing()
	}
	ws := operators.AcquireWorkspace()
	c.SetWorkspace(ws)
	start := time.Now()
	root, _, stop := ex.buildStream(p, c)
	// Deferred as well as called below: a panic out of the drain must still
	// stop the legs' prefetch goroutines, or each one stays blocked on its
	// buffer send for the process lifetime. Such a panic skips ws.Release, so
	// the workspace is dropped rather than reused while something may still
	// reference it.
	defer stop()

	// p.K only bounds the answer count (a caller may pass math.MaxInt), so
	// presize modestly and let append grow.
	answers := make([]kg.Answer, 0, min(p.K, 64))
	var ids []kg.ID // result-owned backing of the answers' bindings
	var err error
	for len(answers) < p.K {
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = ctxErr
			break
		}
		e, ok := root.Next()
		if !ok {
			// An aborted operator reports exhaustion; distinguish a genuinely
			// drained stream from a cancelled one so callers always see the
			// context error alongside the partial top-k. A run that filled k
			// answers never reaches this check — completion beats a
			// cancellation that lands after the last answer.
			err = ctx.Err()
			break
		}
		if n := len(e.Binding); n > 0 {
			if len(ids)+n > cap(ids) {
				// Earlier answers keep pointing into the old backing.
				ids = make([]kg.ID, 0, n*max(2*len(answers), min(p.K, 64)))
			}
			b := ids[len(ids) : len(ids)+n : len(ids)+n]
			copy(b, e.Binding)
			ids = ids[:len(ids)+n]
			e.Binding = b
		}
		a := kg.Answer{Binding: e.Binding, Score: e.Score, Relaxed: e.Relaxed}
		answers = append(answers, a)
		if o.Emit != nil && !o.Emit(a) {
			break
		}
	}
	res := Result{
		Answers:       answers,
		MemoryObjects: c.Value(),
		ExecTime:      time.Since(start),
		Plan:          p,
	}
	stop()
	if o.Trace {
		res.Trace = &trace.Trace{
			K:             p.K,
			ExecUS:        res.ExecTime.Microseconds(),
			Answers:       len(answers),
			MemoryObjects: res.MemoryObjects,
			Root:          operators.TraceTree(root),
		}
	}
	ws.Release()
	return res, err
}

// Naive evaluates every relaxed query in the enumeration space completely,
// merges with max-score dedup, sorts, and returns the top-k; memory objects
// count every materialised answer. It is the exhaustive reference the engine
// modes are tested against, not a served mode.
func (ex *Executor) Naive(q kg.Query, k int) Result {
	start := time.Now()
	origVS := kg.NewVarSet(q)
	// One pin per Naive call: every relaxed query evaluates against the same
	// content version.
	g := ex.Store.Pin()
	var all []kg.Answer
	var objects int64
	for _, rq := range ex.Rules.Enumerate(q, 0) {
		var mask uint32
		for i, ri := range rq.Applied {
			if ri >= 0 {
				mask |= 1 << uint(i)
			}
		}
		answers := kg.Evaluate(g, rq.Query, rq.PatternWeights)
		objects += int64(len(answers))
		// Chain relaxations introduce existential variables; project every
		// answer onto the original query's variable set so answers from
		// different rewrites are comparable and deduplicable.
		rqVS := kg.NewVarSet(rq.Query)
		for _, a := range answers {
			proj := kg.NewBinding(origVS.Len())
			for vi := 0; vi < rqVS.Len(); vi++ {
				if oi := origVS.Index(rqVS.Name(vi)); oi >= 0 {
					proj[oi] = a.Binding[vi]
				}
			}
			all = append(all, kg.Answer{Binding: proj, Score: a.Score, Relaxed: mask})
		}
	}
	all = kg.DedupMax(all)
	kg.SortAnswers(all)
	if len(all) > k {
		all = all[:k]
	}
	return Result{
		Answers:       all,
		MemoryObjects: objects,
		ExecTime:      time.Since(start),
		Plan:          planner.Plan{Query: q.Clone(), K: k},
	}
}

// TotalTime returns planning plus execution time.
func (r Result) TotalTime() time.Duration { return r.PlanTime + r.ExecTime }
