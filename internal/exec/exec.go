// Package exec executes query plans over the kg store using the operators
// package. Executor.Run is the one execution entry: it builds the operator
// tree for a plan — a sorted scan per join-group pattern, an Incremental
// Merge over the pattern and its relaxations per singleton, left-deep rank
// joins over the legs, each an index-probe join where the leg allows — and
// drains it to the plan's k. The engines the evaluation compares differ only
// in the plan the caller hands it:
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
	"maps"
	"sort"
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

// Executor runs plans against one store + rule set. A Run executes on its
// caller's goroutine from building the operator tree to the last pull, so a
// query's answers and MemoryObjects are fixed by (query, k, plan) whatever
// the store's layout. Concurrent Runs share only the store and the rule set.
type Executor struct {
	Store kg.Graph
	Rules *relax.RuleSet
}

// New returns an Executor.
func New(st kg.Graph, rs *relax.RuleSet) *Executor {
	return &Executor{Store: st, Rules: rs}
}

// leg is one independent input pipeline of the left-deep join: a triple
// pattern, or a singleton's Incremental Merge over the pattern and its
// relaxations.
type leg struct {
	// inputs are the pattern and its non-chain relaxations in merge order;
	// nil when a chain relaxation takes part, which only a stream can serve.
	inputs  []operators.ProbeInput
	stream  operators.Stream // built by open unless the leg is probed
	vars    map[int]bool
	card    int
	single  bool
	buildUS int64 // traced executions: construction wall time
}

// buildLeg describes the pipeline for pattern index i of the plan: a plain
// sorted scan for join-group patterns, an Incremental Merge over the original
// scan plus one weighted scan per relaxation rule for singletons. Only a leg
// with a chain relaxation is built at once (its matches are materialised to
// size it); the others are opened when the join order needs a stream. g is
// the pinned snapshot shared by every leg of the tree.
func (ex *Executor) buildLeg(g kg.Graph, q kg.Query, vs *kg.VarSet, i int, single bool, c *operators.Counter) leg {
	pat := q.Patterns[i]
	l := leg{
		inputs: []operators.ProbeInput{{Pattern: pat, Weight: 1}},
		vars:   operators.PatternBoundVars(vs, pat),
		card:   g.Cardinality(pat),
		single: single,
	}
	if !single {
		return l
	}
	mask := uint32(1) << uint(i)
	var scans []operators.Stream
	for _, r := range ex.Rules.For(pat) {
		if r.IsChain() {
			if scans == nil {
				scans = ex.scans(g, vs, l.inputs, c)
			}
			matches := relax.ChainMatches(g, relax.ApplyChain(ex.Rules.Rule(pat, r), pat), vs)
			scans = append(scans, operators.NewAnswerScan(matches, r.Weight, mask, c))
			l.card += len(matches)
			continue
		}
		in := operators.ProbeInput{Pattern: relax.Apply(r.To, pat), Weight: r.Weight, Mask: mask}
		l.inputs = append(l.inputs, in)
		if scans != nil {
			scans = append(scans, ex.scans(g, vs, []operators.ProbeInput{in}, c)...)
		}
		l.card += g.Cardinality(in.Pattern)
	}
	if scans != nil {
		l.inputs = nil
		l.stream = operators.NewIncrementalMerge(scans, c)
	}
	return l
}

// scans builds one sorted scan per input.
func (ex *Executor) scans(g kg.Graph, vs *kg.VarSet, inputs []operators.ProbeInput, c *operators.Counter) []operators.Stream {
	out := make([]operators.Stream, len(inputs))
	for j, in := range inputs {
		out[j] = operators.NewPatternScan(g, vs, in.Pattern, in.Weight, in.Mask, c)
	}
	return out
}

// open builds the leg's stream if buildLeg left it unbuilt.
func (ex *Executor) open(g kg.Graph, vs *kg.VarSet, l *leg, c *operators.Counter) {
	if l.stream != nil {
		return
	}
	if !l.single {
		l.stream = ex.scans(g, vs, l.inputs, c)[0]
		return
	}
	l.stream = operators.NewIncrementalMerge(ex.scans(g, vs, l.inputs, c), c)
}

// buildLegs builds the plan's legs over snapshot g in join order: join
// group first, then singletons, each by ascending cardinality. Traced
// executions also stamp each leg's construction wall time; the untraced path
// takes no time.Now calls.
func (ex *Executor) buildLegs(g kg.Graph, p planner.Plan, vs *kg.VarSet, c *operators.Counter) []leg {
	nj := len(p.JoinGroup)
	legs := make([]leg, nj+len(p.Singletons))
	tracing := c.Tracing()
	for slot := range legs {
		i, single := 0, slot >= nj
		if single {
			i = p.Singletons[slot-nj]
		} else {
			i = p.JoinGroup[slot]
		}
		var t0 time.Time
		if tracing {
			t0 = time.Now()
		}
		legs[slot] = ex.buildLeg(g, p.Query, vs, i, single, c)
		if tracing {
			legs[slot].buildUS = time.Since(t0).Microseconds()
		}
	}

	sort.SliceStable(legs, func(a, b int) bool {
		if legs[a].single != legs[b].single {
			return !legs[a].single
		}
		return legs[a].card < legs[b].card
	})
	return legs
}

// buildStream assembles the operator tree for a plan and returns the root
// stream. The join order is join group first (cheapest pattern first), then
// singletons by ascending cardinality — a deterministic left-deep order that
// keeps intermediate results small.
//
// Each leg after the first joins the accumulated left side through a
// ProbeJoin when it is a triple pattern plus non-chain relaxations sharing a
// variable with that side: its matches are then probed per left binding and
// its scans and merge are never built. Any other leg joins through a
// RankJoin over its stream. The choice reads only the plan and the patterns,
// never the snapshot's state, so a live store and its flat rebuild run the
// same operators.
func (ex *Executor) buildStream(p planner.Plan, c *operators.Counter) operators.Stream {
	vs := kg.NewVarSet(p.Query)
	// One pinned snapshot serves the entire operator tree: every scan,
	// probe, cardinality estimate and normalisation constant — across all
	// legs — reads the same content version, so a query racing live
	// inserts answers for exactly one store state.
	g := ex.Store.Pin()
	legs := ex.buildLegs(g, p, vs, c)
	if len(legs) == 0 {
		return operators.LeftDeep(nil, nil, c)
	}

	tracing := c.Tracing()
	prober := g.(kg.Prober) // every pinned view is a Prober
	var root operators.Stream
	vars := map[int]bool{} // what the legs folded so far bind
	for i := range legs {
		l := &legs[i]
		if i > 0 && l.inputs != nil && len(operators.JoinVars(vars, l.vars)) > 0 {
			root = operators.NewProbeJoin(root, vars, prober, vs, l.inputs, c)
			operators.StampBuild(root, l.buildUS)
		} else {
			var t0 time.Time
			if tracing {
				t0 = time.Now()
			}
			ex.open(g, vs, l, c)
			if tracing {
				operators.StampBuild(l.stream, l.buildUS+time.Since(t0).Microseconds())
			}
			if i == 0 {
				root = l.stream
			} else {
				root = operators.NewRankJoin(root, l.stream, operators.JoinVars(vars, l.vars), c)
			}
		}
		maps.Copy(vars, l.vars)
	}
	return root
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
	c.SetAbort(func() bool { return ctx.Err() != nil })
	if o.Trace {
		// Before buildStream: operators allocate their trace nodes at
		// construction.
		c.EnableTracing()
	}
	ws := operators.AcquireWorkspace()
	c.SetWorkspace(ws)
	start := time.Now()
	root := ex.buildStream(p, c)

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
