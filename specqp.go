// Package specqp is a Go implementation of Spec-QP — speculative query
// planning for top-k join queries with relaxations over scored knowledge
// graphs (Mohanty, Ramanath, Yahya, Weikum; EDBT 2019) — together with the
// complete substrate it needs: a scored in-memory triple store, relaxation
// rule mining, the Incremental Merge and Rank Join top-k operators, the
// TriniT baseline engine, and a SPARQL-subset parser.
//
// Quick start:
//
//	st := specqp.NewStore()
//	st.AddSPO("shakira", "rdf:type", "singer", 98)
//	... more triples ...
//	st.Freeze()
//
//	rules := specqp.NewRuleSet()
//	rules.Add(specqp.Rule{From: ..., To: ..., Weight: 0.8})
//
//	eng := specqp.NewEngine(st, rules)
//	q, _ := eng.ParseSPARQL(`SELECT ?s WHERE { ?s 'rdf:type' <singer> . ?s 'rdf:type' <guitarist> }`)
//	res, _ := eng.Query(q, 10, specqp.ModeSpecQP)
//	for _, a := range res.Answers { ... }
package specqp

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"specqp/internal/exec"
	"specqp/internal/kg"
	"specqp/internal/planner"
	"specqp/internal/relax"
	"specqp/internal/sparql"
	"specqp/internal/stats"
	"specqp/internal/trace"
)

// Re-exported core types. These aliases form the public surface; callers
// never import internal packages directly.
type (
	// Store is the scored triple store.
	Store = kg.Store
	// ShardedStore is a Store hash-partitioned into independently-frozen
	// segments, serving queries with per-shard merged scans.
	ShardedStore = kg.ShardedStore
	// Graph is the read interface implemented by Store and ShardedStore:
	// the ten primitives (Dict, Len, Frozen, Triple, MatchList, Cardinality,
	// MaxScore, HasDuplicates, Version, Pin) the operators, the statistics
	// catalog and the engine read.
	Graph = kg.Graph
	// LiveGraph is the mutable extension of Graph: post-freeze mutations
	// applied into per-segment mutable heads, merged by Compact. Both store
	// layouts implement it.
	LiveGraph = kg.LiveGraph
	// Dict is the term dictionary.
	Dict = kg.Dict
	// ID is a dictionary-encoded term.
	ID = kg.ID
	// Triple is a scored 〈s p o〉 tuple.
	Triple = kg.Triple
	// Term is a pattern position: constant or variable.
	Term = kg.Term
	// Pattern is a triple pattern.
	Pattern = kg.Pattern
	// Query is a set of triple patterns.
	Query = kg.Query
	// Answer is a scored query answer.
	Answer = kg.Answer
	// Rule is a weighted relaxation rule.
	Rule = relax.Rule
	// RuleSet indexes relaxation rules by domain pattern.
	RuleSet = relax.RuleSet
	// Result carries answers plus efficiency metrics of one execution.
	Result = exec.Result
	// Plan is a speculative query plan.
	Plan = planner.Plan
	// QueryTrace is the execution trace QueryTraced attaches to its Result:
	// planner decisions (mode, shape key, relaxation count, planning time)
	// plus a plan-shaped tree of per-operator counters. It marshals to JSON
	// and renders as text via RenderTrace.
	QueryTrace = trace.Trace
	// TraceNode is one operator's node in a QueryTrace tree.
	TraceNode = trace.Node
)

// RenderTrace renders a QueryTrace as an indented text tree — the executed
// half of ExplainString, usable on traces decoded from the HTTP API too.
func RenderTrace(t *QueryTrace) string { return trace.Render(t) }

// Var builds a variable term (name without the leading '?').
func Var(name string) Term { return kg.Var(name) }

// Const builds a constant term from an encoded ID.
func Const(id ID) Term { return kg.Const(id) }

// NewStore returns an empty triple store with a fresh dictionary.
func NewStore() *Store { return kg.NewStore(nil) }

// NewShardedStore returns an empty sharded store with the given number of
// segments and a fresh dictionary (see Options.Shards for when to shard);
// negative counts resolve to one segment per CPU, like Options.Shards.
// Populate it with Add/AddSPO and hand it to NewEngineOver to query without
// ever materialising a flat copy of the triples.
func NewShardedStore(shards int) *ShardedStore {
	if shards < 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return kg.NewShardedStore(nil, shards)
}

// NewRuleSet returns an empty relaxation rule set.
func NewRuleSet() *RuleSet { return relax.NewRuleSet() }

// NewPattern builds a triple pattern.
func NewPattern(s, p, o Term) Pattern { return kg.NewPattern(s, p, o) }

// NewQuery builds a triple pattern query.
func NewQuery(ps ...Pattern) Query { return kg.NewQuery(ps...) }

// MineCooccurrence mines Twitter-style relaxation rules for 〈?s pred term〉
// patterns from subject/term co-occurrence: term T1 relaxes to T2 with
// weight #subjects(T1∧T2)/#subjects(T1). maxRules caps rules per term
// (0 = unlimited); minWeight drops weaker rules.
func MineCooccurrence(st Graph, pred ID, maxRules int, minWeight float64) (*RuleSet, error) {
	m := relax.CooccurrenceMiner{Pred: pred, MaxRules: maxRules, MinWeight: minWeight}
	return m.Mine(st)
}

// TypeHierarchy re-exports the taxonomy description used by
// MineTypeHierarchy.
type TypeHierarchy = relax.TypeHierarchy

// MineTypeHierarchy mines XKG-style relaxation rules for 〈?s type T〉 patterns
// from a type taxonomy: siblings, parents and grandparents of each type used
// in the store become relaxation targets.
func MineTypeHierarchy(st Graph, h TypeHierarchy) (*RuleSet, error) {
	return h.Mine(st)
}

// Mode selects the execution engine.
type Mode int

const (
	// ModeSpecQP plans speculatively and prunes relaxations (the paper's
	// contribution).
	ModeSpecQP Mode = iota
	// ModeTriniT processes every relaxation of every pattern (baseline).
	ModeTriniT
	// ModeExact executes the query with no relaxations at all: a pure rank
	// join over the original patterns' sorted lists, answering with the exact
	// unrelaxed top-k. It is the cheapest mode — no Incremental Merges, no
	// relaxed scans, no planning — and the principled degraded tier a
	// saturated server falls back to (see internal/server).
	ModeExact
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSpecQP:
		return "spec-qp"
	case ModeTriniT:
		return "trinit"
	case ModeExact:
		return "exact"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a mode name as rendered by Mode.String: "spec-qp" (or
// "specqp"), "trinit", "exact".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "spec-qp", "specqp":
		return ModeSpecQP, nil
	case "trinit":
		return ModeTriniT, nil
	case "exact":
		return ModeExact, nil
	default:
		return 0, fmt.Errorf("specqp: unknown mode %q (want spec-qp, trinit or exact)", s)
	}
}

// Options configures an Engine.
type Options struct {
	// HistogramBuckets is the per-pattern score histogram resolution.
	// 0 or 2 reproduces the paper's two-bucket model.
	HistogramBuckets int
	// EstimatedSelectivity switches the planner's join-cardinality source
	// from exact counting (the paper's setting) to an independence-based
	// estimate.
	EstimatedSelectivity bool
	// BatchWorkers bounds QueryBatch's worker pool (0 = GOMAXPROCS).
	BatchWorkers int
	// Shards selects the storage layout the engine queries. 0 or 1 keeps
	// today's flat layout. A value > 1 repartitions the store into that many
	// subject-hashed segments (frozen in parallel) and turns on parallel
	// query execution: per-pattern scans merge per-shard sorted views, and
	// independent join legs are built and prefetched concurrently. Negative
	// values select runtime.GOMAXPROCS(0) segments — the usual opt-in for
	// multi-core machines (ShardsAuto). Answers are bit-identical across
	// shard counts; Result.MemoryObjects may be higher in sharded mode
	// because prefetched-but-unconsumed entries still count.
	//
	// Memory note: the engine copies the store's triples into the segments
	// and keeps the passed Store alive for Store()/Dict(), so during the
	// engine's lifetime the triple payload exists twice — plus the flat
	// posting arenas if the store was already frozen. For memory-critical
	// giant stores, pass an unfrozen Store (its postings are then never
	// built) and drop external references to it after engine construction.
	Shards int
	// HeadLimit is the per-segment mutable-head size at which a live
	// Engine.Insert triggers automatic compaction of that segment:
	// 0 selects kg.DefaultHeadLimit, a negative value disables automatic
	// compaction entirely (call Engine.Compact explicitly).
	HeadLimit int
	// L1Limit turns on tiered compaction: a head crossing HeadLimit merges
	// into a small frozen L1 tier instead of rebuilding the segment's main
	// posting arenas, and the L1 tier folds into the main arenas only once
	// it holds L1Limit triples. 0 (the default) keeps single-level
	// compaction — every merge rebuilds the full segment. Under churn-heavy
	// mixed workloads tiering trades a second frozen probe per read for
	// merge cost proportional to the L1 size rather than the store size.
	L1Limit int
	// WALDir selects the durable write-ahead-log directory. It is consumed
	// exclusively by OpenDurable/OpenDurableWith (as the default for their
	// dir argument); NewEngineWith panics when it is set, because a non-nil
	// value there would otherwise silently produce a non-durable engine.
	WALDir string
	// SyncPolicy selects the WAL fsync discipline for durable engines:
	// SyncAlways (default — group-committed fsync before every Insert
	// returns), SyncInterval, or SyncNone.
	SyncPolicy SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval
	// (0 = wal.DefaultInterval).
	SyncInterval time.Duration
	// WALSegmentSize is the log rotation threshold in bytes
	// (0 = wal.DefaultSegmentSize).
	WALSegmentSize int64
	// CheckpointBytes is how many WAL bytes a durable engine appends
	// between automatic snapshot-and-truncate checkpoints: 0 selects
	// DefaultCheckpointBytes, negative disables automatic checkpoints
	// (Compact and Checkpoint still persist on demand).
	CheckpointBytes int64
}

// ShardsAuto is the Options.Shards sentinel selecting one shard per
// available CPU (runtime.GOMAXPROCS(0)).
const ShardsAuto = -1

// Engine bundles a store, a rule set, the statistics catalog, the
// speculative planner and the executors behind one façade. It is safe for
// concurrent queries once the store is frozen — and for concurrent Insert
// calls interleaved with queries: live inserts land in per-segment mutable
// heads, and the statistics catalog invalidates itself against the store's
// content version.
type Engine struct {
	store   *Store
	graph   kg.Graph
	rules   *RuleSet
	catalog *stats.Catalog
	planner *planner.Planner
	exec    *exec.Executor
	opts    Options
	// wal is the durability layer; nil on non-durable engines. Set only by
	// OpenDurable/OpenDurableWith (see durable.go).
	wal *walState
}

// NewEngine builds an engine over a frozen store and a rule set with default
// options.
func NewEngine(st *Store, rules *RuleSet) *Engine {
	return NewEngineWith(st, rules, Options{})
}

// NewEngineWith builds an engine with explicit options. With Options.Shards
// beyond 1 the store's triples are repartitioned into subject-hashed
// segments (frozen in parallel; st itself is left as passed) and every
// query runs through the parallel sharded read path.
func NewEngineWith(st *Store, rules *RuleSet, opts Options) *Engine {
	if opts.WALDir != "" {
		// Accepting the option here and ignoring it would hand back an
		// engine the caller believes is durable. Fail loudly instead.
		panic("specqp: Options.WALDir requires OpenDurable/OpenDurableWith, not NewEngineWith")
	}
	shards := opts.Shards
	if shards < 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	var graph kg.Graph
	if shards > 1 {
		graph = kg.NewShardedStoreFrom(st, shards)
	} else {
		if !st.Frozen() {
			st.Freeze()
		}
		graph = st
	}
	return newEngineOver(graph, st, rules, opts)
}

// NewEngineOver builds an engine directly over an existing Graph — a Store
// or a caller-built ShardedStore — without copying or repartitioning it
// (Options.Shards is ignored; the graph's own layout decides the execution
// mode). This is the memory-lean path for sharded engines: populate a
// specqp.NewShardedStore yourself and no flat copy of the triples ever
// exists. Engine.Store returns nil unless g is a *Store.
func NewEngineOver(g Graph, rules *RuleSet, opts Options) *Engine {
	if !g.Frozen() {
		switch s := g.(type) {
		case *Store:
			s.Freeze()
		case *ShardedStore:
			s.Freeze()
		}
	}
	st, _ := g.(*Store)
	return newEngineOver(g, st, rules, opts)
}

// newEngineOver wires catalog, planner and executor over graph.
// store may be nil (engines built over a non-*Store graph).
func newEngineOver(graph kg.Graph, store *Store, rules *RuleSet, opts Options) *Engine {
	buckets := opts.HistogramBuckets
	if buckets == 0 {
		buckets = 2
	}
	var counter stats.Counter
	if opts.EstimatedSelectivity {
		counter = stats.EstimatedCounter{Store: graph}
	}
	cat := stats.NewCatalog(graph, buckets, counter)
	pl := planner.New(cat, rules)
	ex := exec.New(graph, rules)
	if ss, ok := graph.(*ShardedStore); ok && ss.NumShards() > 1 {
		ex.Parallel = true
	}
	if lg, ok := graph.(kg.LiveGraph); ok {
		if opts.HeadLimit != 0 {
			lg.SetHeadLimit(opts.HeadLimit)
		}
		if opts.L1Limit > 0 {
			lg.SetL1Limit(opts.L1Limit)
		}
	}
	return &Engine{
		store:   store,
		graph:   graph,
		rules:   rules,
		catalog: cat,
		planner: pl,
		exec:    ex,
		opts:    opts,
	}
}

// Store returns the engine's triple store as passed to NewEngine. With
// Options.Shards beyond 1 the engine queries a sharded copy instead — see
// Graph. Engines built with NewEngineOver on a non-*Store graph return nil.
func (e *Engine) Store() *Store { return e.store }

// Graph returns the store layout the engine actually queries: the Store
// itself, or the ShardedStore built from it when Options.Shards asked for
// partitioning.
func (e *Engine) Graph() Graph { return e.graph }

// Rules returns the engine's rule set.
func (e *Engine) Rules() *RuleSet { return e.rules }

// ParseSPARQL parses a SPARQL-subset query against the engine's dictionary.
func (e *Engine) ParseSPARQL(src string) (Query, error) {
	pq, err := sparql.Parse(src, e.graph.Dict())
	if err != nil {
		return Query{}, err
	}
	return pq.Query, nil
}

// PatternStats re-exports the paper's per-pattern precomputed statistics
// {m, σr, Sr, Sm}.
type PatternStats = stats.PatternStats

// PatternStats computes the two-bucket statistics of a pattern's normalised
// scores — the four values the paper precomputes per triple pattern.
func (e *Engine) PatternStats(p Pattern) (PatternStats, error) {
	return stats.FitTwoBucket(kg.NormalizedScores(e.graph, p))
}

// DefaultK is the top-k used by QuerySPARQL when the query has no LIMIT.
const DefaultK = 10

// QuerySPARQL parses and executes a SPARQL-subset query in one call. The
// query's LIMIT clause selects k (DefaultK when absent).
func (e *Engine) QuerySPARQL(src string, mode Mode) (Result, error) {
	pq, err := sparql.Parse(src, e.graph.Dict())
	if err != nil {
		return Result{}, err
	}
	k := pq.Limit
	if k == 0 {
		k = DefaultK
	}
	return e.Query(pq.Query, k, mode)
}

// PlanQuery runs the speculative planner without executing, for inspection.
func (e *Engine) PlanQuery(q Query, k int) Plan {
	return e.planner.Plan(q, k)
}

// Explain renders the planner's reasoning for a plan.
func (e *Engine) Explain(p Plan) string { return e.planner.Explain(p) }

// Query executes q for the top-k answers under the chosen mode.
func (e *Engine) Query(q Query, k int, mode Mode) (Result, error) {
	return e.run(context.Background(), q, k, mode, nil, false)
}

// QueryContext is Query with cancellation support: a cancelled context
// returns the partial top-k gathered so far together with the context error,
// and a ModeSpecQP query whose context is already done returns before
// planning. It is QueryStream with a nil emitter.
func (e *Engine) QueryContext(ctx context.Context, q Query, k int, mode Mode) (Result, error) {
	return e.run(ctx, q, k, mode, nil, false)
}

// AnswerEmitter receives streamed answers in rank order the moment the
// operators prove them final. Returning false stops the query early with the
// answers emitted so far and a nil error.
type AnswerEmitter = exec.AnswerEmitFunc

// QueryStream executes q like QueryContext but hands each answer to emit the
// instant the rank join's corner bound proves no future answer can outrank
// it — for selective joins that is typically long before the full top-k is
// known, so a streaming client sees its first answer at a fraction of the
// full-drain latency. The returned Result carries exactly the answers passed
// to emit (streamed and batch consumers observe one sequence by
// construction; QueryContext is exactly QueryStream with a nil emitter).
//
// Cancellation keeps QueryContext's contract: a context expiring mid-stream
// stops the operators within a bounded number of probes (AbortStride) and
// returns the emitted prefix together with ctx.Err().
func (e *Engine) QueryStream(ctx context.Context, q Query, k int, mode Mode, emit AnswerEmitter) (Result, error) {
	return e.run(ctx, q, k, mode, emit, false)
}

// QueryTraced is QueryContext with per-query observability: the returned
// Result carries a QueryTrace recording the planner's decisions (shape key,
// relaxation count, planning time) and a plan-shaped tree of per-operator
// counters — pulls, emissions, dedup drops, bound trajectory samples, abort
// polls, arena bytes. Tracing changes only what is recorded, never what is
// computed: answers are bit-identical to QueryContext's (the oracle tests pin
// this down).
func (e *Engine) QueryTraced(ctx context.Context, q Query, k int, mode Mode) (Result, error) {
	return e.run(ctx, q, k, mode, nil, true)
}

// run is the one query path every entry point executes: validate, build the
// mode's plan, drain it through the executor, stamp planning time and the
// trace header. The modes differ only in the plan — Spec-QP plans
// speculatively, TriniT relaxes every pattern, Exact none.
func (e *Engine) run(ctx context.Context, q Query, k int, mode Mode, emit AnswerEmitter, traced bool) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("specqp: k must be >= 1, got %d", k)
	}
	if len(q.Patterns) == 0 {
		return Result{}, fmt.Errorf("specqp: empty query")
	}
	var p Plan
	var planTime time.Duration
	var shape string
	switch mode {
	case ModeSpecQP:
		// Planning is not interruptible (one exact join count plus histogram
		// convolutions), so a context already done skips it entirely.
		if err := ctx.Err(); err != nil {
			return Result{Plan: Plan{Query: q.Clone(), K: k}}, err
		}
		t0 := time.Now()
		p = e.planner.Plan(q, k)
		planTime = time.Since(t0)
		if traced {
			shape = planner.ShapeKey(q, k)
		}
	case ModeTriniT:
		p = planner.TriniTPlan(q, k)
	case ModeExact:
		p = planner.ExactPlan(q, k)
	default:
		return Result{}, fmt.Errorf("specqp: unknown mode %v", mode)
	}
	res, err := e.exec.Run(ctx, p, exec.RunOpts{Emit: emit, Trace: traced})
	res.PlanTime = planTime
	if res.Trace != nil {
		res.Trace.Mode = mode.String()
		res.Trace.ShapeKey = shape
		res.Trace.Relaxations = p.NumRelaxed()
		res.Trace.PlanUS = planTime.Microseconds()
	}
	return res, err
}

// ExplainString executes q traced and renders both halves of the story: the
// planner's reasoning (what it speculated and why — ModeSpecQP only; the
// other modes have no speculative plan to explain) followed by the executed
// trace tree with per-operator counters. This is what `specqp -explain`
// prints.
func (e *Engine) ExplainString(ctx context.Context, q Query, k int, mode Mode) (string, error) {
	res, err := e.QueryTraced(ctx, q, k, mode)
	if err != nil {
		return "", err
	}
	var out string
	if mode == ModeSpecQP {
		out = e.planner.Explain(res.Plan)
	}
	return out + trace.Render(res.Trace), nil
}

// Insert adds a scored triple to the engine's live store: the triple lands
// in its segment's mutable head, is immediately visible to every subsequent
// query, and is merged into the frozen posting arenas when the head crosses
// Options.HeadLimit or Compact is called. Safe for concurrent use with
// queries and other mutations. A negative, NaN or infinite score is
// rejected before anything is logged or applied. Note that with
// Options.Shards beyond 1 the engine queries a sharded copy of the store
// passed to NewEngineWith — the insert lands there, and Engine.Store() no
// longer reflects the live contents (Engine.Graph() always does).
//
// On a durable engine (OpenDurable) the insert is first framed into the
// write-ahead log and Insert returns only once the record is durable per
// Options.SyncPolicy — concurrent inserters share fsyncs through group
// commit — so every acknowledged Insert survives a crash. An Insert that
// returns an error is *indeterminate*, exactly like an unacked write to any
// database: the triple may be visible to queries on this process (applied
// before the commit failed) and may or may not survive recovery. A commit
// failure wedges the log — every later mutation fails and checkpoints are
// refused, so durable state stays at the last consistent prefix.
func (e *Engine) Insert(t Triple) error {
	_, err := e.mutate(kg.Mutation{Op: kg.OpInsert, Triple: t})
	return err
}

// InsertSPO encodes the three terms against the engine's dictionary and
// inserts the triple live.
func (e *Engine) InsertSPO(s, p, o string, score float64) error {
	d := e.graph.Dict()
	return e.Insert(Triple{S: d.Encode(s), P: d.Encode(p), O: d.Encode(o), Score: score})
}

// Delete retracts every live copy of the 〈s p o〉 key from the engine's
// store — frozen copies, L1-tier copies and head copies alike — and returns
// how many were removed. The retraction is immediately visible to every
// subsequent query (the statistics catalog invalidates through the
// content version); pinned snapshots taken before the delete keep seeing the
// old state. Deleting a key with no live copies is a no-op that still
// returns (0, nil). Requires a frozen store, like Insert.
//
// On a durable engine the tombstone is framed into the write-ahead log
// before the retraction applies, with the same acknowledgement contract as
// Insert: when Delete returns nil the retraction survives a crash, and a
// deleted fact is never resurrected by recovery.
func (e *Engine) Delete(s, p, o ID) (int, error) {
	return e.mutate(kg.Mutation{Op: kg.OpDelete, Triple: Triple{S: s, P: p, O: o}})
}

// DeleteSPO looks the three terms up in the engine's dictionary and deletes
// the key. Unknown terms cannot name a stored fact, so they short-circuit to
// (0, nil) without touching the store — or, on a durable engine, the log.
func (e *Engine) DeleteSPO(s, p, o string) (int, error) {
	d := e.graph.Dict()
	si, ok1 := d.Lookup(s)
	pi, ok2 := d.Lookup(p)
	oi, ok3 := d.Lookup(o)
	if !ok1 || !ok2 || !ok3 {
		return 0, nil
	}
	return e.Delete(si, pi, oi)
}

// Update re-scores the 〈s p o〉 key latest-wins: every live copy is retracted
// and one copy with t.Score takes its place, atomically from the point of
// view of concurrent queries (no interleaving observes the key absent or
// doubled). Updating a key with no live copies inserts it. Scores are
// validated as for Insert.
//
// On a durable engine the update logs as one KindUpdate record and Update
// returns nil once it is durable. A follower replicating the log applies
// that record as one mutation and publishes it as one snapshot, so the
// guarantee extends to replicas: no query on a follower observes the key
// absent or doubled either.
func (e *Engine) Update(t Triple) error {
	_, err := e.mutate(kg.Mutation{Op: kg.OpUpdate, Triple: t})
	return err
}

// UpdateSPO encodes the three terms against the engine's dictionary and
// applies the latest-wins re-score.
func (e *Engine) UpdateSPO(s, p, o string, score float64) error {
	d := e.graph.Dict()
	return e.Update(Triple{S: d.Encode(s), P: d.Encode(p), O: d.Encode(o), Score: score})
}

// mutate is the one write path behind the six mutators: a durable engine
// logs m and applies it under the WAL's ordering mutex (walState.apply);
// otherwise m applies directly and any compaction it triggered runs on this
// goroutine.
func (e *Engine) mutate(m kg.Mutation) (int, error) {
	lg, ok := e.graph.(kg.LiveGraph)
	if !ok {
		return 0, fmt.Errorf("specqp: %T does not support live mutations", e.graph)
	}
	if e.wal != nil {
		return e.wal.apply(lg, m)
	}
	removed, compact, err := lg.Apply(m)
	if compact != nil {
		compact()
	}
	return removed, err
}

// Compact merges every pending mutable head into its frozen segment
// (per-shard, in parallel, without blocking concurrent queries). Answers are
// bit-identical before and after; only the read-path cost changes — frozen
// segments serve zero-allocation match-list views, heads pay a small merge.
// On a durable engine Compact also checkpoints: the frozen state is
// persisted through the binary snapshot format and the log segments it
// covers are truncated. The returned error is always nil on non-durable
// engines.
func (e *Engine) Compact() error {
	if lg, ok := e.graph.(kg.LiveGraph); ok {
		lg.Compact()
	}
	return e.Checkpoint()
}

// DecodeAnswer renders an answer's bindings as variable→term strings.
func (e *Engine) DecodeAnswer(q Query, a Answer) map[string]string {
	vs := kg.NewVarSet(q)
	out := make(map[string]string, vs.Len())
	for i := 0; i < vs.Len(); i++ {
		if a.Binding[i] != kg.NoID {
			out[vs.Name(i)] = e.graph.Dict().Decode(a.Binding[i])
		}
	}
	return out
}
