package specqp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"specqp/internal/kg"
)

// This file is the sharded engine's correctness contract: across shard
// counts {1, 2, 3, 7, 16} and all three execution modes, answers must be
// bit-identical to the unsharded engine, and — for the exhaustive modes —
// consistent with the kg.Evaluate oracle. Spec-QP's guarantee
// is exactly a rewriting-equivalence property (speculative plans must return
// what exhaustive evaluation returns), which is easy to break silently under
// parallel execution; these tests pin it.

var oracleShardCounts = []int{1, 2, 3, 7, 16}

// randomEngineFixture builds a randomized scored store (score ties and
// duplicate triples included), a co-occurrence-style rule set over its
// object constants, and a batch of 2–3 pattern join queries.
func randomEngineFixture(t testing.TB, seed int64) (*Store, *RuleSet, []Query) {
	t.Helper()
	dict, triples, rules, queries := randomLiveFixture(t, seed)
	st := kg.NewStore(dict)
	for _, tr := range triples {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	return st, rules, queries
}

// randomLiveFixture is randomEngineFixture with the triple sequence exposed
// as a stream instead of pre-loaded into a store, so live-ingest tests can
// replay arbitrary prefixes through Insert and rebuild flat oracles at any
// interleaving point. The rng consumption order matches the original
// fixture exactly, keeping every seeded test's data stable.
func randomLiveFixture(t testing.TB, seed int64) (*kg.Dict, []Triple, *RuleSet, []Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dict := kg.NewDict()
	for dict.Len() < 16 {
		dict.Encode(fmt.Sprintf("t%d", dict.Len()))
	}
	n := 150 + rng.Intn(150)
	triples := make([]Triple, 0, n+n/4)
	for i := 0; i < n; i++ {
		tr := Triple{
			S:     ID(rng.Intn(8)),
			P:     ID(8 + rng.Intn(3)),
			O:     ID(11 + rng.Intn(5)),
			Score: float64(1 + rng.Intn(25)), // small range forces score ties
		}
		triples = append(triples, tr)
		if rng.Intn(4) == 0 {
			tr.Score = float64(1 + rng.Intn(25))
			triples = append(triples, tr)
		}
	}

	rules := NewRuleSet()
	for p := 8; p < 11; p++ {
		for o := 11; o < 16; o++ {
			if rng.Intn(3) != 0 {
				continue
			}
			to := 11 + rng.Intn(5)
			if to == o {
				to = 11 + (o-11+1)%5
			}
			r := Rule{
				From:   NewPattern(Var("s"), Const(ID(p)), Const(ID(o))),
				To:     NewPattern(Var("s"), Const(ID(p)), Const(ID(to))),
				Weight: 0.3 + rng.Float64()*0.6,
			}
			if err := rules.Add(r); err != nil {
				t.Fatal(err)
			}
		}
	}

	var queries []Query
	for qi := 0; qi < 6; qi++ {
		names := []string{"x", "y", "z", "w"}
		np := 2 + rng.Intn(2)
		var ps []Pattern
		for i := 0; i < np; i++ {
			s := Var(names[i])
			if rng.Intn(4) == 0 {
				s = Var(names[0])
			}
			p := Const(ID(8 + rng.Intn(3)))
			o := Term(Var(names[i+1]))
			if rng.Intn(2) == 0 {
				o = Const(ID(11 + rng.Intn(5)))
			}
			ps = append(ps, NewPattern(s, p, o))
		}
		queries = append(queries, NewQuery(ps...))
	}
	return dict, triples, rules, queries
}

// sameAnswers asserts two answer lists are bit-identical: same length, same
// order, equal bindings, exactly equal scores and provenance masks.
func sameAnswers(t *testing.T, label string, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Binding.Compare(w.Binding) != 0 {
			t.Fatalf("%s: rank %d binding %v, want %v", label, i, g.Binding, w.Binding)
		}
		if g.Score != w.Score {
			t.Fatalf("%s: rank %d score %v, want %v (diff %g)", label, i, g.Score, w.Score, g.Score-w.Score)
		}
		if g.Relaxed != w.Relaxed {
			t.Fatalf("%s: rank %d relaxed mask %b, want %b", label, i, g.Relaxed, w.Relaxed)
		}
	}
}

// TestShardedEnginesBitIdentical is the oracle property test of the sharded
// engine: for randomized stores, every shard count returns exactly the
// unsharded engine's answers under both paper engines and the naive
// reference — order, scores, relaxation provenance and the Spec-QP plan's
// relaxation decisions included.
func TestShardedEnginesBitIdentical(t *testing.T) {
	for trial := int64(0); trial < 5; trial++ {
		st, rules, queries := randomEngineFixture(t, 3100+trial)
		base := NewEngineWith(st, rules, Options{Shards: 1})
		for _, shards := range oracleShardCounts[1:] {
			eng := NewEngineWith(st, rules, Options{Shards: shards})
			if g, ok := eng.Graph().(*ShardedStore); !ok || g.NumShards() != shards {
				t.Fatalf("shards=%d: engine graph is %T", shards, eng.Graph())
			}
			for qi, q := range queries {
				k := 1 + int(trial)%9 + qi
				label := fmt.Sprintf("trial %d shards=%d query %d k=%d", trial, shards, qi, k)
				for _, mode := range []Mode{ModeSpecQP, ModeTriniT} {
					want, err := base.Query(q, k, mode)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eng.Query(q, k, mode)
					if err != nil {
						t.Fatal(err)
					}
					sameAnswers(t, fmt.Sprintf("%s mode %v", label, mode), got.Answers, want.Answers)
					if mode == ModeSpecQP && got.Plan.RelaxMask() != want.Plan.RelaxMask() {
						t.Fatalf("%s: plan relax mask %b, want %b", label, got.Plan.RelaxMask(), want.Plan.RelaxMask())
					}
				}
				sameAnswers(t, label+" naive", naiveQuery(eng, q, k).Answers, naiveQuery(base, q, k).Answers)
			}
		}
	}
}

// TestShardedEnginesMatchEvaluateOracle checks the engines and the naive
// reference against the ground-truth evaluator on the *flat* store: with no
// rules every one must return the oracle's top-k exactly, at every shard
// count. With rules, Naive is compared against its own unsharded run —
// already covered above — so this test drops the rules to make Evaluate the
// direct oracle.
func TestShardedEnginesMatchEvaluateOracle(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		st, _, queries := randomEngineFixture(t, 5200+trial)
		empty := NewRuleSet()
		for _, shards := range oracleShardCounts {
			eng := NewEngineWith(st, empty, Options{Shards: shards})
			for qi, q := range queries {
				oracle := kg.Evaluate(st, q, nil)
				const k = 10
				results := map[string]Result{"naive": naiveQuery(eng, q, k)}
				for _, mode := range []Mode{ModeSpecQP, ModeTriniT} {
					res, err := eng.Query(q, k, mode)
					if err != nil {
						t.Fatal(err)
					}
					results[mode.String()] = res
				}
				for arm, res := range results {
					label := fmt.Sprintf("trial %d shards=%d query %d %s", trial, shards, qi, arm)
					wantLen := k
					if len(oracle) < k {
						wantLen = len(oracle)
					}
					if len(res.Answers) != wantLen {
						t.Fatalf("%s: %d answers, oracle has %d (want %d)", label, len(res.Answers), len(oracle), wantLen)
					}
					for i, a := range res.Answers {
						// Scores at each rank must match the oracle exactly;
						// the binding must be an oracle answer with that
						// score (equal-score ranks may permute bindings
						// between oracle sort order and stream emission
						// order, both valid top-k).
						if math.Abs(a.Score-oracle[i].Score) > 1e-9 {
							t.Fatalf("%s: rank %d score %v, oracle %v", label, i, a.Score, oracle[i].Score)
						}
						found := false
						for _, oa := range oracle {
							if oa.Binding.Compare(a.Binding) == 0 {
								if math.Abs(oa.Score-a.Score) > 1e-9 {
									t.Fatalf("%s: binding %v score %v, oracle %v", label, a.Binding, a.Score, oa.Score)
								}
								found = true
								break
							}
						}
						if !found {
							t.Fatalf("%s: rank %d binding %v not in oracle", label, i, a.Binding)
						}
					}
				}
			}
		}
	}
}

// TestNewEngineOverShardedStore pins the copy-free construction path: a
// caller-built ShardedStore handed to NewEngineOver answers bit-identically
// to the flat engine over the same triple sequence, with no flat Store ever
// materialised (Engine.Store is nil).
func TestNewEngineOverShardedStore(t *testing.T) {
	st, rules, queries := randomEngineFixture(t, 880)
	// The fixture's rule constants were interned in st's dict; share it so
	// the IDs line up (kg.NewShardedStore takes a dict; the public
	// NewShardedStore wraps it with a fresh one).
	ss := kg.NewShardedStore(st.Dict(), 5)
	for i := 0; i < st.Len(); i++ {
		if err := ss.Add(st.Triple(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngineOver(ss, rules, Options{})
	if eng.Store() != nil {
		t.Fatal("engine over a sharded graph should have no flat store")
	}
	if !eng.Graph().Frozen() {
		t.Fatal("NewEngineOver did not freeze the graph")
	}
	// The dictionary-backed façade methods must work without a flat store:
	// ParseSPARQL, QuerySPARQL and DecodeAnswer all read the graph's dict.
	pq, err := eng.ParseSPARQL("SELECT ?x WHERE { ?x <t8> ?y }")
	if err != nil {
		t.Fatalf("ParseSPARQL over sharded-only engine: %v", err)
	}
	res, err := eng.QuerySPARQL("SELECT ?x WHERE { ?x <t8> ?y } LIMIT 3", ModeSpecQP)
	if err != nil {
		t.Fatalf("QuerySPARQL over sharded-only engine: %v", err)
	}
	for _, a := range res.Answers {
		if dec := eng.DecodeAnswer(pq, a); len(dec) == 0 {
			t.Fatal("DecodeAnswer returned no bindings")
		}
	}
	base := NewEngineWith(st, rules, Options{})
	for qi, q := range queries {
		for _, mode := range []Mode{ModeSpecQP, ModeTriniT} {
			want, err := base.Query(q, 10, mode)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Query(q, 10, mode)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, fmt.Sprintf("NewEngineOver query %d mode %v", qi, mode), got.Answers, want.Answers)
		}
		sameAnswers(t, fmt.Sprintf("NewEngineOver query %d naive", qi),
			naiveQuery(eng, q, 10).Answers, naiveQuery(base, q, 10).Answers)
	}
}

// TestLiveInterleavedOracle is the live-ingest acceptance test: random
// interleavings of Insert, per-shard Compact, whole-store Compact and Query
// against a live sharded engine must be bit-identical — answers, scores,
// relaxation provenance, Spec-QP plan decisions — to a flat engine rebuilt
// from scratch over the same triple prefix, at every checkpoint, across the
// whole shard-count ladder, both paper engines and the naive reference.
// Trials rotate the head limit through aggressive auto-compaction (5),
// manual-only (-1) and the default, so checkpoints land on every head/frozen
// mixture.
func TestLiveInterleavedOracle(t *testing.T) {
	headLimits := []int{5, -1, 0}
	for trial := int64(0); trial < 3; trial++ {
		dict, triples, rules, queries := randomLiveFixture(t, 9500+trial)
		base := len(triples) * 3 / 5
		headLimit := headLimits[trial%3]
		for _, shards := range oracleShardCounts {
			ss := kg.NewShardedStore(dict, shards)
			for _, tr := range triples[:base] {
				if err := ss.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			eng := NewEngineOver(ss, rules, Options{HeadLimit: headLimit})
			live, ok := eng.Graph().(LiveGraph)
			if !ok {
				t.Fatalf("engine graph %T is not a LiveGraph", eng.Graph())
			}
			pos := base
			check := func() {
				t.Helper()
				flat := kg.NewStore(dict)
				for _, tr := range triples[:pos] {
					if err := flat.Add(tr); err != nil {
						t.Fatal(err)
					}
				}
				flat.Freeze()
				ref := NewEngineWith(flat, rules, Options{Shards: 1})
				for qi, q := range queries[:3] {
					k := 3 + qi + int(trial)
					label := fmt.Sprintf("trial %d shards=%d pos=%d/%d head=%d query %d k=%d",
						trial, shards, pos, len(triples), live.HeadLen(), qi, k)
					for _, mode := range []Mode{ModeSpecQP, ModeTriniT} {
						want, err := ref.Query(q, k, mode)
						if err != nil {
							t.Fatal(err)
						}
						got, err := eng.Query(q, k, mode)
						if err != nil {
							t.Fatal(err)
						}
						sameAnswers(t, fmt.Sprintf("%s mode %v", label, mode), got.Answers, want.Answers)
						if mode == ModeSpecQP && got.Plan.RelaxMask() != want.Plan.RelaxMask() {
							t.Fatalf("%s: plan relax mask %b, want %b", label, got.Plan.RelaxMask(), want.Plan.RelaxMask())
						}
					}
					sameAnswers(t, label+" naive", naiveQuery(eng, q, k).Answers, naiveQuery(ref, q, k).Answers)
				}
			}
			check() // freeze point, before any live insert
			// One op schedule per shard count (re-seeded), so every shard
			// count is checked at identical interleaving points.
			opRng := rand.New(rand.NewSource(777 + trial))
			for pos < len(triples) {
				switch op := opRng.Intn(14); {
				case op < 10:
					if err := eng.Insert(triples[pos]); err != nil {
						t.Fatal(err)
					}
					pos++
				case op == 10:
					eng.Compact()
				case op == 11:
					ss.CompactShard(opRng.Intn(shards))
				default:
					check()
				}
			}
			check() // every triple inserted, final state
			if headLimit == 5 && live.Compactions() == 0 {
				t.Fatalf("shards=%d: no automatic compaction with head limit 5", shards)
			}
			if got, want := eng.Graph().Len(), len(triples); got != want {
				t.Fatalf("shards=%d: live store has %d triples, streamed %d", shards, got, want)
			}
		}
	}
}

// TestLiveQueryBatchStatsInvalidation pins the engine-level cache plumbing
// the oracle relies on: a QueryBatch answer computed before an insert must
// not be replayed from the statistics catalog after the insert changed the
// store's contents.
func TestLiveQueryBatchStatsInvalidation(t *testing.T) {
	dict, triples, rules, queries := randomLiveFixture(t, 4242)
	base := len(triples) / 2
	ss := kg.NewShardedStore(dict, 3)
	for _, tr := range triples[:base] {
		if err := ss.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngineOver(ss, rules, Options{HeadLimit: -1})
	ctx := context.Background()
	if _, err := eng.QueryBatch(ctx, queries, 8, ModeSpecQP); err != nil {
		t.Fatal(err) // warm the statistics catalog against the pre-insert store
	}
	for _, tr := range triples[base:] {
		if err := eng.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	flat := kg.NewStore(dict)
	for _, tr := range triples {
		if err := flat.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	flat.Freeze()
	ref := NewEngineWith(flat, rules, Options{Shards: 1})
	results, err := eng.QueryBatch(ctx, queries, 8, ModeSpecQP)
	if err != nil {
		t.Fatal(err)
	}
	for qi, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", qi, r.Err)
		}
		want, err := ref.Query(queries[qi], 8, ModeSpecQP)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, fmt.Sprintf("post-insert batch query %d", qi), r.Result.Answers, want.Answers)
		if r.Result.Plan.RelaxMask() != want.Plan.RelaxMask() {
			t.Fatalf("query %d: stale plan relax mask %b, want %b", qi, r.Result.Plan.RelaxMask(), want.Plan.RelaxMask())
		}
	}
}

// TestShardedQueryContextCancellation smoke-tests the cancellation path over
// a sharded engine: background prefetchers must be released (the -race build
// and the goroutine-leak-adjacent Prefetch stop test in operators cover the
// mechanics; this pins the public API path).
func TestShardedQueryContextCancellation(t *testing.T) {
	st, rules, queries := randomEngineFixture(t, 77)
	eng := NewEngineWith(st, rules, Options{Shards: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range queries {
		if _, err := eng.QueryContext(ctx, q, 5, ModeSpecQP); err == nil {
			t.Fatal("cancelled context returned no error")
		}
	}
}
