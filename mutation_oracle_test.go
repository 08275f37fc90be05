package specqp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"specqp/internal/kg"
)

// This file extends the live-ingest oracle to full mutability: random
// interleavings of Insert, Delete, Update, per-shard and whole-store Compact
// against a live sharded engine must be bit-identical — answers, scores,
// relaxation provenance, Spec-QP plan decisions — to a flat engine rebuilt
// from scratch over the *surviving* facts at every checkpoint, across the
// shard-count ladder, all three execution modes, with and without the tiered
// L1 compaction level.

// survivorModel replays insert/delete/update against a flat fact list with
// retraction-of-every-copy and latest-wins semantics — the ground truth the
// tombstone machinery must reproduce.
type survivorModel struct {
	facts []Triple
}

func (m *survivorModel) insert(tr Triple) { m.facts = append(m.facts, tr) }

func (m *survivorModel) delete(s, p, o ID) int {
	kept := m.facts[:0]
	removed := 0
	for _, f := range m.facts {
		if f.S == s && f.P == p && f.O == o {
			removed++
			continue
		}
		kept = append(kept, f)
	}
	m.facts = kept
	return removed
}

func (m *survivorModel) update(tr Triple) {
	m.delete(tr.S, tr.P, tr.O)
	m.facts = append(m.facts, tr)
}

// TestMutatedInterleavedOracle is the full-mutability acceptance test.
func TestMutatedInterleavedOracle(t *testing.T) {
	for trial := int64(0); trial < 2; trial++ {
		dict, triples, rules, queries := randomLiveFixture(t, 6400+trial)
		base := len(triples) / 2
		l1Limit := 0
		if trial%2 == 1 {
			l1Limit = 16 // small enough that L1 folds mid-schedule
		}
		for _, shards := range oracleShardCounts {
			ss := kg.NewShardedStore(dict, shards)
			for _, tr := range triples[:base] {
				if err := ss.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			eng := NewEngineOver(ss, rules, Options{HeadLimit: 6, L1Limit: l1Limit})
			live, ok := eng.Graph().(LiveGraph)
			if !ok {
				t.Fatalf("engine graph %T is not a LiveGraph", eng.Graph())
			}
			model := &survivorModel{facts: append([]Triple(nil), triples[:base]...)}
			pos := base
			check := func() {
				t.Helper()
				flat := kg.NewStore(dict)
				for _, tr := range model.facts {
					if err := flat.Add(tr); err != nil {
						t.Fatal(err)
					}
				}
				flat.Freeze()
				ref := NewEngineWith(flat, rules, Options{Shards: 1})
				for qi, q := range queries[:3] {
					k := 3 + qi + int(trial)
					label := fmt.Sprintf("trial %d shards=%d l1=%d pos=%d survivors=%d tombs=%d query %d k=%d",
						trial, shards, l1Limit, pos, len(model.facts), live.Tombstones(), qi, k)
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
			// randomKey picks a key biased toward live facts so deletes and
			// updates usually hit something.
			opRng := rand.New(rand.NewSource(410 + trial))
			randomKey := func() (ID, ID, ID) {
				if len(model.facts) > 0 && opRng.Intn(5) != 0 {
					f := model.facts[opRng.Intn(len(model.facts))]
					return f.S, f.P, f.O
				}
				return ID(opRng.Intn(8)), ID(8 + opRng.Intn(3)), ID(11 + opRng.Intn(5))
			}
			check() // freeze point, before any mutation
			for pos < len(triples) {
				switch op := opRng.Intn(18); {
				case op < 9:
					if err := eng.Insert(triples[pos]); err != nil {
						t.Fatal(err)
					}
					model.insert(triples[pos])
					pos++
				case op < 12:
					s, p, o := randomKey()
					removed, err := eng.Delete(s, p, o)
					if err != nil {
						t.Fatal(err)
					}
					if want := model.delete(s, p, o); removed != want {
						t.Fatalf("shards=%d: Delete removed %d copies, model says %d", shards, removed, want)
					}
				case op < 14:
					s, p, o := randomKey()
					tr := Triple{S: s, P: p, O: o, Score: float64(1 + opRng.Intn(25))}
					if err := eng.Update(tr); err != nil {
						t.Fatal(err)
					}
					model.update(tr)
				case op == 14:
					eng.Compact()
				case op == 15:
					ss.CompactShard(opRng.Intn(shards))
				default:
					check()
				}
			}
			check() // end of stream
			eng.Compact()
			if live.Tombstones() != 0 {
				t.Fatalf("shards=%d: full Compact left %d tombstones", shards, live.Tombstones())
			}
			check() // fully compacted, tombstones GC'd
			if got, want := live.LiveLen(), len(model.facts); got != want {
				t.Fatalf("shards=%d: live store has %d facts, model has %d", shards, got, want)
			}
		}
	}
}

// TestMutateQueryRaceHammer is the -race companion to the oracle: concurrent
// writers (insert/delete/update/compact) and readers (both paper engines and
// the naive reference) over one live sharded engine. Readers don't check
// answers against a moving target — the oracle above owns semantics — they
// check that every answer set is internally consistent and that the
// snapshot isolation the storeState pointer promises holds under churn (no
// panics, no torn reads, -race clean).
func TestMutateQueryRaceHammer(t *testing.T) {
	dict, triples, rules, queries := randomLiveFixture(t, 8181)
	base := len(triples) / 2
	ss := kg.NewShardedStore(dict, 4)
	for _, tr := range triples[:base] {
		if err := ss.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngineOver(ss, rules, Options{HeadLimit: 8, L1Limit: 32})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One mutator: the live-write API is single-writer by contract.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 3000; i++ {
			tr := triples[base+i%(len(triples)-base)]
			switch rng.Intn(10) {
			case 0:
				if _, err := eng.Delete(tr.S, tr.P, tr.O); err != nil {
					t.Error(err)
					return
				}
			case 1:
				up := tr
				up.Score = float64(1 + rng.Intn(25))
				if err := eng.Update(up); err != nil {
					t.Error(err)
					return
				}
			case 2:
				eng.Compact()
			default:
				if err := eng.Insert(tr); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(w+i)%len(queries)]
				var res Result
				var err error
				switch i % 3 {
				case 0:
					res, err = eng.Query(q, 5, ModeSpecQP)
				case 1:
					res, err = eng.Query(q, 5, ModeTriniT)
				default:
					res = naiveQuery(eng, q, 5)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for r := 1; r < len(res.Answers); r++ {
					if res.Answers[r].Score > res.Answers[r-1].Score {
						t.Errorf("worker %d: answers out of score order", w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
