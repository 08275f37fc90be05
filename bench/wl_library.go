package main

import (
	"fmt"
	"math/rand"
	"time"

	"specqp"
)

// libInstance is xkg_specqp / xkg_trinit: one caller, closed loop, straight
// into Engine.Query on a flat in-memory store.
type libInstance struct {
	corp  *corpus
	eng   *specqp.Engine
	mode  specqp.Mode
	pairs []pair
	ref   []specqp.Result // the warm pass: every later pass must equal it
	seed  int64
}

func setupLibrary(c *config, mode specqp.Mode) (instance, error) {
	corp, err := generate("xkg", c.scale)
	if err != nil {
		return nil, err
	}
	in := &libInstance{
		corp:  corp,
		eng:   specqp.NewEngineWith(corp.ds.Store, corp.ds.Rules, specqp.Options{}),
		mode:  mode,
		pairs: pairsOf(len(corp.queries), 10, 15, 20),
		seed:  c.seed,
	}
	in.ref = make([]specqp.Result, len(in.pairs))
	for i, p := range in.pairs {
		if in.ref[i], err = in.eng.Query(corp.queries[p.q], p.k, mode); err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
	}
	return in, nil
}

func (in *libInstance) corpus() *corpus { return in.corp }
func (in *libInstance) close()          {}

// librarySchedule is the order the pairs are issued in: whole passes, each a
// fresh permutation, so every pass holds every pair once and the latency
// sample keeps the same mix however many passes fit the window.
type librarySchedule struct {
	rng   *rand.Rand
	pairs int
}

func newLibrarySchedule(seed int64, pairs int) *librarySchedule {
	return &librarySchedule{rand.New(rand.NewSource(seed)), pairs}
}

func (s *librarySchedule) nextPass() []int { return s.rng.Perm(s.pairs) }

func (in *libInstance) run(d time.Duration, rec *recorder, tail bool) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}, segment: len(in.pairs)}
	acc := newQueryAcc(in.eng)
	sched := newLibrarySchedule(in.seed, len(in.pairs))
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for _, i := range sched.nextPass() {
			p := in.pairs[i]
			acc.seeVersion(in.eng)
			t0 := time.Now()
			res, err := in.eng.Query(in.corp.queries[p.q], p.k, in.mode)
			t1 := time.Now()
			out.attempted++
			out.ops = append(out.ops, t1.Sub(t0))
			out.ends = append(out.ends, t1.Sub(start))
			if err != nil {
				out.fail("pair %d: %v", i, err)
				continue
			}
			if !sameRaw(res.Answers, in.ref[i].Answers) || res.MemoryObjects != in.ref[i].MemoryObjects {
				out.fail("pair %d (query %d, k=%d): pass %d differs from the warm pass", i, p.q, p.k, pass)
			}
			acc.add(t1.Sub(t0), res.PlanTime, res.ExecTime, len(res.Answers), res.MemoryObjects)
			if rec != nil {
				req := rec.request()
				id := rec.add("specqp.query", 0, req, t0, t1)
				rec.derive(id, req, t0, namedDur{"planner.plan", res.PlanTime}, namedDur{"exec.run", res.ExecTime})
			}
		}
	}
	out.wall = time.Since(start)
	acc.into(out.layer, in.eng)
	if tail {
		if err := quality(in.eng, in.corp.queries, in.pairs, in.mode, in.ref, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
