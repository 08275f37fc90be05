package main

import (
	"fmt"
	"time"

	"specqp"
	"specqp/internal/kg"
	"specqp/internal/operators"
)

// probeOperators drains each physical operator over patterns of the
// workload's first query: scans per entry, joins per answer.
func probeOperators(e *probeEnv, v map[string]float64) error {
	st := e.corp.ds.Store
	q := e.corp.queries[0]
	if len(q.Patterns) < 2 {
		return fmt.Errorf("first workload query has %d patterns, need 2", len(q.Patterns))
	}
	q = kg.NewQuery(q.Patterns[0], q.Patterns[1])
	vs := kg.NewVarSet(q)
	pat := q.Patterns[0]

	perEntry := func(reps int, drain func() int) float64 {
		n := 0
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			n += drain()
		}
		return float64(time.Since(t0)) / float64(max(n, 1))
	}
	v["operators.listscan_ns_per_entry"] = perEntry(50, func() int {
		return len(operators.Drain(operators.NewListScan(st, vs, pat, 1, 0, nil)))
	})
	ss := kg.NewShardedStoreFrom(st, max(e.c.procs, 2))
	v["operators.shardedscan_ns_per_entry"] = perEntry(50, func() int {
		return len(operators.Drain(operators.NewShardedListScan(ss, vs, pat, 1, 0, nil)))
	})
	rules := e.corp.ds.Rules.For(pat)
	v["operators.incmerge_ns_per_entry"] = perEntry(50, func() int {
		inputs := []operators.Stream{operators.NewListScan(st, vs, pat, 1, 0, nil)}
		for _, r := range rules {
			inputs = append(inputs, operators.NewListScan(st, vs, r.To, r.Weight, 1, nil))
		}
		return len(operators.DrainK(operators.NewIncrementalMerge(inputs, nil), 1000))
	})
	jv := operators.JoinVars(operators.PatternBoundVars(vs, q.Patterns[0]), operators.PatternBoundVars(vs, q.Patterns[1]))
	scan := func(i int) *operators.ListScan { return operators.NewListScan(st, vs, q.Patterns[i], 1, 0, nil) }
	v["operators.rankjoin_ns_per_answer"] = perEntry(50, func() int {
		return len(operators.DrainK(operators.NewRankJoin(scan(0), scan(1), jv, nil), queryK))
	})
	v["operators.nrjn_ns_per_answer"] = perEntry(50, func() int {
		return len(operators.DrainK(operators.NewNRJN(scan(0), scan(1), jv, nil), queryK))
	})
	i := 0
	v["operators.allocs_per_query"] = allocsPerOp(len(e.corp.queries), func() {
		e.eng.Query(e.corp.queries[i%len(e.corp.queries)], queryK, specqp.ModeSpecQP)
		i++
	})
	return nil
}
