package main

import (
	"specqp/internal/planner"
	"specqp/internal/stats"
)

// probePlanner runs PLANGEN over the workload queries on a fresh catalog
// (cold: statistics and the exact join count are derived inside the call)
// and again once they are cached (warm: PLANGEN alone).
func probePlanner(e *probeEnv, v map[string]float64) error {
	pl := planner.New(stats.NewCatalog(e.corp.ds.Store, 2, nil), e.corp.ds.Rules)
	qs := e.corp.queries
	i := 0
	plan := func() { pl.Plan(qs[i%len(qs)], queryK); i++ }
	v["planner.plan_cold_us"] = us(perOp(len(qs), plan))
	v["planner.plan_warm_us"] = us(perOp(10*len(qs), plan))
	return nil
}
