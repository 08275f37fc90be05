package main

import (
	"time"

	"specqp/internal/kg"
	"specqp/internal/stats"
)

// probeStats times the catalog's cold calls — what every query after a
// store-version move pays again — on a fresh stats.NewCatalog.
func probeStats(e *probeEnv, v map[string]float64) error {
	st := e.corp.ds.Store
	cat := stats.NewCatalog(st, 2, nil)
	var dists []stats.PiecewiseConst
	var distTime, countTime time.Duration
	seen := map[kg.PatternKey]bool{}
	patterns := 0
	for _, q := range e.corp.queries {
		for _, p := range q.Patterns {
			if seen[p.Key()] {
				continue
			}
			seen[p.Key()] = true
			t0 := time.Now()
			d, _, ok := cat.PatternDist(p)
			distTime += time.Since(t0)
			patterns++
			if ok {
				dists = append(dists, d)
			}
		}
		t0 := time.Now()
		cat.QueryCount(q)
		countTime += time.Since(t0)
	}
	v["stats.pattern_dist_us"] = us(distTime) / float64(max(patterns, 1))
	v["stats.exact_count_us"] = us(countTime) / float64(len(e.corp.queries))
	if len(dists) >= 2 {
		i := 0
		v["stats.convolve_us"] = us(perOp(2000, func() {
			stats.Convolve(dists[i%len(dists)], dists[(i+1)%len(dists)]).InvCDF(0.95)
			i++
		}))
	}
	return nil
}
