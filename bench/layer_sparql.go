package main

import "specqp/internal/sparql"

// probeSparql parses the workload's query texts against its dictionary.
func probeSparql(e *probeEnv, v map[string]float64) error {
	dict := e.corp.ds.Store.Dict()
	for _, src := range e.corp.sparql {
		if _, err := sparql.Parse(src, dict); err != nil {
			return err
		}
	}
	i := 0
	v["sparql.parse_us"] = us(perOp(20*len(e.corp.sparql), func() {
		sparql.Parse(e.corp.sparql[i%len(e.corp.sparql)], dict)
		i++
	}))
	return nil
}
