// Package datagen synthesises the two evaluation datasets of the paper.
//
// The real datasets (XKG = YAGO2s + OpenIE textual triples, 105M triples;
// a 30-day Twitter hashtag stream, 18M triples) are not redistributable, so
// this package generates structurally faithful substitutes: power-law triple
// scores (the 80/20 property the paper's own estimator assumes), rich
// relaxation fan-out (≥10 rules/pattern for XKG-style, ≥5 for Twitter-style
// with co-occurrence weights), and query workloads with the paper's shape
// (65 queries of 2–4 patterns; 50 queries of 2–3 patterns). README's
// "Reproducing the paper" shows the paper's tables over both.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"specqp/internal/kg"
	"specqp/internal/relax"
)

// Dataset bundles a generated store, its relaxation rules and query workload.
type Dataset struct {
	Name    string
	Store   *kg.Store
	Rules   *relax.RuleSet
	Queries []QuerySpec
}

// QuerySpec is one workload query with a stable name for reporting.
type QuerySpec struct {
	Name  string
	Query kg.Query
}

// QueriesByPatternCount groups workload query indexes by pattern count.
func (d *Dataset) QueriesByPatternCount() map[int][]int {
	out := make(map[int][]int)
	for i, qs := range d.Queries {
		n := len(qs.Query.Patterns)
		out[n] = append(out[n], i)
	}
	return out
}

// zipfScores returns n scores following a Zipf-like power law: the i-th
// largest is roughly max/(i+1)^alpha, with multiplicative noise. Scores are
// positive and in descending order of magnitude before shuffling.
func zipfScores(rng *rand.Rand, n int, max, alpha float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		base := max / math.Pow(float64(i+1), alpha)
		noise := 0.75 + rng.Float64()*0.5
		s := base * noise
		if s < 1 {
			s = 1
		}
		out[i] = s
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sampleZipfIndex draws an index in [0,n) with P(i) ∝ 1/(i+1)^alpha using
// rejection sampling (cheap and deterministic with the provided rng).
func sampleZipfIndex(rng *rand.Rand, n int, alpha float64) int {
	for {
		i := rng.Intn(n)
		accept := 1 / math.Pow(float64(i+1), alpha)
		if rng.Float64() < accept {
			return i
		}
	}
}

// pickDistinct samples k distinct ints in [0,n) using the rng.
func pickDistinct(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := rng.Intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func queryName(prefix string, i, tp int) string {
	return fmt.Sprintf("%s-q%02d-%dtp", prefix, i, tp)
}
