// Package metrics implements the quality metrics of the paper's Section 4.3:
// precision/recall of the Spec-QP top-k against TriniT's true top-k,
// prediction accuracy of the speculated relaxation sets, and average score
// error with standard deviation.
package metrics

import (
	"math"

	"specqp/internal/kg"
)

// Precision returns the fraction of true top-k answers (truth) present in
// the approximate top-k (approx), comparing answers by binding. With both
// lists cut at the same k, precision and recall coincide (the paper's note in
// Section 4.3); Recall is provided for symmetry.
func Precision(approx, truth []kg.Answer, k int) float64 {
	if k <= 0 {
		return 1
	}
	if len(approx) > k {
		approx = approx[:k]
	}
	if len(truth) > k {
		truth = truth[:k]
	}
	if len(truth) == 0 {
		if len(approx) == 0 {
			return 1
		}
		return 0
	}
	truthSet := make(map[string]bool, len(truth))
	for _, a := range truth {
		truthSet[a.Binding.Key()] = true
	}
	hit := 0
	for _, a := range approx {
		if truthSet[a.Binding.Key()] {
			hit++
		}
	}
	denom := len(truth)
	if len(approx) > denom {
		denom = len(approx)
	}
	return float64(hit) / float64(denom)
}

// Recall returns the fraction of the approximate top-k present in the true
// top-k; identical to Precision when both lists have k entries.
func Recall(approx, truth []kg.Answer, k int) float64 {
	return Precision(truth, approx, k)
}

// ScoreError computes the average absolute per-rank score deviation between
// the approximate and true top-k lists, with its standard deviation
// (Section 4.5.3's metric). Ranks missing on either side contribute the
// score present on the other side (deviation from an absent answer).
func ScoreError(approx, truth []kg.Answer, k int) (mean, std float64) {
	if k <= 0 {
		return 0, 0
	}
	devs := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		var sa, st float64
		var have bool
		if i < len(approx) {
			sa = approx[i].Score
			have = true
		}
		if i < len(truth) {
			st = truth[i].Score
			have = true
		}
		if !have {
			break
		}
		devs = append(devs, math.Abs(sa-st))
	}
	if len(devs) == 0 {
		return 0, 0
	}
	for _, d := range devs {
		mean += d
	}
	mean /= float64(len(devs))
	for _, d := range devs {
		std += (d - mean) * (d - mean)
	}
	std = math.Sqrt(std / float64(len(devs)))
	return mean, std
}

// RequiredRelaxations derives, from the true top-k answer provenance, the
// set of pattern indexes whose relaxations contribute at least one true
// top-k answer — the ground truth against which speculation is judged
// (Table 3). The result is a bitmask over pattern indexes.
func RequiredRelaxations(truth []kg.Answer, k int) uint32 {
	if len(truth) > k {
		truth = truth[:k]
	}
	var m uint32
	for _, a := range truth {
		m |= a.Relaxed
	}
	return m
}

// PredictionExact reports whether the speculated relaxation set (a bitmask)
// identifies exactly the required relaxations.
func PredictionExact(predicted, required uint32) bool { return predicted == required }

// CountBits returns the number of set bits (patterns) in a relaxation mask.
func CountBits(m uint32) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}
