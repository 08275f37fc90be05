package metrics

import (
	"math"
	"testing"

	"specqp/internal/kg"
)

func ans(id kg.ID, score float64, relaxed uint32) kg.Answer {
	b := kg.NewBinding(1)
	b[0] = id
	return kg.Answer{Binding: b, Score: score, Relaxed: relaxed}
}

func TestPrecisionPerfect(t *testing.T) {
	truth := []kg.Answer{ans(1, 3, 0), ans(2, 2, 0), ans(3, 1, 0)}
	if got := Precision(truth, truth, 3); got != 1 {
		t.Fatalf("identical lists: got %v", got)
	}
}

func TestPrecisionPartialOverlap(t *testing.T) {
	truth := []kg.Answer{ans(1, 3, 0), ans(2, 2, 0), ans(3, 1, 0)}
	approx := []kg.Answer{ans(1, 3, 0), ans(9, 2.5, 0), ans(3, 1, 0)}
	if got := Precision(approx, truth, 3); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("got %v want 2/3", got)
	}
	if got := Recall(approx, truth, 3); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("recall: got %v want 2/3", got)
	}
}

func TestPrecisionCutsAtK(t *testing.T) {
	truth := []kg.Answer{ans(1, 3, 0), ans(2, 2, 0), ans(3, 1, 0)}
	approx := []kg.Answer{ans(3, 9, 0), ans(1, 8, 0), ans(2, 7, 0)}
	// At k=1 only {3} vs {1}: no overlap.
	if got := Precision(approx, truth, 1); got != 0 {
		t.Fatalf("k=1: got %v want 0", got)
	}
	if got := Precision(approx, truth, 3); got != 1 {
		t.Fatalf("k=3: got %v want 1", got)
	}
}

func TestPrecisionEmptyCases(t *testing.T) {
	if got := Precision(nil, nil, 5); got != 1 {
		t.Fatalf("both empty: got %v want 1", got)
	}
	truth := []kg.Answer{ans(1, 1, 0)}
	if got := Precision(nil, truth, 5); got != 0 {
		t.Fatalf("empty approx: got %v want 0", got)
	}
	if got := Precision(truth, nil, 5); got != 0 {
		t.Fatalf("empty truth, non-empty approx: got %v want 0", got)
	}
	if got := Precision(truth, truth, 0); got != 1 {
		t.Fatalf("k=0: got %v", got)
	}
}

func TestScoreError(t *testing.T) {
	truth := []kg.Answer{ans(1, 3, 0), ans(2, 2, 0)}
	approx := []kg.Answer{ans(1, 2.5, 0), ans(9, 2, 0)}
	mean, std := ScoreError(approx, truth, 2)
	// Deviations: |2.5−3| = 0.5, |2−2| = 0.
	if math.Abs(mean-0.25) > 1e-12 {
		t.Fatalf("mean: got %v want 0.25", mean)
	}
	if math.Abs(std-0.25) > 1e-12 {
		t.Fatalf("std: got %v want 0.25", std)
	}
}

func TestScoreErrorIdenticalLists(t *testing.T) {
	truth := []kg.Answer{ans(1, 3, 0), ans(2, 2, 0)}
	mean, std := ScoreError(truth, truth, 2)
	if mean != 0 || std != 0 {
		t.Fatalf("identical: got %v±%v", mean, std)
	}
}

func TestScoreErrorMissingRanks(t *testing.T) {
	truth := []kg.Answer{ans(1, 3, 0), ans(2, 2, 0)}
	approx := []kg.Answer{ans(1, 3, 0)}
	mean, _ := ScoreError(approx, truth, 2)
	// Rank 2 deviation is the full truth score 2: mean = (0+2)/2 = 1.
	if math.Abs(mean-1) > 1e-12 {
		t.Fatalf("missing rank mean: got %v want 1", mean)
	}
	if m, s := ScoreError(nil, nil, 3); m != 0 || s != 0 {
		t.Fatalf("both empty: %v±%v", m, s)
	}
}

func TestRequiredRelaxations(t *testing.T) {
	truth := []kg.Answer{ans(1, 3, 0), ans(2, 2, 0b10), ans(3, 1, 0b101)}
	if got := RequiredRelaxations(truth, 3); got != 0b111 {
		t.Fatalf("mask: got %b want 111", got)
	}
	// Cut at k=1: only the unrelaxed answer counts.
	if got := RequiredRelaxations(truth, 1); got != 0 {
		t.Fatalf("k=1 mask: got %b want 0", got)
	}
}

func TestPredictionPredicates(t *testing.T) {
	if !PredictionExact(0b101, 0b101) {
		t.Fatal("exact match not detected")
	}
	if PredictionExact(0b111, 0b101) {
		t.Fatal("superset reported exact")
	}
}

func TestCountBits(t *testing.T) {
	for mask, want := range map[uint32]int{0: 0, 1: 1, 0b1011: 3, 0xFFFFFFFF: 32} {
		if got := CountBits(mask); got != want {
			t.Errorf("mask %b: got %d want %d", mask, got, want)
		}
	}
}
