package harness

import (
	"testing"

	"specqp/internal/metrics"
)

// The shape tests assert, on the XKG outcomes TestPaperTables pins, the
// qualitative claims of the evaluation section — the properties that define
// a successful reproduction. They use loose thresholds, so a deliberate
// change that moves the golden's numbers still passes them, while genuine
// regressions (estimator bugs, operator over-reads) fail loudly.

func shapeOutcomes(t *testing.T) []Outcome {
	t.Helper()
	return paperEvaluation(t)[0].outs
}

// Precision must be reasonable at k=10 and must not degrade as k grows
// (Table 2's trend).
func TestShapePrecisionRisesWithK(t *testing.T) {
	rows := Table2(shapeOutcomes(t))
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].Precision < 0.55 {
		t.Fatalf("k=10 precision %0.2f below floor", rows[0].Precision)
	}
	if rows[2].Precision < rows[0].Precision-0.05 {
		t.Fatalf("precision degraded with k: %v", rows)
	}
	if rows[2].Precision < 0.8 {
		t.Fatalf("k=20 precision %0.2f below floor", rows[2].Precision)
	}
}

// Spec-QP must save memory in aggregate and for the large majority of
// queries. (Per query it can lose: an under-relaxed plan may dig deep into
// the original sorted lists where TriniT's merges terminate early — the
// price of a misprediction. The paper's Figures 6–9 report group averages.)
func TestShapeMemorySavesInAggregate(t *testing.T) {
	var tTotal, sTotal int64
	worse, n := 0, 0
	for _, o := range shapeOutcomes(t) {
		if o.SpecQP.MemoryObjects > o.TriniT.MemoryObjects {
			worse++
		}
		n++
		tTotal += o.TriniT.MemoryObjects
		sTotal += o.SpecQP.MemoryObjects
	}
	if sTotal >= tTotal {
		t.Fatalf("no aggregate memory savings: S=%d T=%d", sTotal, tTotal)
	}
	if frac := float64(worse) / float64(n); frac > 0.3 {
		t.Fatalf("%.0f%% of (query,k) pairs used more memory than TriniT", 100*frac)
	}
}

// When Spec-QP relaxes every pattern its plan equals TriniT's, so answers
// and memory must match exactly (the paper: "the memory consumption is the
// same as for TriniT").
func TestShapeAllRelaxedMatchesTriniT(t *testing.T) {
	n := 0
	for _, o := range shapeOutcomes(t) {
		if metrics.CountBits(o.PredictedMask) != o.NumTP {
			continue
		}
		n++
		if o.SpecQP.MemoryObjects != o.TriniT.MemoryObjects {
			t.Fatalf("query %d k=%d all-relaxed: S mem %d != T mem %d",
				o.QueryIdx, o.K, o.SpecQP.MemoryObjects, o.TriniT.MemoryObjects)
		}
		if o.Precision != 1 {
			t.Fatalf("query %d k=%d all-relaxed: precision %v != 1",
				o.QueryIdx, o.K, o.Precision)
		}
	}
	if n == 0 {
		t.Fatal("workload produced no all-relaxed plans; shape test vacuous")
	}
}

// The biggest savings must come from queries whose plans relax nothing
// (Figure 7's leftmost group).
func TestShapeZeroRelaxedGroupSavesMost(t *testing.T) {
	bars := FigureByRelaxed(shapeOutcomes(t))
	var zero, full *FigureBar
	for i := range bars {
		b := &bars[i]
		if b.K != 10 {
			continue
		}
		if b.Group == 0 && zero == nil {
			zero = b
		}
		if b.Group >= 3 {
			full = b
		}
	}
	if zero == nil {
		t.Skip("no zero-relaxed group at k=10 in this seed")
	}
	if zero.MemRatio() < 1.5 {
		t.Fatalf("zero-relaxed group memX %0.2f too small", zero.MemRatio())
	}
	if full != nil && zero.MemRatio() < full.MemRatio() {
		t.Fatalf("zero-relaxed memX %0.2f below all-relaxed %0.2f",
			zero.MemRatio(), full.MemRatio())
	}
}

// Score errors must shrink as k grows (Table 4's trend).
func TestShapeScoreErrorShrinksWithK(t *testing.T) {
	rows := Table4(shapeOutcomes(t))
	byTP := map[int]map[int]float64{}
	for _, r := range rows {
		if byTP[r.NumTP] == nil {
			byTP[r.NumTP] = map[int]float64{}
		}
		byTP[r.NumTP][r.K] = r.Mean
	}
	for tp, byK := range byTP {
		if byK[20] > byK[10]+0.08 {
			t.Fatalf("tp=%d: score error grew with k: k10=%v k20=%v", tp, byK[10], byK[20])
		}
	}
}

// Prediction accuracy must be perfect for the all-relaxations-required group
// (the paper: "we were able to identify the requirement of all the
// relaxations in such a scenario").
func TestShapeAllRequiredPredicted(t *testing.T) {
	for _, c := range Table3(shapeOutcomes(t)) {
		if c.Required == 4 && c.Exact != c.Total {
			t.Fatalf("k=%d all-required group: %d/%d exact", c.K, c.Exact, c.Total)
		}
	}
}
