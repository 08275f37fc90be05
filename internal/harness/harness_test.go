package harness

import (
	"strings"
	"testing"

	"specqp/internal/exec"
)

// fakeOutcomes builds a deterministic outcome set for aggregation tests.
func fakeOutcomes() []Outcome {
	mk := func(k, tp int, prec, errMean float64, reqBits, predBits uint32, tMem, sMem int64) Outcome {
		return Outcome{
			K:             k,
			NumTP:         tp,
			Precision:     prec,
			ScoreErrMean:  errMean,
			RequiredMask:  reqBits,
			PredictedMask: predBits,
			ExactMatch:    reqBits == predBits,
			TriniT:        exec.Result{MemoryObjects: tMem},
			SpecQP:        exec.Result{MemoryObjects: sMem},
		}
	}
	return []Outcome{
		mk(10, 2, 1.0, 0.0, 0b01, 0b01, 1000, 400),
		mk(10, 2, 0.5, 0.2, 0b11, 0b01, 2000, 800),
		mk(10, 3, 0.8, 0.1, 0b111, 0b111, 3000, 3000),
		mk(20, 2, 0.9, 0.05, 0b01, 0b01, 1200, 500),
	}
}

func TestTable2Aggregation(t *testing.T) {
	rows := Table2(fakeOutcomes())
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].K != 10 || rows[1].K != 20 {
		t.Fatalf("k order: %v", rows)
	}
	// k=10 precision = (1.0+0.5+0.8)/3.
	want := (1.0 + 0.5 + 0.8) / 3
	if diff := rows[0].Precision - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("k=10 precision: got %v want %v", rows[0].Precision, want)
	}
}

func TestTable3Aggregation(t *testing.T) {
	rows := Table3(fakeOutcomes())
	// Groups: (k=10, req=1): 1 exact of 1; (k=10, req=2): 0 of 1;
	// (k=10, req=3): 1 of 1; (k=20, req=1): 1 of 1.
	byKey := map[[2]int]Table3Cell{}
	for _, r := range rows {
		byKey[[2]int{r.K, r.Required}] = r
	}
	if c := byKey[[2]int{10, 2}]; c.Exact != 0 || c.Total != 1 {
		t.Fatalf("k=10 req=2: %+v", c)
	}
	if c := byKey[[2]int{10, 3}]; c.Exact != 1 || c.Total != 1 {
		t.Fatalf("k=10 req=3: %+v", c)
	}
}

func TestTable4Aggregation(t *testing.T) {
	rows := Table4(fakeOutcomes())
	byKey := map[[2]int]Table4Cell{}
	for _, r := range rows {
		byKey[[2]int{r.K, r.NumTP}] = r
	}
	c := byKey[[2]int{10, 2}]
	if c.Total != 2 {
		t.Fatalf("k=10 tp=2 total: %d", c.Total)
	}
	want := (0.0 + 0.2) / 2
	if d := c.Mean - want; d > 1e-12 || d < -1e-12 {
		t.Fatalf("k=10 tp=2 mean: got %v want %v", c.Mean, want)
	}
	// PctOfMax = 100·mean/#TP = 100·0.1/2 = 5.
	if d := c.PctOfMax - 5; d > 1e-9 || d < -1e-9 {
		t.Fatalf("pct: got %v want 5", c.PctOfMax)
	}
}

func TestFigureAggregations(t *testing.T) {
	bars := FigureByTP(fakeOutcomes())
	byKey := map[[2]int]FigureBar{}
	for _, b := range bars {
		byKey[[2]int{b.K, b.Group}] = b
	}
	b1 := byKey[[2]int{10, 2}]
	if b1.Queries != 2 {
		t.Fatalf("k=10 tp=2 queries: %d", b1.Queries)
	}
	if b1.TriniTMem != 1500 || b1.SpecQPMem != 600 {
		t.Fatalf("avg mem: T %v S %v, want 1500 and 600", b1.TriniTMem, b1.SpecQPMem)
	}
	if mr := b1.MemRatio(); mr < 2.49 || mr > 2.51 {
		t.Fatalf("mem ratio: %v", mr)
	}

	relaxed := FigureByRelaxed(fakeOutcomes())
	byG := map[[2]int]FigureBar{}
	for _, b := range relaxed {
		byG[[2]int{b.K, b.Group}] = b
	}
	// Predicted masks: 0b01 (1 bit) ×2 at k=10, 0b111 (3 bits) ×1.
	if b := byG[[2]int{10, 1}]; b.Queries != 2 {
		t.Fatalf("k=10 relaxed=1 queries: %d", b.Queries)
	}
	if b := byG[[2]int{10, 3}]; b.Queries != 1 {
		t.Fatalf("k=10 relaxed=3 queries: %d", b.Queries)
	}
}

func TestPrintersProduceStableLayout(t *testing.T) {
	outs := fakeOutcomes()
	var sb strings.Builder
	PrintTable2(&sb, "test", Table2(outs))
	PrintTable3(&sb, "test", Table3(outs))
	PrintTable4(&sb, "test", Table4(outs))
	PrintFigure(&sb, "Figure X", "#TP", FigureByTP(outs))
	out := sb.String()
	for _, want := range []string{
		"Table 2", "Table 3", "Table 4", "Figure X",
		"precision", "relaxation", "mean", "memX",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("printer output missing %q:\n%s", want, out)
		}
	}
}

func TestMemRatioZeroGuard(t *testing.T) {
	var b FigureBar
	if b.MemRatio() != 0 {
		t.Fatal("a zero bar must not divide by zero")
	}
}
