// Package harness runs the paper's experimental evaluation end to end: for
// every workload query and every k it executes both TriniT (the true top-k
// baseline) and Spec-QP, gathers the quality and memory metrics of Section
// 4.3, and renders the paper's Tables 2–4 and the memory series of Figures
// 6–9. TestPaperTables pins all of them, over both default datasets, in
// testdata/paper_tables.golden.
package harness

import (
	"context"
	"fmt"
	"io"
	"sort"

	"specqp/internal/datagen"
	"specqp/internal/exec"
	"specqp/internal/metrics"
	"specqp/internal/planner"
	"specqp/internal/stats"
)

// Outcome captures one (query, k) comparison between TriniT and Spec-QP.
type Outcome struct {
	QueryIdx int
	K        int
	NumTP    int

	TriniT exec.Result
	SpecQP exec.Result

	Precision    float64
	ScoreErrMean float64
	ScoreErrStd  float64

	RequiredMask  uint32 // patterns whose relaxations contribute to true top-k
	PredictedMask uint32 // patterns Spec-QP chose to relax
	ExactMatch    bool
}

// Runner executes the evaluation over one dataset.
type Runner struct {
	Dataset *datagen.Dataset
	Exec    *exec.Executor
	Planner *planner.Planner
	Ks      []int
}

// NewRunner wires a runner with the paper's configuration: two-bucket
// histograms, exact join selectivities, k ∈ {10, 15, 20}.
func NewRunner(ds *datagen.Dataset) *Runner {
	return NewRunnerWith(ds, 2, nil, []int{10, 15, 20})
}

// NewRunnerWith allows overriding the histogram resolution, the cardinality
// counter (nil = exact) and the k values — used by the ablation benchmarks.
func NewRunnerWith(ds *datagen.Dataset, buckets int, counter stats.Counter, ks []int) *Runner {
	cat := stats.NewCatalog(ds.Store, buckets, counter)
	return &Runner{
		Dataset: ds,
		Exec:    exec.New(ds.Store, ds.Rules),
		Planner: planner.New(cat, ds.Rules),
		Ks:      ks,
	}
}

// RunQuery executes one workload query at one k under both engines.
func (r *Runner) RunQuery(qi, k int) Outcome {
	q := r.Dataset.Queries[qi].Query
	// Run fails only when its context ends, and Background never does.
	ctx := context.Background()
	t, _ := r.Exec.Run(ctx, planner.TriniTPlan(q, k), exec.RunOpts{})
	s, _ := r.Exec.Run(ctx, r.Planner.Plan(q, k), exec.RunOpts{})
	o := Outcome{
		QueryIdx: qi,
		K:        k,
		NumTP:    len(q.Patterns),
		TriniT:   t,
		SpecQP:   s,
	}
	o.Precision = metrics.Precision(s.Answers, t.Answers, k)
	o.ScoreErrMean, o.ScoreErrStd = metrics.ScoreError(s.Answers, t.Answers, k)
	o.RequiredMask = metrics.RequiredRelaxations(t.Answers, k)
	o.PredictedMask = s.Plan.RelaxMask()
	o.ExactMatch = metrics.PredictionExact(o.PredictedMask, o.RequiredMask)
	return o
}

// RunAll executes the whole workload for every configured k.
func (r *Runner) RunAll() []Outcome {
	var out []Outcome
	for _, k := range r.Ks {
		for qi := range r.Dataset.Queries {
			out = append(out, r.RunQuery(qi, k))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Table 2: precision (and recall) per k.

// Table2Row is the per-k average precision over the workload.
type Table2Row struct {
	K         int
	Precision float64
}

// Table2 aggregates outcomes into the paper's Table 2.
func Table2(outcomes []Outcome) []Table2Row {
	byK := map[int][]float64{}
	for _, o := range outcomes {
		byK[o.K] = append(byK[o.K], o.Precision)
	}
	var rows []Table2Row
	for k, ps := range byK {
		rows = append(rows, Table2Row{K: k, Precision: mean(ps)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].K < rows[j].K })
	return rows
}

// ---------------------------------------------------------------------------
// Table 3: prediction accuracy grouped by #relaxations required.

// Table3Cell counts exact predictions vs total for one (k, required) group.
type Table3Cell struct {
	K        int
	Required int // number of patterns requiring relaxation (ground truth)
	Exact    int // queries where Spec-QP identified exactly those
	Total    int
}

// Table3 aggregates outcomes into the paper's Table 3.
func Table3(outcomes []Outcome) []Table3Cell {
	type key struct{ k, req int }
	cells := map[key]*Table3Cell{}
	for _, o := range outcomes {
		req := metrics.CountBits(o.RequiredMask)
		kk := key{o.K, req}
		c := cells[kk]
		if c == nil {
			c = &Table3Cell{K: o.K, Required: req}
			cells[kk] = c
		}
		c.Total++
		if o.ExactMatch {
			c.Exact++
		}
	}
	var rows []Table3Cell
	for _, c := range cells {
		rows = append(rows, *c)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Required != rows[j].Required {
			return rows[i].Required < rows[j].Required
		}
		return rows[i].K < rows[j].K
	})
	return rows
}

// ---------------------------------------------------------------------------
// Table 4: average score error grouped by #TP.

// Table4Cell is the mean score deviation ± std for one (k, #TP) group.
type Table4Cell struct {
	K     int
	NumTP int
	Mean  float64
	Std   float64
	// PctOfMax expresses Mean as a percentage of the maximum possible score
	// (#TP), matching the percentages the paper quotes in brackets.
	PctOfMax float64
	Total    int
}

// Table4 aggregates outcomes into the paper's Table 4.
func Table4(outcomes []Outcome) []Table4Cell {
	type key struct{ k, tp int }
	agg := map[key][]float64{}
	stds := map[key][]float64{}
	for _, o := range outcomes {
		kk := key{o.K, o.NumTP}
		agg[kk] = append(agg[kk], o.ScoreErrMean)
		stds[kk] = append(stds[kk], o.ScoreErrStd)
	}
	var rows []Table4Cell
	for kk, ms := range agg {
		m := mean(ms)
		rows = append(rows, Table4Cell{
			K:        kk.k,
			NumTP:    kk.tp,
			Mean:     m,
			Std:      mean(stds[kk]),
			PctOfMax: 100 * m / float64(kk.tp),
			Total:    len(ms),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].NumTP != rows[j].NumTP {
			return rows[i].NumTP < rows[j].NumTP
		}
		return rows[i].K < rows[j].K
	})
	return rows
}

// ---------------------------------------------------------------------------
// Figures 6–9: memory objects grouped by #TP (Figs 6, 8) or by #TP relaxed
// by Spec-QP (Figs 7, 9). The figures' runtime halves are timings, which the
// root BenchmarkFigure6–9 and the bench module measure.

// FigureBar is one bar pair (TriniT vs Spec-QP) in a figure series.
type FigureBar struct {
	K       int
	Group   int // #TP or #TP-relaxed depending on the figure
	Queries int

	TriniTMem float64
	SpecQPMem float64
}

// MemRatio returns TriniT memory over Spec-QP memory (>1 means Spec-QP wins).
func (b FigureBar) MemRatio() float64 {
	if b.SpecQPMem == 0 {
		return 0
	}
	return b.TriniTMem / b.SpecQPMem
}

// FigureByTP aggregates memory by number of triple patterns
// (Figure 6 for XKG, Figure 8 for Twitter).
func FigureByTP(outcomes []Outcome) []FigureBar {
	return figure(outcomes, func(o Outcome) int { return o.NumTP })
}

// FigureByRelaxed aggregates by the number of patterns Spec-QP relaxed
// (Figure 7 for XKG, Figure 9 for Twitter).
func FigureByRelaxed(outcomes []Outcome) []FigureBar {
	return figure(outcomes, func(o Outcome) int { return metrics.CountBits(o.PredictedMask) })
}

func figure(outcomes []Outcome, group func(Outcome) int) []FigureBar {
	type key struct{ k, g int }
	type acc struct {
		n          int
		tMem, sMem float64
	}
	m := map[key]*acc{}
	for _, o := range outcomes {
		kk := key{o.K, group(o)}
		a := m[kk]
		if a == nil {
			a = &acc{}
			m[kk] = a
		}
		a.n++
		a.tMem += float64(o.TriniT.MemoryObjects)
		a.sMem += float64(o.SpecQP.MemoryObjects)
	}
	var bars []FigureBar
	for kk, a := range m {
		bars = append(bars, FigureBar{
			K:         kk.k,
			Group:     kk.g,
			Queries:   a.n,
			TriniTMem: a.tMem / float64(a.n),
			SpecQPMem: a.sMem / float64(a.n),
		})
	}
	sort.Slice(bars, func(i, j int) bool {
		if bars[i].K != bars[j].K {
			return bars[i].K < bars[j].K
		}
		return bars[i].Group < bars[j].Group
	})
	return bars
}

// ---------------------------------------------------------------------------
// Rendering.

// PrintTable2 renders Table 2 in the paper's layout.
func PrintTable2(w io.Writer, name string, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2 — Precision (and Recall), dataset %s\n", name)
	fmt.Fprintf(w, "  %-4s %-10s\n", "k", "precision")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-4d %-10.2f\n", r.K, r.Precision)
	}
}

// PrintTable3 renders Table 3 in the paper's layout (exact(total) cells).
func PrintTable3(w io.Writer, name string, rows []Table3Cell) {
	fmt.Fprintf(w, "Table 3 — Prediction accuracy, dataset %s\n", name)
	ks := sortedKs(rowsKs3(rows))
	byReq := map[int]map[int]Table3Cell{}
	var reqs []int
	for _, r := range rows {
		if byReq[r.Required] == nil {
			byReq[r.Required] = map[int]Table3Cell{}
			reqs = append(reqs, r.Required)
		}
		byReq[r.Required][r.K] = r
	}
	sort.Ints(reqs)
	fmt.Fprintf(w, "  %-28s", "queries requiring")
	for _, k := range ks {
		fmt.Fprintf(w, " k=%-8d", k)
	}
	fmt.Fprintln(w)
	for _, req := range reqs {
		fmt.Fprintf(w, "  %-28s", fmt.Sprintf("%d relaxation(s)", req))
		for _, k := range ks {
			if c, ok := byReq[req][k]; ok {
				fmt.Fprintf(w, " %-10s", fmt.Sprintf("%d(%d)", c.Exact, c.Total))
			} else {
				fmt.Fprintf(w, " %-10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// PrintTable4 renders Table 4 in the paper's layout.
func PrintTable4(w io.Writer, name string, rows []Table4Cell) {
	fmt.Fprintf(w, "Table 4 — Average score deviation, dataset %s\n", name)
	fmt.Fprintf(w, "  %-4s %-5s %-22s\n", "k", "#TP", "mean(pct)±std")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-4d %-5d %.3f(%.0f%%)±%.3f\n", r.K, r.NumTP, r.Mean, r.PctOfMax, r.Std)
	}
}

// PrintFigure renders a figure series (memory bars).
func PrintFigure(w io.Writer, title, groupLabel string, bars []FigureBar) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-4s %-12s %-8s %-12s %-12s %-8s\n",
		"k", groupLabel, "queries", "T-mem", "S-mem", "memX")
	for _, b := range bars {
		fmt.Fprintf(w, "  %-4d %-12d %-8d %-12.1f %-12.1f %-8.2f\n",
			b.K, b.Group, b.Queries, b.TriniTMem, b.SpecQPMem, b.MemRatio())
	}
}

func rowsKs3(rows []Table3Cell) []int {
	seen := map[int]bool{}
	var ks []int
	for _, r := range rows {
		if !seen[r.K] {
			seen[r.K] = true
			ks = append(ks, r.K)
		}
	}
	return ks
}

func sortedKs(ks []int) []int {
	sort.Ints(ks)
	return ks
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
