package harness

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"specqp/internal/datagen"
	"specqp/internal/exec"
	"specqp/internal/metrics"
	"specqp/internal/planner"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_tables.golden from the current output")

// paperRun is one dataset's evaluation: the TriniT/Spec-QP outcome of every
// (query, k) and, aligned with it, the clairvoyant plan's result.
type paperRun struct {
	ds    *datagen.Dataset
	outs  []Outcome
	clair []exec.Result
}

var (
	paperOnce sync.Once
	paperRuns []paperRun // XKG, then Twitter
	paperErr  error
)

// paperEvaluation runs the paper's evaluation once per test binary over the
// two default datasets, with the benchmark's dataset seeds and the paper's
// k ∈ {10, 15, 20}. TestPaperTables renders it; the shape tests read the
// XKG half.
func paperEvaluation(t *testing.T) []paperRun {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		// One goroutine runs the whole evaluation, so the race detector has
		// nothing to check and would only slow it about tenfold; the tests
		// run in every build without -race.
		t.Skip("race build: the evaluation runs on one goroutine")
	}
	paperOnce.Do(func() {
		for _, gen := range []func() (*datagen.Dataset, error){
			func() (*datagen.Dataset, error) { return datagen.XKG(datagen.XKGConfig{Seed: 1}) },
			func() (*datagen.Dataset, error) { return datagen.Twitter(datagen.TwitterConfig{Seed: 1}) },
		} {
			ds, err := gen()
			if err != nil {
				paperErr = err
				return
			}
			r := NewRunner(ds)
			run := paperRun{ds: ds, outs: r.RunAll()}
			for _, o := range run.outs {
				run.clair = append(run.clair, runClairvoyant(r, o))
			}
			paperRuns = append(paperRuns, run)
		}
	})
	if paperErr != nil {
		t.Fatal(paperErr)
	}
	return paperRuns
}

// runClairvoyant executes the plan a planner that knew TriniT's true top-k
// would choose: the patterns whose relaxations reach that top-k are
// singletons with all their rules, and the rest join unrelaxed.
func runClairvoyant(r *Runner, o Outcome) exec.Result {
	q := r.Dataset.Queries[o.QueryIdx].Query
	p := planner.Plan{Query: q.Clone(), K: o.K}
	for i := range q.Patterns {
		if o.RequiredMask&(1<<uint(i)) != 0 {
			p.Singletons = append(p.Singletons, i)
		} else {
			p.JoinGroup = append(p.JoinGroup, i)
		}
	}
	res, _ := r.Exec.Run(context.Background(), p, exec.RunOpts{}) // fails only on a done context
	return res
}

// sameScores reports whether two top-k lists have equal scores rank by rank.
func sameScores(a, b exec.Result) bool {
	if len(a.Answers) != len(b.Answers) {
		return false
	}
	for i := range a.Answers {
		if math.Abs(a.Answers[i].Score-b.Answers[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

// TestPaperTables pins the paper's scoreboard — every (dataset, query, k)
// outcome, Tables 2–4 and the memory series of Figures 6–9, with the
// clairvoyant plan as one more column — in testdata/paper_tables.golden.
// After an intentional change, regenerate the file with
//
//	go test ./internal/harness -run TestPaperTables -update
//
// and say in the change why the paper's numbers moved.
func TestPaperTables(t *testing.T) {
	var sb strings.Builder
	for _, run := range paperEvaluation(t) {
		for i, o := range run.outs {
			if !sameScores(run.clair[i], o.TriniT) {
				t.Errorf("%s query %d k=%d: clairvoyant top-k scores differ from TriniT's",
					run.ds.Name, o.QueryIdx, o.K)
			}
		}
		writePaperTables(&sb, run)
	}
	// The printers pad their last column; the golden keeps no trailing blanks.
	lines := strings.Split(sb.String(), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	got := strings.Join(lines, "\n")

	path := filepath.Join("testdata", "paper_tables.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("paper tables diverged from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// writePaperTables renders one dataset's part of the golden file. Every
// float has fixed decimals, and nothing is timed.
func writePaperTables(w io.Writer, run paperRun) {
	ds := run.ds
	fmt.Fprintf(w, "===== dataset %s: %d triples, %d rules, %d queries =====\n\n",
		ds.Name, ds.Store.Len(), ds.Rules.Len(), len(ds.Queries))

	fmt.Fprintf(w, "Outcomes — one row per (query, k). Masks are over pattern indexes, pattern 0\n")
	fmt.Fprintf(w, "rightmost; req is what TriniT's top-k needs relaxed, plan what PLANGEN relaxed.\n")
	fmt.Fprintf(w, "Memory objects for TriniT (T), Spec-QP (S) and the clairvoyant plan (C).\n")
	fmt.Fprintf(w, "  %-16s %-3s %-4s %-5s %-5s %-6s %-10s %-10s %-10s %-8s %-8s %-8s\n",
		"query", "k", "#TP", "req", "plan", "exact", "precision", "err-mean", "err-std", "T-mem", "S-mem", "C-mem")
	for i, o := range run.outs {
		fmt.Fprintf(w, "  %-16s %-3d %-4d %-5s %-5s %-6t %-10.6f %-10.6f %-10.6f %-8d %-8d %-8d\n",
			ds.Queries[o.QueryIdx].Name, o.K, o.NumTP,
			fmt.Sprintf("%0*b", o.NumTP, o.RequiredMask), fmt.Sprintf("%0*b", o.NumTP, o.PredictedMask),
			o.ExactMatch, o.Precision, o.ScoreErrMean, o.ScoreErrStd,
			o.TriniT.MemoryObjects, o.SpecQP.MemoryObjects, run.clair[i].MemoryObjects)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "Summary — means over (query, k) pairs. C=T plan counts pairs whose every\n")
	fmt.Fprintf(w, "pattern needs relaxing, so the clairvoyant plan is TriniT's.\n")
	fmt.Fprintf(w, "  %-4s %-6s %-10s %-6s %-11s %-11s %-11s %-7s %-10s\n",
		"k", "pairs", "precision", "exact", "T-mem", "S-mem", "C-mem", "C/T", "C=T plan")
	summary := func(label string, keep func(Outcome) bool) {
		var n, exact, fullMask int
		var prec, tMem, sMem, cMem float64
		for i, o := range run.outs {
			if !keep(o) {
				continue
			}
			n++
			prec += o.Precision
			if o.ExactMatch {
				exact++
			}
			if metrics.CountBits(o.RequiredMask) == o.NumTP {
				fullMask++
			}
			tMem += float64(o.TriniT.MemoryObjects)
			sMem += float64(o.SpecQP.MemoryObjects)
			cMem += float64(run.clair[i].MemoryObjects)
		}
		fn := float64(n)
		fmt.Fprintf(w, "  %-4s %-6d %-10.6f %-6d %-11.3f %-11.3f %-11.3f %-7.4f %-10s\n",
			label, n, prec/fn, exact, tMem/fn, sMem/fn, cMem/fn, cMem/tMem, fmt.Sprintf("%d/%d", fullMask, n))
	}
	for _, k := range []int{10, 15, 20} {
		summary(fmt.Sprint(k), func(o Outcome) bool { return o.K == k })
	}
	summary("all", func(Outcome) bool { return true })
	fmt.Fprintln(w)

	PrintTable2(w, ds.Name, Table2(run.outs))
	fmt.Fprintln(w)
	PrintTable3(w, ds.Name, Table3(run.outs))
	fmt.Fprintln(w)
	PrintTable4(w, ds.Name, Table4(run.outs))
	fmt.Fprintln(w)
	figTP, figRelaxed := 6, 7
	if ds.Name == "twitter" {
		figTP, figRelaxed = 8, 9
	}
	PrintFigure(w, fmt.Sprintf("Figure %d — memory objects by #TP, dataset %s", figTP, ds.Name),
		"#TP", FigureByTP(run.outs))
	fmt.Fprintln(w)
	PrintFigure(w, fmt.Sprintf("Figure %d — memory objects by #TP relaxed, dataset %s", figRelaxed, ds.Name),
		"#TPrelaxed", FigureByRelaxed(run.outs))
	fmt.Fprintln(w)
}
