// Command specqp-experiments reproduces the paper's complete evaluation:
// Tables 2–4 and the figure series 6–9, plus two ablations of the planner's
// design choices (histogram resolution and selectivity source).
//
// By default it generates both synthetic datasets with the paper-shaped
// configurations (65 XKG queries of 2–4 patterns, 50 Twitter queries of 2–3
// patterns), runs TriniT and Spec-QP for k ∈ {10,15,20}, and prints every
// table and figure. Use -exp to select a single experiment and -dataset to
// restrict the dataset.
//
// Pre-generated datasets (cmd/specqp-datagen) can be loaded with -load; this
// skips generation and mines nothing — triples, rules and queries all come
// from the files.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"specqp/internal/datagen"
	"specqp/internal/harness"
	"specqp/internal/kg"
	"specqp/internal/relax"
	"specqp/internal/sparql"
	"specqp/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specqp-experiments: ")

	var (
		exp     = flag.String("exp", "all", "experiment: all, table2, table3, table4, fig6, fig7, fig8, fig9, ablations")
		dataset = flag.String("dataset", "both", "dataset: xkg, twitter or both")
		seed    = flag.Int64("seed", 1, "random seed for dataset generation")
		scale   = flag.Float64("scale", 1.0, "dataset size multiplier")
		load    = flag.String("load", "", "directory with pre-generated datasets (from specqp-datagen)")
		buckets = flag.Int("buckets", 2, "histogram buckets (paper uses 2)")
		csvDir  = flag.String("csv", "", "also write per-figure and per-outcome CSV files into this directory")
		runs    = flag.Int("runs", 1, "measurement runs per query; 5 reproduces the paper's warm-cache protocol (average of the last 3)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile taken at exit to this file (go tool pprof)")
	)
	flag.Parse()

	// The experiment body runs inside run() so its profile-flushing defers
	// execute on every exit path before main's log.Fatal can call os.Exit —
	// a mid-run error must still leave usable -cpuprofile/-memprofile files.
	if err := run(*exp, *dataset, *load, *csvDir, *cpuProf, *memProf, *seed, *scale, *buckets, *runs); err != nil {
		log.Fatal(err)
	}
}

func run(exp, dataset, load, csvDir, cpuProf, memProf string, seed int64, scale float64, buckets, runs int) error {
	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if memProf != "" {
		// log.Printf, not a returned error: a heap-profile failure must not
		// mask the run's own error, and the CPU profile still flushes.
		defer func() {
			f, err := os.Create(memProf)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise only live objects in the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	runXKG := dataset == "xkg" || dataset == "both"
	runTwitter := dataset == "twitter" || dataset == "both"

	var sets []*datagen.Dataset
	if runXKG {
		ds, err := getDataset(load, "xkg", func() (*datagen.Dataset, error) {
			cfg := datagen.XKGConfig{Seed: seed, Entities: int(20000 * scale)}
			return datagen.XKG(cfg)
		})
		if err != nil {
			return err
		}
		sets = append(sets, ds)
	}
	if runTwitter {
		ds, err := getDataset(load, "twitter", func() (*datagen.Dataset, error) {
			cfg := datagen.TwitterConfig{Seed: seed, Tweets: int(15000 * scale)}
			return datagen.Twitter(cfg)
		})
		if err != nil {
			return err
		}
		sets = append(sets, ds)
	}

	for _, ds := range sets {
		fmt.Printf("===== dataset %s: %d triples, %d rules, %d queries =====\n",
			ds.Name, ds.Store.Len(), ds.Rules.Len(), len(ds.Queries))
		r := harness.NewRunnerWith(ds, buckets, nil, []int{10, 15, 20})
		r.Runs = runs
		outs := r.RunAll()

		want := func(name string) bool { return exp == "all" || exp == name }
		if want("table2") {
			harness.PrintTable2(os.Stdout, ds.Name, harness.Table2(outs))
		}
		if want("table3") {
			harness.PrintTable3(os.Stdout, ds.Name, harness.Table3(outs))
		}
		if want("table4") {
			harness.PrintTable4(os.Stdout, ds.Name, harness.Table4(outs))
		}
		figTP, figRelax := "fig6", "fig7"
		if ds.Name == "twitter" {
			figTP, figRelax = "fig8", "fig9"
		}
		if want(figTP) {
			harness.PrintFigure(os.Stdout,
				fmt.Sprintf("Figure %s — runtimes & memory by #TP, dataset %s", strings.TrimPrefix(figTP, "fig"), ds.Name),
				"#TP", harness.FigureByTP(outs))
		}
		if want(figRelax) {
			harness.PrintFigure(os.Stdout,
				fmt.Sprintf("Figure %s — runtimes & memory by #TP relaxed, dataset %s", strings.TrimPrefix(figRelax, "fig"), ds.Name),
				"#TPrelaxed", harness.FigureByRelaxed(outs))
		}
		if want("ablations") {
			runAblations(ds)
		}
		if csvDir != "" {
			if err := writeCSVs(csvDir, ds.Name, outs); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	return nil
}

// writeCSVs dumps the per-outcome table and both figure series for one
// dataset into dir.
func writeCSVs(dir, name string, outs []harness.Outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(file string, fn func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, file))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(name+".outcomes.csv", func(w *os.File) error {
		return harness.WriteOutcomesCSV(w, outs)
	}); err != nil {
		return err
	}
	if err := write(name+".by_tp.csv", func(w *os.File) error {
		return harness.WriteFigureCSV(w, "tp", harness.FigureByTP(outs))
	}); err != nil {
		return err
	}
	return write(name+".by_relaxed.csv", func(w *os.File) error {
		return harness.WriteFigureCSV(w, "relaxed", harness.FigureByRelaxed(outs))
	})
}

// runAblations prints the planner design-choice studies: histogram
// resolution (A1) and selectivity source (A3).
func runAblations(ds *datagen.Dataset) {
	fmt.Printf("Ablation A1 — histogram buckets (dataset %s):\n", ds.Name)
	fmt.Printf("  %-8s %-10s %-12s %-12s\n", "buckets", "precision", "S-time", "S-mem")
	for _, b := range []int{2, 4, 8} {
		r := harness.NewRunnerWith(ds, b, nil, []int{10})
		outs := r.RunAll()
		prec, stime, smem := summarise(outs)
		fmt.Printf("  %-8d %-10.2f %-12v %-12.0f\n", b, prec, stime, smem)
	}

	fmt.Printf("Ablation A3 — selectivity source (dataset %s):\n", ds.Name)
	fmt.Printf("  %-10s %-10s %-12s %-12s\n", "source", "precision", "S-time", "S-mem")
	for _, c := range []struct {
		name    string
		counter stats.Counter
	}{
		{"exact", nil},
		{"estimated", stats.EstimatedCounter{Store: ds.Store}},
	} {
		r := harness.NewRunnerWith(ds, 2, c.counter, []int{10})
		outs := r.RunAll()
		prec, stime, smem := summarise(outs)
		fmt.Printf("  %-10s %-10.2f %-12v %-12.0f\n", c.name, prec, stime, smem)
	}
}

func summarise(outs []harness.Outcome) (prec float64, stime interface{}, smem float64) {
	var t, n int64
	var mem float64
	for _, o := range outs {
		prec += o.Precision
		t += int64(o.SpecQP.TotalTime())
		mem += float64(o.SpecQP.MemoryObjects)
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	return prec / float64(n), timeDur(t / n), mem / float64(n)
}

func timeDur(ns int64) interface{} {
	return fmt.Sprintf("%.3fms", float64(ns)/1e6)
}

// getDataset loads a dataset triple/rule/query bundle from dir if given,
// otherwise generates it.
func getDataset(dir, name string, gen func() (*datagen.Dataset, error)) (*datagen.Dataset, error) {
	if dir == "" {
		return gen()
	}
	return loadDataset(dir, name)
}

func loadDataset(dir, name string) (*datagen.Dataset, error) {
	tf, err := os.Open(filepath.Join(dir, name+".triples.tsv"))
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	st, err := kg.ReadTSV(tf)
	if err != nil {
		return nil, err
	}

	rf, err := os.Open(filepath.Join(dir, name+".rules.tsv"))
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	rules, err := relax.ReadTSV(rf, st.Dict())
	if err != nil {
		return nil, err
	}

	qf, err := os.Open(filepath.Join(dir, name+".queries.txt"))
	if err != nil {
		return nil, err
	}
	defer qf.Close()
	ds := &datagen.Dataset{Name: name, Store: st, Rules: rules}
	sc := bufio.NewScanner(qf)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	qname := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			qname = strings.TrimSpace(strings.TrimPrefix(line, "#"))
			continue
		}
		pq, err := sparql.Parse(line, st.Dict())
		if err != nil {
			return nil, fmt.Errorf("query %q: %v", qname, err)
		}
		if qname == "" {
			qname = fmt.Sprintf("%s-q%02d", name, len(ds.Queries))
		}
		ds.Queries = append(ds.Queries, datagen.QuerySpec{Name: qname, Query: pq.Query})
		qname = ""
	}
	return ds, sc.Err()
}
