// Command specqp is a command-line query runner: it loads a scored triple
// store (TSV) and a relaxation rule set (TSV), then executes SPARQL-subset
// queries — from -query, from a file, or interactively from stdin — under a
// chosen engine (spec-qp, trinit, exact), printing ranked answers and the
// efficiency metrics the paper reports.
//
// Example:
//
//	specqp-datagen -dataset xkg -out data
//	specqp -triples data/xkg.triples.tsv -rules data/xkg.rules.tsv \
//	       -k 10 -mode spec-qp -explain \
//	       -query "SELECT ?s WHERE { ?s <rdf:type> <type:g0:t1> . ?s <rdf:type> <type:g0:t2> }"
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"specqp"
	"specqp/internal/kg"
	"specqp/internal/relax"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specqp: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if err == errBadFlags {
			// The FlagSet already printed the problem and usage.
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// errBadFlags signals a flag-parse failure the FlagSet has already reported,
// so main exits non-zero without printing it a second time.
var errBadFlags = fmt.Errorf("invalid command line")

// run is the whole CLI behind a testable seam: flags are parsed from args,
// queries stream from in when no -query/-queries is given, answer data —
// the golden-diffable listing — goes to out, and per-query errors go to
// errOut so redirected answer output never interleaves with error text.
func run(args []string, in io.Reader, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("specqp", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		triplesPath = fs.String("triples", "", "path to triples TSV (required)")
		rulesPath   = fs.String("rules", "", "path to relaxation rules TSV (optional)")
		queryStr    = fs.String("query", "", "SPARQL query to execute (default: read queries from stdin)")
		queryFile   = fs.String("queries", "", "file with one SPARQL query per line ('#' comments allowed)")
		k           = fs.Int("k", 10, "number of answers to return")
		modeStr     = fs.String("mode", "spec-qp", "engine: spec-qp, trinit or exact")
		explain     = fs.Bool("explain", false, "print the speculative plan reasoning and the executed trace (per-operator pulls, emits, bound trajectory)")
		compare     = fs.Bool("compare", false, "run the paper's two engines (trinit, spec-qp) and compare")
		buckets     = fs.Int("buckets", 2, "histogram buckets for the estimator")
		estimated   = fs.Bool("estimated-selectivity", false, "use estimated instead of exact join selectivity")
		shards      = fs.Int("shards", 1, "store segments (1 = flat layout, -1 = one per CPU); answers are identical at every setting")
		timings     = fs.Bool("timings", true, "print plan/exec timings (disable for diffable output)")
		ingestPath  = fs.String("ingest", "", "TSV of mutations to apply live after the initial load: insert lines are s\\tp\\to\\tscore, retraction lines are -\\ts\\tp\\to (queries then run against the mutated store)")
		deleteSpec  = fs.String("delete", "", "whitespace-separated \"s p o\" key to delete after load and -ingest (every live copy is retracted)")
		headLimit   = fs.Int("head", 0, "per-segment head size triggering automatic compaction during live ingest (0 = default, negative = manual only)")
		l1Limit     = fs.Int("l1", 0, "tiered compaction: heads merge into a small frozen L1 tier, which folds into the main arenas at this size (0 = single-level)")
		compact     = fs.Bool("compact", false, "compact all pending heads after live ingest, before running queries")
		walDir      = fs.String("wal", "", "durable WAL directory: a fresh directory is bootstrapped from -triples (every live insert is then crash-durable); a directory with existing state is recovered — omit -triples in that case")
		walSync     = fs.String("wal-sync", "always", "WAL fsync policy: always (group commit before each insert acks), interval, or none")
		savePath    = fs.String("save", "", "after loading (and any -ingest/-compact), persist the store to this binary snapshot file (reload it later via -triples path.bin)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errBadFlags
	}

	syncPolicy, err := specqp.ParseSyncPolicy(*walSync)
	if err != nil {
		return err
	}
	opts := specqp.Options{
		HistogramBuckets:     *buckets,
		EstimatedSelectivity: *estimated,
		Shards:               *shards,
		HeadLimit:            *headLimit,
		L1Limit:              *l1Limit,
		SyncPolicy:           syncPolicy,
	}

	// The rule set is created empty and populated after the engine exists:
	// a WAL recovery rebuilds the dictionary from the durable directory, so
	// rules can only be interned against it once the store is loaded.
	rules := specqp.NewRuleSet()
	var eng *specqp.Engine
	switch {
	case *walDir != "":
		recovered, err := specqp.DurableStateExists(*walDir)
		if err != nil {
			return err
		}
		if recovered {
			if *triplesPath != "" {
				return fmt.Errorf("-wal %s already holds durable state; omit -triples (the WAL directory is the store)", *walDir)
			}
			eng, err = specqp.OpenDurable(*walDir, rules, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "recovered %d triples from %s\n", eng.Graph().Len(), *walDir)
		} else {
			var st *kg.Store
			if *triplesPath != "" {
				if st, err = loadTriples(*triplesPath); err != nil {
					return err
				}
			}
			eng, err = specqp.OpenDurableWith(*walDir, st, rules, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "bootstrapped %s with %d triples (sync=%v)\n", *walDir, eng.Graph().Len(), syncPolicy)
		}
		defer eng.Close()
	default:
		if *triplesPath == "" {
			return fmt.Errorf("-triples is required (or -wal with existing durable state)")
		}
		st, err := loadTriples(*triplesPath)
		if err != nil {
			return err
		}
		eng = specqp.NewEngineWith(st, rules, opts)
	}
	if *rulesPath != "" {
		if err := loadRulesInto(rules, *rulesPath, eng.Graph().Dict()); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "loaded %d triples, %d relaxation rules\n", eng.Graph().Len(), rules.Len())

	if *ingestPath != "" {
		ins, del, err := ingestMutations(eng, *ingestPath)
		if err != nil {
			return err
		}
		if live, ok := eng.Graph().(specqp.LiveGraph); ok {
			fmt.Fprintf(out, "ingested %d inserts, %d retractions live (%d in heads, %d compactions)\n",
				ins, del, live.HeadLen(), live.Compactions())
		} else {
			fmt.Fprintf(out, "ingested %d inserts, %d retractions live\n", ins, del)
		}
	}

	if *deleteSpec != "" {
		key := strings.Fields(*deleteSpec)
		if len(key) != 3 {
			return fmt.Errorf("-delete wants \"s p o\" (3 whitespace-separated terms), got %d", len(key))
		}
		removed, err := eng.DeleteSPO(key[0], key[1], key[2])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "deleted %d copies of <%s %s %s>\n", removed, key[0], key[1], key[2])
	}

	if (*ingestPath != "" || *deleteSpec != "") && *compact {
		if err := eng.Compact(); err != nil {
			return err
		}
	}

	if *savePath != "" {
		n, err := saveSnapshot(eng, *savePath)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "saved %d triples to %s\n", n, *savePath)
	}

	mode, err := parseMode(*modeStr)
	if err != nil {
		return err
	}

	runQuery := func(src string) {
		q, err := eng.ParseSPARQL(src)
		if err != nil {
			fmt.Fprintf(errOut, "parse error: %v\n", err)
			return
		}
		if *explain && !*compare {
			// The traced run IS the run: plan reasoning, then the executed
			// operator tree with its counters, then the answers — one
			// execution, so the trace describes exactly the result printed.
			res, err := eng.QueryTraced(context.Background(), q, *k, mode)
			if err != nil {
				fmt.Fprintf(errOut, "%v\n", err)
				return
			}
			if mode == specqp.ModeSpecQP {
				fmt.Fprint(out, eng.Explain(res.Plan))
			}
			fmt.Fprint(out, specqp.RenderTrace(res.Trace))
			printResult(out, eng, q, mode, res, *timings)
			return
		}
		if *explain {
			fmt.Fprint(out, eng.Explain(eng.PlanQuery(q, *k)))
		}
		if *compare {
			for _, m := range []specqp.Mode{specqp.ModeTriniT, specqp.ModeSpecQP} {
				res, err := eng.Query(q, *k, m)
				if err != nil {
					fmt.Fprintf(errOut, "%v: %v\n", m, err)
					continue
				}
				printResult(out, eng, q, m, res, *timings)
			}
			return
		}
		res, err := eng.Query(q, *k, mode)
		if err != nil {
			fmt.Fprintf(errOut, "%v\n", err)
			return
		}
		printResult(out, eng, q, mode, res, *timings)
	}

	switch {
	case *queryStr != "":
		runQuery(*queryStr)
	case *queryFile != "":
		qs, err := loadQueries(*queryFile)
		if err != nil {
			return err
		}
		for i, src := range qs {
			fmt.Fprintf(out, "--- query %d ---\n", i+1)
			runQuery(src)
		}
	default:
		fmt.Fprintln(out, "enter one SPARQL query per line (empty line or EOF to quit):")
		sc := bufio.NewScanner(in)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				break
			}
			runQuery(line)
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("reading queries: %v", err)
		}
	}
	return nil
}

// printResult writes the metrics header and the ranked answer listing. With
// timings off the output is fully deterministic (PR 2 pinned operator and
// iteration order), which is what the golden end-to-end test diffs.
func printResult(out io.Writer, eng *specqp.Engine, q specqp.Query, mode specqp.Mode, res specqp.Result, timings bool) {
	fmt.Fprintf(out, "%s: %d answers, %d memory objects", mode, len(res.Answers), res.MemoryObjects)
	if timings {
		fmt.Fprintf(out, ", plan %v + exec %v", res.PlanTime, res.ExecTime)
	}
	fmt.Fprintln(out)
	for rank, a := range res.Answers {
		vars := eng.DecodeAnswer(q, a)
		parts := make([]string, 0, len(vars))
		for _, v := range q.Vars() {
			if val, ok := vars[v]; ok {
				parts = append(parts, fmt.Sprintf("?%s=%s", v, val))
			}
		}
		suffix := ""
		if n := a.RelaxedCount(); n > 0 {
			suffix = fmt.Sprintf("  [%d relaxed]", n)
		}
		fmt.Fprintf(out, "  %2d. %-50s score=%.4f%s\n", rank+1, strings.Join(parts, " "), a.Score, suffix)
	}
}

func parseMode(s string) (specqp.Mode, error) {
	switch strings.ToLower(s) {
	case "s":
		return specqp.ModeSpecQP, nil
	case "t":
		return specqp.ModeTriniT, nil
	case "e":
		return specqp.ModeExact, nil
	}
	return specqp.ParseMode(strings.ToLower(s))
}

func loadTriples(path string) (*kg.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return kg.ReadBinary(f)
	}
	return kg.ReadTSV(f)
}

func loadRulesInto(rules *relax.RuleSet, path string, dict *kg.Dict) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return relax.ReadTSVInto(rules, f, dict)
}

// saveSnapshot persists the engine's current store — heads included — to a
// binary snapshot file, atomically (tmp + rename) so an interrupted save
// never leaves a torn file at the target path.
func saveSnapshot(eng *specqp.Engine, path string) (int, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	n, err := kg.WriteGraphBinary(f, eng.Graph())
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, os.Rename(tmp, path)
}

// ingestMutations streams a TSV mutation file through the live engine:
// insert lines go through Engine.InsertSPO, retraction lines ("-" first
// field) through Engine.DeleteSPO. Every line is applied the moment its call
// returns, and segments compact themselves as heads cross the -head limit.
func ingestMutations(eng *specqp.Engine, path string) (ins, del int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	err = kg.ForEachTSVMutation(f,
		func(s, p, o string, score float64) error {
			if err := eng.InsertSPO(s, p, o, score); err != nil {
				return err
			}
			ins++
			return nil
		},
		func(s, p, o string) error {
			if _, err := eng.DeleteSPO(s, p, o); err != nil {
				return err
			}
			del++
			return nil
		})
	if err != nil {
		return ins, del, fmt.Errorf("ingest %s: %v", path, err)
	}
	return ins, del, nil
}

func loadQueries(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, sc.Err()
}
