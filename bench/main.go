// Command bench is the repository's benchmark: six workloads over generated
// XKG and Twitter datasets, measured from outside the program — by timing
// calls into public functions and reading counters it already exports.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-out runs.json]
//	bench -compare A.json B.json
//
// With -trace 0 the last line of standard output is the end-to-end metrics,
// with -trace 1 the per-layer metrics; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// maxProcs caps GOMAXPROCS and the client count, so a large box measures the
// same shape of run as the 2-core reference.
const maxProcs = 4

func main() {
	var c config
	var trace int
	var out string
	var compare bool
	flag.StringVar(&c.workload, "workload", "", "one of the six workloads (see README.md)")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the request schedule and the hold-out split")
	flag.Float64Var(&c.seconds, "seconds", 14, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: quarter-length traced run, per-layer metrics and a span dump")
	flag.StringVar(&out, "out", "", "also append this run to a JSON file, for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	c.trace = trace != 0
	c.procs = min(runtime.NumCPU(), maxProcs)
	c.setups, c.scale = 3, 1
	c.tmp = filepath.Join(".bench_build", "run")
	res, err := execute(&c)
	if err != nil {
		fatal(err)
	}
	table := endToEnd
	if c.trace {
		table = perLayer
	}
	line := outputLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range table {
		line.Metrics[d.Name] = metricValue{res.values[d.Name], d.Unit}
	}
	if out != "" {
		if err := appendRun(out, environment(&c), runRecord{c.workload, c.seed, c.trace, c.seconds, line}); err != nil {
			fatal(err)
		}
	}
	env, _ := json.Marshal(environment(&c))
	fmt.Fprintf(os.Stderr, "bench: env %s\n", env)
	buf, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", buf)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}

// outputLine is the contract of the last line of standard output.
type outputLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envBlock is what the numbers were taken on; every -out file and span dump
// carries it, and every run prints it on stderr.
type envBlock struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
}

func environment(c *config) envBlock {
	e := envBlock{CPUs: runtime.NumCPU(), GOMAXPROCS: c.procs, Go: runtime.Version(), Commit: "unknown", Kernel: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, ch := range u.Release {
			if ch == 0 {
				break
			}
			b = append(b, byte(ch))
		}
		e.Kernel = string(b)
	}
	return e
}

// runRecord is one run in an -out file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	outputLine
}

type runFile struct {
	Env  envBlock    `json:"env"`
	Runs []runRecord `json:"runs"`
}

func readRuns(path string) (runFile, error) {
	var f runFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendRun(path string, env envBlock, r runRecord) error {
	f, err := readRuns(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.Env = env
	f.Runs = append(f.Runs, r)
	buf, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
