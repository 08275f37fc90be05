package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"specqp"
)

// probeEnv is what the per-layer probes share: the workload's own dataset
// and a plain in-memory engine over it. Each layer's probe lives in its own
// layer_<package>.go and binds to that package's constructors only, so a
// signature change there is a one-file fix here.
type probeEnv struct {
	c    *config
	corp *corpus
	eng  *specqp.Engine
}

// runProbes measures every layer in isolation over the workload's dataset:
// fixed amounts of work, so the counts repeat exactly and the times are
// comparable between two commits.
func runProbes(c *config, corp *corpus, values map[string]float64) error {
	env := &probeEnv{c, corp, specqp.NewEngineWith(corp.ds.Store, corp.ds.Rules, specqp.Options{})}
	for _, p := range []struct {
		layer string
		run   func(*probeEnv, map[string]float64) error
	}{
		{"sparql", probeSparql},
		{"stats", probeStats},
		{"planner", probePlanner},
		{"operators", probeOperators},
		{"specqp", probeSpecqp},
		{"kg", probeKG},
		{"wal", probeWAL},
		{"repl", probeRepl},
	} {
		t0 := time.Now()
		if err := p.run(env, values); err != nil {
			return fmt.Errorf("%s probe: %w", p.layer, err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s probes took %.2fs\n", p.layer, time.Since(t0).Seconds())
	}
	reconcile(values)
	return nil
}

// reconcile is the check that the per-layer rows add up: the share of the
// mean client latency of an HTTP workload that no named row explains. What
// is left over is the HTTP server's own bookkeeping, request decoding and
// response encoding, which no layer metric isolates. The budget goes to
// standard error as the table README.md carries.
func reconcile(v map[string]float64) {
	client := v[keyClientUS]
	if client == 0 {
		return
	}
	rows := []struct {
		name string
		us   float64
	}{
		{"transport (bench.http_transport_us)", v["bench.http_transport_us"]},
		{"queue wait + response write (server.queue_wait_us)", v["server.queue_wait_us"]},
		{"parse (sparql.parse_us)", v["sparql.parse_us"]},
		{"plan (plan_us of the responses)", v[keyPlanUS]},
		{"exec (exec.exec_us)", v["exec.exec_us"]},
		{"engine self (specqp.self_us)", v["specqp.self_us"]},
		{"answer decode (specqp.decode_us_per_answer x answers)", v["specqp.decode_us_per_answer"] * v[keyAnswers]},
	}
	left := client
	fmt.Fprintf(os.Stderr, "bench: latency budget, mean client latency %.0f us\n", client)
	for _, r := range rows {
		left -= r.us
		fmt.Fprintf(os.Stderr, "bench:   %-56s %9.1f us %6.2f %%\n", r.name, r.us, 100*r.us/client)
	}
	fmt.Fprintf(os.Stderr, "bench:   %-56s %9.1f us %6.2f %%\n", "unattributed (server decode, encode, bookkeeping)", left, 100*left/client)
	v["bench.unattributed_frac"] = left / client
}

// perOp runs f n times and returns the mean time of one call.
func perOp(n int, f func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(t0) / time.Duration(n)
}

// allocsPerOp is the mean number of heap allocations of one call of f.
// Nothing else runs while a probe does, so the process-wide count is f's.
func allocsPerOp(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
