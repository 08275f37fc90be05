package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"specqp"
)

func TestQuantileAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 9, 100, 999, 1000, 1950} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = rng.ExpFloat64()
		}
		sort.Float64s(vs)
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			got := quantile(vs, q)
			// Reference: the smallest sample with at least q·n samples at or
			// below it, found by counting.
			want := vs[n-1]
			for _, v := range vs {
				atOrBelow := sort.SearchFloat64s(vs, math.Nextafter(v, math.Inf(1)))
				if float64(atOrBelow) >= q*float64(n) {
					want = v
					break
				}
			}
			if got != want {
				t.Errorf("n=%d q=%v: quantile %v, reference %v", n, q, got, want)
			}
			beyond := 0
			for _, v := range vs {
				if v > got {
					beyond++
				}
			}
			if sb := samplesBeyond(n, q); sb != beyond {
				t.Errorf("n=%d q=%v: samplesBeyond %d, counted %d", n, q, sb, beyond)
			}
		}
	}
	// The rule the segments are sized by: the tail needs a hundred samples
	// before ten lie beyond it (and p99 would need a thousand).
	if samplesBeyond(99, tailQ) >= 10 || samplesBeyond(100, tailQ) != 10 || samplesBeyond(1000, 0.99) != 10 {
		t.Errorf("samplesBeyond at the threshold: 99 -> %d, 100 -> %d", samplesBeyond(99, tailQ), samplesBeyond(100, tailQ))
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples must be 0")
	}
}

// TestSegmentMediansLeaveABurstOut: ten segments of a hundred samples at a
// steady 1..100 ms, one op every 10 ms; a burst doubles two of the segments.
func TestSegmentMediansLeaveABurstOut(t *testing.T) {
	var ops, ends []time.Duration
	var now time.Duration
	for seg := 0; seg < 10; seg++ {
		slow := time.Duration(1)
		if seg == 3 || seg == 4 {
			slow = 2
		}
		for i := 1; i <= 100; i++ {
			now += 10 * time.Millisecond * slow
			ops = append(ops, time.Duration(i)*time.Millisecond*slow)
			ends = append(ends, now)
		}
	}
	ops, ends = append(ops, time.Second), append(ends, now+time.Second) // a part-segment: dropped
	p50, tail, rate := segmentMedians(ops, ends, 100, 32, now+time.Second)
	if p50 != 50 || tail != 90 || math.Abs(rate-3200) > 1e-6 {
		t.Errorf("ten segments: p50 %v, tail %v, rate %v; want 50, 90, 3200", p50, tail, rate)
	}
	if whole := quantile(sortedMS(ops), 0.99); whole <= 2*tail {
		t.Errorf("the whole-run p99 (%v) should have reported the burst", whole)
	}
	// Fewer samples than a segment: one segment, rated over the wall time.
	p50, tail, rate = segmentMedians(ops[:10], ends[:10], 100, 1, 200*time.Millisecond)
	if p50 != 5 || tail != 9 || math.Abs(rate-50) > 1e-9 {
		t.Errorf("short run: p50 %v, tail %v, rate %v; want 5, 9, 50", p50, tail, rate)
	}
	if p50, tail, rate = segmentMedians(nil, nil, 100, 1, time.Second); p50 != 0 || tail != 0 || rate != 0 {
		t.Error("no samples must give zeros")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) on these inputs.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 3, 7}, [3]float64{3, 7, 10}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 4, 4, 4, 4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

// scheduleBytes renders everything a seed decides for the HTTP and ingest
// workloads: the request slots and the mutation stream.
func scheduleBytes(seed int64) []byte {
	var b bytes.Buffer
	for _, r := range httpSchedule(seed, 400, 50, true) {
		fmt.Fprintf(&b, "%c %d %d\n", r.Kind, r.Query, r.Mut)
	}
	var all []quad
	for i := 0; i < 300; i++ {
		all = append(all, quad{fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i%7), float64(i)})
	}
	base, held := split(all, 0.5)
	for _, m := range mutationStream(rand.New(rand.NewSource(seed+1)), base, held, 200) {
		fmt.Fprintf(&b, "%c %s %s %s %v\n", m.Op, m.S, m.P, m.O, m.Score)
	}
	sched := newLibrarySchedule(seed, 195)
	fmt.Fprintln(&b, sched.nextPass(), sched.nextPass())
	return b.Bytes()
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, again, other := scheduleBytes(7), scheduleBytes(7), scheduleBytes(8)
	if !bytes.Equal(a, again) {
		t.Error("same seed gave two different schedules")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds gave the same schedule")
	}
	// The shape the README promises: every 8th request a mutation, every
	// third query streamed.
	muts, streamed, queries := 0, 0, 0
	for i, r := range httpSchedule(7, 400, 50, true) {
		switch r.Kind {
		case 'm':
			muts++
			if i%8 != 7 {
				t.Fatalf("mutation at slot %d", i)
			}
		case 's':
			streamed++
			queries++
		default:
			queries++
		}
	}
	if muts != 50 || streamed != queries/3 {
		t.Errorf("400 slots: %d mutations, %d of %d queries streamed", muts, streamed, queries)
	}
	// Whole passes: every run of 50 query slots holds each query once.
	seen := map[int]bool{}
	for _, r := range httpSchedule(7, 400, 50, true) {
		if r.Kind == 'm' {
			continue
		}
		if seen[r.Query] {
			t.Fatalf("query %d twice in one pass", r.Query)
		}
		if seen[r.Query] = true; len(seen) == 50 {
			seen = map[int]bool{}
		}
	}
}

func TestMutationStreamAndSurvivors(t *testing.T) {
	var all []quad
	for i := 0; i < 400; i++ {
		all = append(all, quad{fmt.Sprintf("s%d", i%350), "p", "o", float64(i)}) // some duplicate keys
	}
	base, held := split(all, 0.5)
	muts := mutationStream(rand.New(rand.NewSource(2)), base, held, 1000)
	counts := map[byte]int{}
	model := newSurvivors(base)
	live := map[[3]string]bool{}
	for _, q := range base {
		live[q.key()] = true
	}
	for i, m := range muts {
		counts[m.Op]++
		if m.Op != 'i' && !live[m.key()] {
			t.Fatalf("mutation %d (%c) targets a key that is not live", i, m.Op)
		}
		live[m.key()] = m.Op != 'd'
		model.apply(m)
	}
	if counts['i'] != len(held) || counts['u'] == 0 || counts['d'] == 0 {
		t.Errorf("stream of %d: %v, held %d", len(muts), counts, len(held))
	}
	got := map[[3]string]int{}
	for _, q := range model.live() {
		got[q.key()]++
	}
	for k, alive := range live {
		if alive != (got[k] > 0) {
			t.Errorf("key %v: live %v but %d surviving copies", k, alive, got[k])
		}
	}
}

func smokeConfig(t *testing.T, workload string, seed int64, trace bool) *config {
	return &config{workload: workload, seed: seed, seconds: 0.2, trace: trace, scale: 0.05, setups: 1, procs: 2, tmp: t.TempDir()}
}

// TestSmokeAllWorkloads runs the six workloads end to end at 1/20 scale:
// every output check must pass and every metric the tables name must come out.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wl := range workloads {
		res, err := execute(smokeConfig(t, wl.name, 1, false))
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d failed", wl.name, res.failed, res.attempted)
		}
		for _, d := range endToEnd {
			if v, ok := res.values[d.Name]; !ok || v <= 0 || math.IsNaN(v) {
				t.Errorf("%s: %s = %v (present %v); an end-to-end metric is never 0", wl.name, d.Name, v, ok)
			}
		}
	}
}

// TestSmokeTraced runs the per-layer half where every layer does work.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"twitter_serve", "twitter_ingest"} {
		c := smokeConfig(t, name, 1, true)
		res, err := execute(c)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d of %d failed", name, res.failed, res.attempted)
		}
		known := map[string]bool{}
		for _, d := range perLayer {
			known[d.Name] = true
			if v := res.values[d.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, d.Name, v)
			}
		}
		for name := range res.values {
			if !known[name] && !strings.HasPrefix(name, "_") {
				t.Errorf("value %q is not in the per-layer table", name)
			}
		}
		if res.values["kg.matchlist_allocs"] != 0 {
			t.Errorf("kg.matchlist_allocs = %v, want 0", res.values["kg.matchlist_allocs"])
		}
		dumps, _ := filepath.Glob(filepath.Join(c.tmp, "spans-*.json"))
		if len(dumps) != 1 {
			t.Fatalf("span dumps: %v", dumps)
		}
		var dump struct{ Spans []span }
		buf, _ := os.ReadFile(dumps[0])
		if err := json.Unmarshal(buf, &dump); err != nil || len(dump.Spans) == 0 {
			t.Fatalf("span dump: %d spans, err %v", len(dump.Spans), err)
		}
		for _, s := range dump.Spans {
			if s.EndUS < s.StartUS || int(s.Parent) >= int(s.ID) {
				t.Fatalf("malformed span %+v", s)
			}
		}
	}
}

// TestCountsRepeat: the counts a later change may rest a claim on are exact
// functions of the seed.
func TestCountsRepeat(t *testing.T) {
	counts := func(seed int64) map[string]float64 {
		in, err := setupLibrary(smokeConfig(t, "xkg_specqp", seed, false), specqp.ModeSpecQP)
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		out, err := in.run(50*time.Millisecond, nil, true)
		if err != nil || out.failed != 0 {
			t.Fatalf("run: %v, %d failed", err, out.failed)
		}
		m := map[string]float64{"precision_at_k": out.precision, "memory_objects": out.memoryObjects}
		for name, v := range out.layer {
			if strings.HasPrefix(name, "planner.") && name != "planner.plan_share" || strings.HasPrefix(name, "relax.") {
				m[name] = v
			}
		}
		return m
	}
	a, b := counts(3), counts(3)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different counts:\n%v\n%v", a, b)
	}
	if a["relax.legs_per_query.trinit"] < a["relax.legs_per_query.specqp"] || a["memory_objects"] <= 0 {
		t.Errorf("implausible counts: %v", a)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	r := newRecorder()
	at := func(us int) time.Time { return r.epoch.Add(time.Duration(us) * time.Microsecond) }
	req := r.request()
	root := r.add("client.request", 0, req, at(0), at(100))
	h := r.add("server.handler", root, req, at(10), at(90))
	r.derive(h, req, at(10), namedDur{"planner.plan", 5 * time.Microsecond}, namedDur{"exec.run", 60 * time.Microsecond})
	self, count := r.selfTimes()
	want := map[string]time.Duration{"client.request": 20, "server.handler": 15, "planner.plan": 5, "exec.run": 60}
	for name, us := range want {
		if self[name] != us*time.Microsecond || count[name] != 1 {
			t.Errorf("%s: self %v (count %d), want %dus", name, self[name], count[name], us)
		}
	}
	var off *recorder
	if off.request() != 0 || off.add("x", 0, 0, at(0), at(1)) != 0 {
		t.Error("a nil recorder must record nothing")
	}
	off.derive(0, 0, at(0), namedDur{"x", 1})
}

func TestJudge(t *testing.T) {
	lat := metricDef{"op_p50_ms", "ms", lower, 0.10}
	thr := metricDef{"op_per_s", "1/s", higher, 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"slower latency", lat, tight(10), tight(12), "regressed"},
		{"faster latency", lat, tight(10), tight(8), "improved"},
		{"within bound", lat, tight(10), tight(10.5), "unchanged"},
		{"lower throughput", thr, tight(100), tight(80), "regressed"},
		{"higher throughput", thr, tight(100), tight(120), "improved"},
		{"noisy baseline", lat, []float64{8, 10, 12, 9, 13}, tight(12), "unresolved"},
		{"noisy candidate", lat, tight(10), []float64{8, 10, 12, 9, 13}, "unresolved"},
		{"single runs", lat, []float64{10}, []float64{12}, "regressed"},
	} {
		if got := judge(c.d, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 4; seed++ {
			line := outputLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"op_p50_ms": {p50 + float64(seed)*0.01, "ms"},
				"op_per_s":  {100, "1/s"},
			}}
			if err := appendRun(path, envBlock{CPUs: 2}, runRecord{"xkg_specqp", seed, false, 12, line}); err != nil {
				t.Fatal(err)
			}
		}
		// A traced run in the same file must be ignored.
		traced := outputLine{Metrics: map[string]metricValue{"op_p50_ms": {1e6, "ms"}}}
		if err := appendRun(path, envBlock{CPUs: 2}, runRecord{"xkg_specqp", 9, true, 12, traced}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, slow := write("a.json", 8), write("slow.json", 11)
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, slow)
	if err != nil || !regressed {
		t.Fatalf("regressed %v, err %v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("report lacks a regressed p50 row and an unchanged throughput row:\n%s", out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, a, a); err != nil || regressed {
		t.Errorf("a file against itself: regressed %v, err %v", regressed, err)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the binary prints from.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the binary has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q differs from the binary's %q", i, w.Name, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
}

func TestSameUpToTies(t *testing.T) {
	ans := func(s string, score float64) wireAnswer {
		return wireAnswer{Binding: map[string]string{"s": s}, Score: score, Relaxed: 1}
	}
	a := []wireAnswer{ans("x", 3), ans("y", 2), ans("z", 2), ans("w", 1)}
	swapped := []wireAnswer{ans("x", 3), ans("z", 2), ans("y", 2), ans("w", 1)}
	other := []wireAnswer{ans("x", 3), ans("z", 2), ans("q", 2), ans("w", 1)}
	cutDiffers := []wireAnswer{ans("x", 3), ans("y", 2), ans("z", 2), ans("v", 1)}
	if !sameUpToTies(a, swapped, 10) {
		t.Error("a tie in another order must compare equal")
	}
	if sameUpToTies(a, other, 10) {
		t.Error("a tie with another member must differ")
	}
	if sameUpToTies(a, cutDiffers, 10) || !sameUpToTies(a, cutDiffers, 4) {
		t.Error("the last run may differ in members only when k cut it off")
	}
	if sameUpToTies(a, a[:3], 10) || sameWire(a, swapped) || !sameWire(a, a) {
		t.Error("length or order mismatch not caught")
	}
}
