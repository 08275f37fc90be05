package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"specqp"
)

// slowBackend wraps the fixture engine and advances the fake clock by a fixed
// delay inside every query call, so the server's elapsed measurement — taken
// on the injected clock — sees a deterministic latency without real sleeping.
type slowBackend struct {
	*specqp.Engine
	clock *fakeClock
	delay time.Duration
}

func (b *slowBackend) QueryStream(ctx context.Context, q specqp.Query, k int, mode specqp.Mode, emit specqp.AnswerEmitter) (specqp.Result, error) {
	b.clock.Advance(b.delay)
	return b.Engine.QueryStream(ctx, q, k, mode, emit)
}

func (b *slowBackend) QueryTraced(ctx context.Context, q specqp.Query, k int, mode specqp.Mode) (specqp.Result, error) {
	b.clock.Advance(b.delay)
	return b.Engine.QueryTraced(ctx, q, k, mode)
}

// TestExplainEndpoint checks the `"explain": true` contract: the response
// gains a trace object carrying the planner decisions and the operator tree,
// the answers are unchanged, and requests without the flag stay trace-free.
func TestExplainEndpoint(t *testing.T) {
	srv := New(Config{Backend: testEngine(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, plain := postJSON(t, ts.URL+"/query", map[string]any{
		"query": fixtureSPARQL, "k": 3, "mode": "spec-qp",
	})
	if status != http.StatusOK {
		t.Fatalf("plain query: %d", status)
	}
	if _, ok := plain["trace"]; ok {
		t.Fatal("trace present without explain")
	}

	status, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": fixtureSPARQL, "k": 3, "mode": "spec-qp", "explain": true,
	})
	if status != http.StatusOK {
		t.Fatalf("explain query: %d", status)
	}
	if len(out["answers"].([]any)) != len(plain["answers"].([]any)) {
		t.Fatal("explain changed the answers")
	}
	tr, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace in explain response: %v", out)
	}
	if tr["mode"] != "spec-qp" {
		t.Fatalf("trace mode: %v", tr["mode"])
	}
	if tr["shape_key"] == "" || tr["shape_key"] == nil {
		t.Fatal("trace shape key missing")
	}
	root, ok := tr["root"].(map[string]any)
	if !ok {
		t.Fatalf("trace has no operator tree: %v", tr)
	}
	if op, _ := root["op"].(string); op == "" {
		t.Fatalf("root op missing: %v", root)
	}
	// The executed tree recorded real work somewhere.
	var worked func(n map[string]any) bool
	worked = func(n map[string]any) bool {
		if p, _ := n["pulls"].(float64); p > 0 {
			return true
		}
		if kids, _ := n["children"].([]any); kids != nil {
			for _, c := range kids {
				if worked(c.(map[string]any)) {
					return true
				}
			}
		}
		return false
	}
	if !worked(root) {
		t.Fatalf("trace tree recorded no pulls: %v", root)
	}

	// Explain forces the buffered shape even when streaming is requested: the
	// body is one JSON object, not NDJSON lines.
	status, streamed := postJSON(t, ts.URL+"/query", map[string]any{
		"query": fixtureSPARQL, "k": 3, "stream": true, "explain": true,
	})
	if status != http.StatusOK {
		t.Fatalf("explain+stream: %d", status)
	}
	if _, ok := streamed["trace"].(map[string]any); !ok {
		t.Fatalf("explain+stream lost the trace: %v", streamed)
	}
}

// TestSlowQueryLog drives the sampled slow-query log on an injected clock: a
// slow query is logged with its trace, a second crossing inside the sampling
// interval is suppressed (counted, not written), and the next token logs the
// suppression count.
func TestSlowQueryLog(t *testing.T) {
	clock := newFakeClock()
	var buf bytes.Buffer
	srv := New(Config{
		Backend:            &slowBackend{Engine: testEngine(t), clock: clock, delay: 50 * time.Millisecond},
		SlowQueryThreshold: 10 * time.Millisecond,
		SlowQueryInterval:  time.Second,
		SlowQueryLog:       &buf,
		now:                clock.Now,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	query := func() {
		status, _ := postJSON(t, ts.URL+"/query", map[string]any{
			"query": fixtureSPARQL, "k": 3, "mode": "spec-qp",
		})
		if status != http.StatusOK {
			t.Fatalf("query status %d", status)
		}
	}

	query() // armed: logged with trace
	query() // token cooling down: crossing suppressed
	if got := srv.SlowQueriesLogged(); got != 1 {
		t.Fatalf("logged after burst: %d, want 1 (rate limit)", got)
	}
	clock.Advance(2 * time.Second)
	query() // fresh token: logged, reports the suppressed crossing
	if got := srv.SlowQueriesLogged(); got != 2 {
		t.Fatalf("logged after cooldown: %d, want 2", got)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("log lines: %d\n%s", len(lines), buf.String())
	}
	var first, second struct {
		TS         string          `json:"ts"`
		ElapsedUS  int64           `json:"elapsed_us"`
		Query      string          `json:"query"`
		Mode       string          `json:"mode"`
		Answers    int             `json:"answers"`
		Suppressed int64           `json:"suppressed"`
		Trace      json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1: %v\n%s", err, lines[0])
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2: %v\n%s", err, lines[1])
	}
	if first.Query != fixtureSPARQL || first.Mode != "spec-qp" || first.Answers == 0 {
		t.Fatalf("line 1 content: %+v", first)
	}
	if first.ElapsedUS != 50_000 {
		t.Fatalf("line 1 elapsed: %dus, want 50000 (injected clock)", first.ElapsedUS)
	}
	if first.Suppressed != 0 {
		t.Fatalf("line 1 suppressed: %d", first.Suppressed)
	}
	if len(first.Trace) == 0 || string(first.Trace) == "null" {
		t.Fatal("line 1 carries no trace despite the armed traced run")
	}
	var tr struct {
		Mode string          `json:"mode"`
		Root json.RawMessage `json:"root"`
	}
	if err := json.Unmarshal(first.Trace, &tr); err != nil || tr.Mode != "spec-qp" || len(tr.Root) == 0 {
		t.Fatalf("line 1 trace: err=%v %s", err, first.Trace)
	}
	if second.Suppressed != 1 {
		t.Fatalf("line 2 suppressed: %d, want 1", second.Suppressed)
	}
	if first.TS == "" || second.TS <= first.TS {
		t.Fatalf("timestamps not increasing: %q then %q", first.TS, second.TS)
	}
}

// TestLatencyFedDegradation proves the latency feed reaches the governor:
// slow completions alone — no shed ever happens — escalate the tier, and a
// quiet period recovers it. Driven entirely on the injected clock.
func TestLatencyFedDegradation(t *testing.T) {
	clock := newFakeClock()
	srv := New(Config{
		Backend:           &slowBackend{Engine: testEngine(t), clock: clock, delay: 50 * time.Millisecond},
		DegradeThreshold:  2,
		DegradeLeakPerSec: 1,
		DegradeLatency:    10 * time.Millisecond,
		now:               clock.Now,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	query := func() map[string]any {
		status, out := postJSON(t, ts.URL+"/query", map[string]any{
			"query": fixtureSPARQL, "k": 3, "mode": "spec-qp",
		})
		if status != http.StatusOK {
			t.Fatalf("query status %d", status)
		}
		return out
	}

	if out := query(); out["tier"].(float64) != 0 {
		t.Fatalf("first query already degraded: %v", out["tier"])
	}
	query()
	query() // third breach clears the threshold even net of leak decay
	if srv.Tier() != TierExact {
		t.Fatalf("tier after three slow queries: %d, want %d", srv.Tier(), TierExact)
	}
	if out := query(); out["mode"] != "exact" || out["tier"].(float64) != 1 {
		t.Fatalf("degraded query: mode=%v tier=%v", out["mode"], out["tier"])
	}
	if srv.Metrics().ShedQueue.Load() != 0 || srv.Metrics().ShedRate.Load() != 0 {
		t.Fatal("degradation was shed-driven, not latency-driven")
	}
	clock.Advance(time.Minute)
	if srv.Tier() != TierNormal {
		t.Fatalf("tier after quiet minute: %d", srv.Tier())
	}

	// Unit-level: fast completions never pressure the bucket, and a zero
	// threshold disables the feed entirely.
	g := newGovernor(2, 1, 10*time.Millisecond, clock.Now)
	g.noteLatency(5 * time.Millisecond)
	if g.Pressure() != 0 {
		t.Fatalf("fast completion pressured the governor: %v", g.Pressure())
	}
	off := newGovernor(2, 1, 0, clock.Now)
	off.noteLatency(time.Hour)
	if off.Pressure() != 0 {
		t.Fatalf("disabled latency feed pressured the governor: %v", off.Pressure())
	}
}

// TestHealthzEngineStats checks /healthz carries the engine-internals block:
// store occupancy, cache accounting, durability flag.
func TestHealthzEngineStats(t *testing.T) {
	srv := New(Config{Backend: testEngine(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	eng, ok := h["engine"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no engine block: %v", h)
	}
	if eng["live_triples"].(float64) != 9 {
		t.Fatalf("live triples: %v", eng["live_triples"])
	}
	if eng["durable"].(bool) {
		t.Fatal("flat engine reported durable")
	}
	for _, key := range []string{"head_len", "l1_len", "tombstones", "list_cache_hits", "list_cache_misses"} {
		if _, ok := eng[key]; !ok {
			t.Fatalf("engine block missing %q: %v", key, eng)
		}
	}
	for key := range eng {
		if strings.HasPrefix(key, "plan_cache") {
			t.Fatalf("engine block carries %q, but the engine has no plan cache", key)
		}
	}
}

// metricLine matches one Prometheus text-format sample: name, optional
// well-formed label set, and a float value.
var metricLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$`)

// TestMetricsExpositionConformance scrapes /metrics after real traffic and
// validates every line against the text-format grammar, then checks the
// histogram families hold the invariants a Prometheus ingester relies on:
// buckets cumulative and monotone, the +Inf bucket equal to _count, _sum
// present. This is the regression test for the malformed histogram exposition
// (summary gauges with no bucket family).
func TestMetricsExpositionConformance(t *testing.T) {
	srv := New(Config{Backend: testEngine(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if status, _ := postJSON(t, ts.URL+"/query", map[string]any{
			"query": fixtureSPARQL, "k": 3,
		}); status != http.StatusOK {
			t.Fatalf("traffic query: %d", status)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type: %q", ct)
	}

	type histo struct {
		buckets []int64 // in exposition order
		inf     int64
		hasInf  bool
		hasSum  bool
		count   int64
	}
	histos := map[string]*histo{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") && !strings.HasPrefix(line, "# HELP ") {
				t.Fatalf("malformed comment: %q", line)
			}
			continue
		}
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, labels, value := m[1], m[2], m[4]
		seen[name] = true
		switch {
		case strings.HasSuffix(name, "_bucket"):
			fam := strings.TrimSuffix(name, "_bucket")
			h := histos[fam]
			if h == nil {
				h = &histo{}
				histos[fam] = h
			}
			le := strings.TrimSuffix(strings.TrimPrefix(labels, `{le="`), `"}`)
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", line, err)
			}
			if le == "+Inf" {
				h.inf, h.hasInf = v, true
			} else {
				if _, err := strconv.ParseInt(le, 10, 64); err != nil {
					t.Fatalf("non-numeric le %q in %q", le, line)
				}
				h.buckets = append(h.buckets, v)
			}
		case strings.HasSuffix(name, "_us_sum"):
			if h := histos[strings.TrimSuffix(name, "_sum")]; h != nil {
				h.hasSum = true
			}
		case strings.HasSuffix(name, "_us_count"):
			if h := histos[strings.TrimSuffix(name, "_count")]; h != nil {
				h.count, _ = strconv.ParseInt(value, 10, 64)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{
		"specqp_requests_total", "specqp_accepted_total", "specqp_engine_queries_total",
		"specqp_slow_queries_logged_total",
		"specqp_engine_live_triples", "specqp_engine_head_len",
		"specqp_engine_compactions_total", "specqp_engine_pinned_snapshots_total",
		"specqp_engine_list_cache_hits_total",
		"specqp_query_latency_us_bucket", "specqp_first_answer_latency_us_bucket",
	} {
		if !seen[want] {
			t.Fatalf("exposition missing %s", want)
		}
	}
	for name := range seen {
		if strings.Contains(name, "plan_cache") {
			t.Fatalf("exposition carries %s, but the engine has no plan cache", name)
		}
	}

	if len(histos) == 0 {
		t.Fatal("no histogram families found")
	}
	for fam, h := range histos {
		if !h.hasInf || !h.hasSum {
			t.Fatalf("%s: inf=%v sum=%v", fam, h.hasInf, h.hasSum)
		}
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i] < h.buckets[i-1] {
				t.Fatalf("%s bucket %d not cumulative: %v", fam, i, h.buckets)
			}
		}
		if n := len(h.buckets); n > 0 && h.inf < h.buckets[n-1] {
			t.Fatalf("%s +Inf %d undercuts last finite bucket %d", fam, h.inf, h.buckets[n-1])
		}
		if h.count != h.inf {
			t.Fatalf("%s _count %d != +Inf bucket %d", fam, h.count, h.inf)
		}
	}
	lat := histos["specqp_query_latency_us"]
	if lat == nil || lat.inf < 3 {
		t.Fatalf("query latency histogram did not see the traffic: %+v", lat)
	}
}
