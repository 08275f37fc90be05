package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specqp"
)

// testEngine builds the quickstart musicians KG with two relaxation rules —
// the same fixture the library tests use, reached through the public API.
func testEngine(t testing.TB) *specqp.Engine {
	t.Helper()
	st := specqp.NewStore()
	triples := []struct {
		s, o  string
		score float64
	}{
		{"shakira", "singer", 100}, {"beyonce", "singer", 90}, {"miley", "singer", 50},
		{"prince", "vocalist", 95}, {"elton", "vocalist", 85},
		{"shakira", "guitarist", 40}, {"prince", "guitarist", 99},
		{"miley", "musician", 45}, {"beyonce", "musician", 70},
	}
	for _, tr := range triples {
		if err := st.AddSPO(tr.s, "rdf:type", tr.o, tr.score); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	d := st.Dict()
	ty, _ := d.Lookup("rdf:type")
	pat := func(o string) specqp.Pattern {
		id, ok := d.Lookup(o)
		if !ok {
			t.Fatalf("missing term %q", o)
		}
		return specqp.NewPattern(specqp.Var("s"), specqp.Const(ty), specqp.Const(id))
	}
	rules := specqp.NewRuleSet()
	if err := rules.Add(specqp.Rule{From: pat("singer"), To: pat("vocalist"), Weight: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := rules.Add(specqp.Rule{From: pat("guitarist"), To: pat("musician"), Weight: 0.7}); err != nil {
		t.Fatal(err)
	}
	return specqp.NewEngine(st, rules)
}

const fixtureSPARQL = `SELECT ?s WHERE { ?s 'rdf:type' <singer> . ?s 'rdf:type' <guitarist> }`

// gateBackend wraps a Backend, counting engine touches and optionally parking
// every query on a gate channel. It is how the harness proves shed requests
// never reach the engine, holds requests in flight deterministically, and
// simulates a wedged log without real I/O faults.
type gateBackend struct {
	Backend
	queryCalls  atomic.Int64
	mutCalls    atomic.Int64
	syncs       atomic.Int64
	checkpoints atomic.Int64
	wedged      atomic.Bool
	gate        chan struct{} // non-nil: QueryStream parks until close or ctx
}

func (g *gateBackend) QueryStream(ctx context.Context, q specqp.Query, k int, mode specqp.Mode, emit specqp.AnswerEmitter) (specqp.Result, error) {
	g.queryCalls.Add(1)
	if g.gate != nil {
		select {
		case <-g.gate:
		case <-ctx.Done():
			return specqp.Result{}, ctx.Err()
		}
	}
	return g.Backend.QueryStream(ctx, q, k, mode, emit)
}

func (g *gateBackend) QueryBatchStream(ctx context.Context, qs []specqp.Query, k int, mode specqp.Mode, emit func(int, specqp.Answer) bool) ([]specqp.BatchResult, error) {
	g.queryCalls.Add(int64(len(qs)))
	return g.Backend.QueryBatchStream(ctx, qs, k, mode, emit)
}

func (g *gateBackend) InsertSPO(s, p, o string, score float64) error {
	g.mutCalls.Add(1)
	return g.Backend.InsertSPO(s, p, o, score)
}

func (g *gateBackend) DeleteSPO(s, p, o string) (int, error) {
	g.mutCalls.Add(1)
	return g.Backend.DeleteSPO(s, p, o)
}

func (g *gateBackend) UpdateSPO(s, p, o string, score float64) error {
	g.mutCalls.Add(1)
	return g.Backend.UpdateSPO(s, p, o, score)
}

func (g *gateBackend) Sync() error {
	g.syncs.Add(1)
	return g.Backend.Sync()
}

func (g *gateBackend) Checkpoint() error {
	g.checkpoints.Add(1)
	return g.Backend.Checkpoint()
}

func (g *gateBackend) Wedged() bool { return g.wedged.Load() || g.Backend.Wedged() }

// postJSON posts a JSON body and returns status plus decoded response map.
func postJSON(t testing.TB, url string, body any) (int, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

func TestQueryEndpointMatchesEngine(t *testing.T) {
	eng := testEngine(t)
	srv := New(Config{Backend: eng})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q, err := eng.ParseSPARQL(fixtureSPARQL)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := eng.Query(q, 3, specqp.ModeTriniT)
	if err != nil {
		t.Fatal(err)
	}

	status, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": fixtureSPARQL, "k": 3, "mode": "trinit",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	answers := out["answers"].([]any)
	if len(answers) != len(oracle.Answers) {
		t.Fatalf("answers: got %d want %d", len(answers), len(oracle.Answers))
	}
	for i, a := range answers {
		m := a.(map[string]any)
		want := oracle.Answers[i]
		if got := m["score"].(float64); got != want.Score {
			t.Fatalf("rank %d score %v want %v", i, got, want.Score)
		}
		binding := m["binding"].(map[string]any)
		if binding["s"] != eng.DecodeAnswer(q, want)["s"] {
			t.Fatalf("rank %d binding %v", i, binding)
		}
	}
	if out["tier"].(float64) != 0 || out["mode"] != "trinit" {
		t.Fatalf("tier/mode: %v / %v", out["tier"], out["mode"])
	}
}

func TestQueryBadRequests(t *testing.T) {
	srv := New(Config{Backend: testEngine(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"malformed json": `{`,
		"bad sparql":     `{"query":"garbage"}`,
		"bad mode":       fmt.Sprintf(`{"query":%q,"mode":"warp-speed"}`, fixtureSPARQL),
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d want 400", name, resp.StatusCode)
		}
	}
	if got := srv.Metrics().EngineQueries.Load(); got != 0 {
		t.Fatalf("bad requests reached the engine: %d", got)
	}
}

// TestQueryRejectsNaiveMode: "naive" is not a served mode. The request fails
// with 400 before reaching the engine, and the error names the valid modes.
func TestQueryRejectsNaiveMode(t *testing.T) {
	srv := New(Config{Backend: testEngine(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, out := postJSON(t, ts.URL+"/query", map[string]any{"query": fixtureSPARQL, "mode": "naive"})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d want 400 (%v)", status, out)
	}
	if errStr, _ := out["error"].(string); !strings.Contains(errStr, "spec-qp, trinit or exact") {
		t.Fatalf("error does not name the valid modes: %v", out)
	}
	if got := srv.Metrics().EngineQueries.Load(); got != 0 {
		t.Fatalf("naive request reached the engine: %d", got)
	}
}

func TestBatchEndpoint(t *testing.T) {
	eng := testEngine(t)
	srv := New(Config{Backend: eng})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q, err := eng.ParseSPARQL(fixtureSPARQL)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := eng.Query(q, 2, specqp.ModeTriniT)
	if err != nil {
		t.Fatal(err)
	}

	lines := fmt.Sprintf("{\"query\":%q,\"k\":2,\"mode\":\"trinit\"}\n{\"query\":\"garbage\"}\n{\"query\":%q}\n",
		fixtureSPARQL, fixtureSPARQL)
	resp, err := http.Post(ts.URL+"/batch", "application/x-ndjson", strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	outLines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(outLines) != 3 {
		t.Fatalf("lines: %d (%q)", len(outLines), raw)
	}
	var first, second, third map[string]any
	for i, dst := range []*map[string]any{&first, &second, &third} {
		if err := json.Unmarshal([]byte(outLines[i]), dst); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(first["answers"].([]any)); n != len(oracle.Answers) {
		t.Fatalf("line 1 answers: %d want %d", n, len(oracle.Answers))
	}
	if errStr, _ := second["error"].(string); !strings.Contains(errStr, "parse") {
		t.Fatalf("line 2 should be a parse error: %v", second)
	}
	if n := len(third["answers"].([]any)); n != len(oracle.Answers) {
		t.Fatalf("line 3 answers: %d want %d", n, len(oracle.Answers))
	}
}

func TestBatchRejectsEmptyAndOversized(t *testing.T) {
	srv := New(Config{Backend: testEngine(t), MaxBatchQueries: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/batch", "application/x-ndjson", strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}

	line := fmt.Sprintf("{\"query\":%q}\n", fixtureSPARQL)
	resp, err = http.Post(ts.URL+"/batch", "application/x-ndjson", strings.NewReader(strings.Repeat(line, 3)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", resp.StatusCode)
	}
	if got := srv.Metrics().EngineQueries.Load(); got != 0 {
		t.Fatalf("rejected batches reached the engine: %d", got)
	}
}

func TestMutationEndpoints(t *testing.T) {
	eng := testEngine(t)
	srv := New(Config{Backend: eng})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, out := postJSON(t, ts.URL+"/insert", map[string]any{
		"s": "bowie", "p": "rdf:type", "o": "singer", "score": 97.0,
	})
	if status != http.StatusOK || out["ok"] != true {
		t.Fatalf("insert: %d %v", status, out)
	}
	status, out = postJSON(t, ts.URL+"/update", map[string]any{
		"s": "bowie", "p": "rdf:type", "o": "singer", "score": 98.0,
	})
	if status != http.StatusOK || out["ok"] != true {
		t.Fatalf("update: %d %v", status, out)
	}
	status, out = postJSON(t, ts.URL+"/delete", map[string]any{
		"s": "bowie", "p": "rdf:type", "o": "singer",
	})
	if status != http.StatusOK || out["removed"].(float64) != 1 {
		t.Fatalf("delete: %d %v", status, out)
	}
	status, _ = postJSON(t, ts.URL+"/insert", map[string]any{"s": "x", "p": "", "o": "y"})
	if status != http.StatusBadRequest {
		t.Fatalf("missing field accepted: %d", status)
	}
	if got := srv.Metrics().Mutations.Load(); got != 3 {
		t.Fatalf("mutations counted: %d want 3", got)
	}
}

// TestMutationRejectsInvalidScore: a negative score is the client's error,
// so /insert and /update answer 400 — not 500, and not a mutation error —
// and the store is left untouched.
func TestMutationRejectsInvalidScore(t *testing.T) {
	eng := testEngine(t)
	srv := New(Config{Backend: eng})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := eng.Graph().Len()
	for _, op := range []string{"insert", "update"} {
		status, out := postJSON(t, ts.URL+"/"+op, map[string]any{
			"s": "bowie", "p": "rdf:type", "o": "singer", "score": -1.0,
		})
		if status != http.StatusBadRequest {
			t.Fatalf("%s with score -1: status %d want 400 (%v)", op, status, out)
		}
	}
	if got := srv.Metrics().MutationErrors.Load(); got != 0 {
		t.Fatalf("client errors counted as mutation errors: %d", got)
	}
	if got := eng.Graph().Len(); got != before {
		t.Fatalf("rejected mutations changed the store: %d triples, want %d", got, before)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := New(Config{Backend: testEngine(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, out := postJSON(t, ts.URL+"/query", map[string]any{"query": fixtureSPARQL, "k": 1}); out["error"] != nil {
		t.Fatalf("query: %v", out["error"])
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Wedged || h.Tier != 0 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"specqp_requests_total", "specqp_accepted_total", "specqp_shed_queue_total",
		"specqp_query_latency_p99_us", "specqp_degrade_tier 0", "specqp_wedged 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(text, "specqp_engine_queries_total 1") {
		t.Errorf("engine query not counted:\n%s", text)
	}
}

func TestDeadlineResolution(t *testing.T) {
	srv := New(Config{Backend: testEngine(t), DefaultDeadline: 2 * time.Second, MaxDeadline: 5 * time.Second})
	req := httptest.NewRequest("POST", "/query", nil)

	if d := srv.deadlineFor(req, 0); d != 2*time.Second {
		t.Fatalf("default: %v", d)
	}
	if d := srv.deadlineFor(req, 250); d != 250*time.Millisecond {
		t.Fatalf("body: %v", d)
	}
	req.Header.Set("X-Deadline-Ms", "400")
	if d := srv.deadlineFor(req, 250); d != 400*time.Millisecond {
		t.Fatalf("header should win: %v", d)
	}
	req.Header.Set("X-Deadline-Ms", "999999999")
	if d := srv.deadlineFor(req, 0); d != 5*time.Second {
		t.Fatalf("clamp: %v", d)
	}
}
