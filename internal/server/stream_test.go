package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// readNDJSON decodes a response body into one map per line.
func readNDJSON(t *testing.T, body []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// postRaw posts body and returns status, headers and raw response bytes.
func postRaw(t *testing.T, url, body string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw
}

// postStreamTimed is postRaw for streamed responses: it reads the body line
// by line as a streaming client would and also clocks, from the moment the
// request is sent, the first answer line (time to first answer) and the end
// of the body (full drain).
func postStreamTimed(t *testing.T, url, body string, hdr map[string]string) (status int, h http.Header, raw []byte, ttfa, drain time.Duration) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if ttfa == 0 && bytes.Contains(line, []byte(`"answer"`)) {
			ttfa = time.Since(start)
		}
		raw = append(raw, line...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, resp.Header, raw, ttfa, time.Since(start)
}

// TestStreamQueryMatchesBuffered: a streamed /query ("stream":true or the
// Accept header) delivers exactly the buffered response's answers — same
// order, same scores, same bindings — as individual lines plus a trailer
// carrying what the buffered envelope carried. Per request, the first answer
// arrives no later than the full drain.
func TestStreamQueryMatchesBuffered(t *testing.T) {
	eng := testEngine(t)
	srv := New(Config{Backend: eng})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, buffered := postJSON(t, ts.URL+"/query", map[string]any{
		"query": fixtureSPARQL, "k": 3, "mode": "trinit",
	})
	if status != http.StatusOK {
		t.Fatalf("buffered status %d", status)
	}
	want := buffered["answers"].([]any)
	if len(want) == 0 {
		t.Fatal("fixture query returned no answers")
	}

	for name, variant := range map[string]struct {
		body string
		hdr  map[string]string
	}{
		"body flag":     {body: fmt.Sprintf(`{"query":%q,"k":3,"mode":"trinit","stream":true}`, fixtureSPARQL)},
		"accept header": {body: fmt.Sprintf(`{"query":%q,"k":3,"mode":"trinit"}`, fixtureSPARQL), hdr: map[string]string{"Accept": "application/x-ndjson"}},
	} {
		status, hdr, raw, ttfa, drain := postStreamTimed(t, ts.URL+"/query", variant.body, variant.hdr)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", name, status, raw)
		}
		if ttfa <= 0 || ttfa > drain {
			t.Fatalf("%s: time to first answer %v, full drain %v", name, ttfa, drain)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%s: content type %q", name, ct)
		}
		lines := readNDJSON(t, raw)
		if len(lines) != len(want)+1 {
			t.Fatalf("%s: %d lines, want %d answers + trailer", name, len(lines), len(want))
		}
		for i, w := range want {
			wm := w.(map[string]any)
			ans, ok := lines[i]["answer"].(map[string]any)
			if !ok {
				t.Fatalf("%s: line %d is not an answer line: %v", name, i, lines[i])
			}
			if lines[i]["index"].(float64) != 0 {
				t.Fatalf("%s: line %d index %v", name, i, lines[i]["index"])
			}
			if ans["score"] != wm["score"] {
				t.Fatalf("%s: rank %d score %v, buffered %v", name, i, ans["score"], wm["score"])
			}
			gb, wb := ans["binding"].(map[string]any), wm["binding"].(map[string]any)
			if gb["s"] != wb["s"] {
				t.Fatalf("%s: rank %d binding %v, buffered %v", name, i, gb, wb)
			}
		}
		trailer, ok := lines[len(lines)-1]["trailer"].(map[string]any)
		if !ok {
			t.Fatalf("%s: last line is not a trailer: %v", name, lines[len(lines)-1])
		}
		if int(trailer["answers"].(float64)) != len(want) {
			t.Fatalf("%s: trailer answers %v, want %d", name, trailer["answers"], len(want))
		}
		if trailer["mode"] != "trinit" || trailer["error"] != nil {
			t.Fatalf("%s: trailer %v", name, trailer)
		}
	}

	if got := srv.Metrics().FirstAnswer.Count(); got != 2 {
		t.Fatalf("FirstAnswer observations: %d, want 2 (one per streamed query)", got)
	}
	if p50 := srv.Metrics().FirstAnswer.Quantile(0.5); p50 <= 0 {
		t.Fatalf("server-side first-answer p50 %v, want > 0", p50)
	}
	if got := srv.Metrics().StreamedAnswers.Load(); got != int64(2*len(want)) {
		t.Fatalf("streamed answers counter: %d, want %d", got, 2*len(want))
	}
	_, _, metricsRaw := getRaw(t, ts.URL+"/metrics")
	for _, needle := range []string{"specqp_first_answer_latency_count 2", "specqp_first_answer_latency_p50_us", "specqp_streamed_answers_total"} {
		if !strings.Contains(string(metricsRaw), needle) {
			t.Fatalf("/metrics missing %q:\n%s", needle, metricsRaw)
		}
	}
}

func getRaw(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw
}

// TestStreamBatchDemux: a streamed /batch interleaves answer lines across
// queries; demultiplexing by index reconstructs each query's buffered
// answers, parse errors surface as in-place trailers, and every input line
// gets exactly one trailer.
func TestStreamBatchDemux(t *testing.T) {
	eng := testEngine(t)
	srv := New(Config{Backend: eng})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, buffered := postJSON(t, ts.URL+"/query", map[string]any{
		"query": fixtureSPARQL, "k": 2, "mode": "trinit",
	})
	want := buffered["answers"].([]any)

	lines := fmt.Sprintf("{\"query\":%q,\"k\":2,\"mode\":\"trinit\",\"stream\":true}\n{\"query\":\"garbage\"}\n{\"query\":%q}\n",
		fixtureSPARQL, fixtureSPARQL)
	status, _, raw := postRaw(t, ts.URL+"/batch", lines, map[string]string{"Content-Type": "application/x-ndjson"})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, raw)
	}
	out := readNDJSON(t, raw)

	answers := map[int][]map[string]any{}
	trailers := map[int]map[string]any{}
	for _, m := range out {
		idx := int(m["index"].(float64))
		switch {
		case m["answer"] != nil:
			answers[idx] = append(answers[idx], m["answer"].(map[string]any))
		case m["trailer"] != nil:
			if _, dup := trailers[idx]; dup {
				t.Fatalf("line %d got two trailers", idx)
			}
			trailers[idx] = m["trailer"].(map[string]any)
		default:
			t.Fatalf("unrecognized line %v", m)
		}
	}
	for i := 0; i < 3; i++ {
		if trailers[i] == nil {
			t.Fatalf("no trailer for input line %d", i)
		}
	}
	if errStr, _ := trailers[1]["error"].(string); !strings.Contains(errStr, "parse") {
		t.Fatalf("line 1 trailer should carry parse error: %v", trailers[1])
	}
	if len(answers[1]) != 0 {
		t.Fatalf("parse-error line streamed %d answers", len(answers[1]))
	}
	for _, idx := range []int{0, 2} {
		if len(answers[idx]) != len(want) {
			t.Fatalf("query %d: %d streamed answers, buffered %d", idx, len(answers[idx]), len(want))
		}
		for i, w := range want {
			wm := w.(map[string]any)
			if answers[idx][i]["score"] != wm["score"] {
				t.Fatalf("query %d rank %d score %v, buffered %v", idx, i, answers[idx][i]["score"], wm["score"])
			}
		}
		if int(trailers[idx]["answers"].(float64)) != len(want) {
			t.Fatalf("query %d trailer answers %v", idx, trailers[idx]["answers"])
		}
	}
}

// flushRecorder counts Flush calls on top of a ResponseRecorder.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestStreamFlushesPerLine: every streamed line is followed by a Flush, so
// answers leave the process the moment they are proven, not when the
// response buffer happens to fill.
func TestStreamFlushesPerLine(t *testing.T) {
	srv := New(Config{Backend: testEngine(t)})
	body := fmt.Sprintf(`{"query":%q,"k":3,"mode":"trinit","stream":true}`, fixtureSPARQL)
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(rec, req)

	lines := readNDJSON(t, rec.Body.Bytes())
	if len(lines) < 2 {
		t.Fatalf("expected answers + trailer, got %d lines", len(lines))
	}
	if rec.flushes < len(lines) {
		t.Fatalf("%d flushes for %d lines — streaming is buffering", rec.flushes, len(lines))
	}
}

// failWriter is a ResponseWriter whose Write fails after `allow` successful
// calls, simulating a client that disconnected mid-response.
type failWriter struct {
	hdr    http.Header
	allow  int
	writes int
}

func (f *failWriter) Header() http.Header {
	if f.hdr == nil {
		f.hdr = http.Header{}
	}
	return f.hdr
}
func (f *failWriter) WriteHeader(int) {}
func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.allow {
		return 0, errors.New("broken pipe")
	}
	return len(p), nil
}

// TestBatchStopsOnFirstWriteFailure is the NDJSON truncation regression: the
// buffered /batch loop used to ignore enc.Encode errors, so a dead
// connection silently dropped response lines while the handler kept encoding
// into the void. Now the first failed write stops the loop: exactly one
// failing attempt, no further encode work.
func TestBatchStopsOnFirstWriteFailure(t *testing.T) {
	srv := New(Config{Backend: testEngine(t)})
	lines := strings.Repeat(fmt.Sprintf("{\"query\":%q,\"k\":2,\"mode\":\"trinit\"}\n", fixtureSPARQL), 3)
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(lines))
	fw := &failWriter{allow: 1}
	srv.Handler().ServeHTTP(fw, req)
	if fw.writes != 2 {
		t.Fatalf("write attempts: %d, want 2 (one success, one failure, then stop)", fw.writes)
	}
}

// TestStreamStopsOnFirstWriteFailure: same property on the streaming path —
// a failed answer write makes the emitter return false, which stops the
// engine's drain instead of computing answers for a client that left.
func TestStreamStopsOnFirstWriteFailure(t *testing.T) {
	srv := New(Config{Backend: testEngine(t)})
	body := fmt.Sprintf(`{"query":%q,"k":3,"mode":"trinit","stream":true}`, fixtureSPARQL)
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	fw := &failWriter{allow: 1}
	srv.Handler().ServeHTTP(fw, req)
	if fw.writes != 2 {
		t.Fatalf("write attempts: %d, want 2 (first answer, failed second, no trailer)", fw.writes)
	}
	// The healthy run writes 3 answers + 1 trailer; stopping at 2 attempts
	// proves the drain was cut short, and StreamedAnswers records only the
	// emissions that were attempted.
	if got := srv.Metrics().StreamedAnswers.Load(); got != 2 {
		t.Fatalf("streamed answers after dead pipe: %d, want 2", got)
	}
}

// TestBatchLargerThanBurstAdmitted is the admission starvation regression:
// a /batch whose line count exceeds BurstPerClient used to need more tokens
// than the bucket can ever hold — the refill saturates at burst — so every
// retry saw 429 forever. The cost is now clamped to the bucket capacity:
// the batch is admitted when the bucket is full, drains it completely, and
// the advertised Retry-After is enough for the next oversized batch.
func TestBatchLargerThanBurstAdmitted(t *testing.T) {
	base := time.Now()
	var offsetNS atomic.Int64
	srv := New(Config{
		Backend:        testEngine(t),
		RatePerClient:  1,
		BurstPerClient: 2,
		now:            func() time.Time { return base.Add(time.Duration(offsetNS.Load())) },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := strings.Repeat(fmt.Sprintf("{\"query\":%q,\"k\":1,\"mode\":\"trinit\"}\n", fixtureSPARQL), 4)
	hdr := map[string]string{"Content-Type": "application/x-ndjson", "X-Client-ID": "oversized"}

	status, _, raw := postRaw(t, ts.URL+"/batch", batch, hdr)
	if status != http.StatusOK {
		t.Fatalf("oversized batch refused with a full bucket: status %d (%s)", status, raw)
	}
	if got := len(readNDJSON(t, raw)); got != 4 {
		t.Fatalf("admitted batch answered %d lines, want 4", got)
	}

	// Bucket drained: the immediate retry is shed, with a truthful hint.
	status, hdrs, _ := postRaw(t, ts.URL+"/batch", batch, hdr)
	if status != http.StatusTooManyRequests {
		t.Fatalf("drained bucket admitted a batch: status %d", status)
	}
	retry := hdrs.Get("Retry-After")
	if retry == "" {
		t.Fatal("429 without Retry-After")
	}

	// Advancing the clock past the refill horizon must re-admit the same
	// oversized batch — the permanent-starvation repro under the old cost
	// accounting, where no amount of waiting ever helped.
	offsetNS.Store(int64(3 * time.Second))
	status, _, raw = postRaw(t, ts.URL+"/batch", batch, hdr)
	if status != http.StatusOK {
		t.Fatalf("oversized batch still refused after full refill: status %d (%s)", status, raw)
	}
	if got := srv.Metrics().ShedRate.Load(); got != 1 {
		t.Fatalf("shed_rate counter: %d, want 1", got)
	}
}

// TestBucketTakeClampsOversizedCost pins the bucket-level fix directly: a
// cost beyond burst is payable (clamped to capacity) and refill restores
// admission within burst/rate seconds — the exact scenario that starved
// forever when take demanded more tokens than the bucket can hold.
func TestBucketTakeClampsOversizedCost(t *testing.T) {
	base := time.Now()
	now := base
	bt := newBucketTable(1, 4, 16, func() time.Time { return now })

	ok, _ := bt.take("c", 10)
	if !ok {
		t.Fatal("full bucket refused an oversized cost — permanent starvation")
	}
	ok, retry := bt.take("c", 1)
	if ok {
		t.Fatal("drained bucket granted a token")
	}
	if retry < time.Second || retry > 5*time.Second {
		t.Fatalf("retry hint %v not within the refill horizon", retry)
	}
	now = base.Add(4 * time.Second) // full refill at rate 1, burst 4
	if ok, _ = bt.take("c", 10); !ok {
		t.Fatal("refilled bucket refused the oversized cost again")
	}
}

// TestShedCanceledMetric: a client that gives up while waiting in the accept
// queue is counted as shed_canceled — distinct from rate/queue sheds — and
// the counter is visible at /metrics. MaxInflight=1 with a gated backend
// holds the only slot; a /batch request queues behind it (the batch handler
// consumes its whole body before admission, so the server's background read
// is armed and the disconnect is observable while queued); canceling its
// context abandons the queue.
func TestShedCanceledMetric(t *testing.T) {
	eng := testEngine(t)
	gb := &gateBackend{Backend: eng, gate: make(chan struct{})}
	srv := New(Config{Backend: gb, MaxInflight: 1, MaxQueue: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"query": fixtureSPARQL, "mode": "trinit", "deadline_ms": 10000})

	first := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	waitFor(t, "first request to hold the slot", func() bool { return gb.queryCalls.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/batch",
		strings.NewReader(fmt.Sprintf("{\"query\":%q,\"mode\":\"trinit\"}\n", fixtureSPARQL)))
	if err != nil {
		t.Fatal(err)
	}
	second := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		second <- err
	}()
	waitFor(t, "second request to queue", func() bool { return srv.waiting.Load() == 1 })

	cancel()
	waitFor(t, "shed_canceled to be counted", func() bool { return srv.Metrics().ShedCanceled.Load() == 1 })
	if err := <-second; err == nil {
		t.Fatal("canceled request reported success")
	}
	if got := gb.queryCalls.Load(); got != 1 {
		t.Fatalf("abandoned request reached the engine: %d calls", got)
	}

	close(gb.gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	_, _, metricsRaw := getRaw(t, ts.URL+"/metrics")
	if !strings.Contains(string(metricsRaw), "specqp_shed_canceled_total 1") {
		t.Fatalf("/metrics missing shed_canceled_total:\n%s", metricsRaw)
	}
}

// waitFor polls cond until true or the deadline trips.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
