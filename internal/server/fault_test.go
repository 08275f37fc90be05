// Fault-injection harness for the query service. Every scenario here is an
// overload, fault, or shutdown the server must survive with its invariants
// intact: shed requests never touch the engine, served answers are
// bit-identical to an unloaded oracle, goroutines and queues stay bounded,
// a wedged log degrades to read-only instead of down, and drain loses no
// in-flight work.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specqp"
)

// fakeClock is the injected time source for admission/degradation tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestShedBeforeEngine floods a 1-slot, 1-queue server whose backend is
// parked on a gate: of N concurrent requests exactly two may ever reach the
// engine (one running, one queued); every other request must be shed with a
// fast 429 + Retry-After while the gate is still closed — proving sheds
// happen before any engine work.
func TestShedBeforeEngine(t *testing.T) {
	gb := &gateBackend{Backend: testEngine(t), gate: make(chan struct{})}
	srv := New(Config{Backend: gb, MaxInflight: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 12
	body := fmt.Sprintf(`{"query":%q,"k":2,"deadline_ms":30000}`, fixtureSPARQL)
	statuses := make(chan int, n)
	var launched, shedSeen sync.WaitGroup
	launched.Add(n)
	shedSeen.Add(n - 2)
	for i := 0; i < n; i++ {
		go func() {
			defer launched.Done()
			resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				statuses <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				shedSeen.Done()
			}
			statuses <- resp.StatusCode
		}()
	}

	// Wait until all n-2 sheds have come back. The gate is still closed, so
	// at this instant the engine has been touched by at most the two admitted
	// requests — and neither has completed.
	shedSeen.Wait()
	if got := gb.queryCalls.Load(); got > 2 {
		t.Fatalf("engine touched %d times with gate closed (want <= 2)", got)
	}
	if got := srv.Metrics().ShedQueue.Load(); got != n-2 {
		t.Fatalf("ShedQueue = %d, want %d", got, n-2)
	}

	close(gb.gate)
	launched.Wait()
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		counts[<-statuses]++
	}
	if counts[http.StatusOK] != 2 || counts[http.StatusTooManyRequests] != n-2 {
		t.Fatalf("status distribution: %v", counts)
	}
	if got := gb.queryCalls.Load(); got != 2 {
		t.Fatalf("engine calls after drain: %d want 2", got)
	}
}

// TestRateLimitShedsPerClient verifies the per-client token buckets: a burst
// past the bucket is shed per client, and an independent client is untouched.
func TestRateLimitShedsPerClient(t *testing.T) {
	clock := newFakeClock()
	srv := New(Config{
		Backend:       testEngine(t),
		RatePerClient: 1, BurstPerClient: 2,
		now: clock.Now,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do := func(client string) int {
		req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(
			fmt.Sprintf(`{"query":%q,"k":1}`, fixtureSPARQL)))
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	got := []int{do("alice"), do("alice"), do("alice"), do("alice")}
	want := []int{200, 200, 429, 429}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alice request %d: status %d want %d (all: %v)", i+1, got[i], want[i], got)
		}
	}
	if s := do("bob"); s != http.StatusOK {
		t.Fatalf("bob should have a fresh bucket, got %d", s)
	}
	// The bucket refills at 1 token/sec on the fake clock.
	clock.Advance(2 * time.Second)
	if s := do("alice"); s != http.StatusOK {
		t.Fatalf("alice after refill: %d", s)
	}
	if srv.Metrics().ShedRate.Load() != 2 {
		t.Fatalf("ShedRate = %d", srv.Metrics().ShedRate.Load())
	}
}

// TestDegradationTiers drives the governor through its tiers on a fake clock
// and asserts the server rewrites admitted queries accordingly: exact-only at
// tier 1, shrunk k at tier 2, and full recovery after a quiet period.
func TestDegradationTiers(t *testing.T) {
	clock := newFakeClock()
	srv := New(Config{
		Backend:           testEngine(t),
		DegradeThreshold:  4, // tier1 at 4 outstanding sheds, tier2 at 16
		DegradeLeakPerSec: 1,
		DegradedK:         1,
		now:               clock.Now,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	query := func() map[string]any {
		_, out := postJSON(t, ts.URL+"/query", map[string]any{
			"query": fixtureSPARQL, "k": 3, "mode": "spec-qp",
		})
		return out
	}

	if out := query(); out["mode"] != "spec-qp" || out["tier"].(float64) != 0 {
		t.Fatalf("tier 0: %v / %v", out["mode"], out["tier"])
	}

	for i := 0; i < 5; i++ {
		srv.gov.noteShed()
	}
	if srv.Tier() != TierExact {
		t.Fatalf("tier after 5 sheds: %d", srv.Tier())
	}
	out := query()
	if out["mode"] != "exact" || out["tier"].(float64) != 1 {
		t.Fatalf("tier 1 should force exact mode: %v / %v", out["mode"], out["tier"])
	}
	if len(out["answers"].([]any)) == 0 {
		t.Fatal("tier 1 still answers")
	}

	for i := 0; i < 20; i++ {
		srv.gov.noteShed()
	}
	if srv.Tier() != TierShrunkK {
		t.Fatalf("tier after sustained sheds: %d", srv.Tier())
	}
	out = query()
	if out["mode"] != "exact" || out["k"].(float64) != 1 {
		t.Fatalf("tier 2 should shrink k to 1: %v / k=%v", out["mode"], out["k"])
	}
	if n := len(out["answers"].([]any)); n > 1 {
		t.Fatalf("tier 2 answers: %d", n)
	}

	// /healthz reports the degradation.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthz
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "degraded" || h.Tier != TierShrunkK {
		t.Fatalf("healthz under degradation: %+v", h)
	}

	// A quiet period leaks the bucket dry and the server recovers fully.
	clock.Advance(time.Minute)
	if srv.Tier() != TierNormal {
		t.Fatalf("tier after quiet period: %d", srv.Tier())
	}
	if out := query(); out["mode"] != "spec-qp" || out["tier"].(float64) != 0 {
		t.Fatalf("recovery: %v / %v", out["mode"], out["tier"])
	}
	if srv.Metrics().Degraded.Load() != 2 {
		t.Fatalf("Degraded = %d", srv.Metrics().Degraded.Load())
	}
}

// TestReadOnlyOnWedgedLog verifies graceful degradation under a durability
// fault: with the WAL wedged, mutations fail fast with 503 before touching
// the engine, queries keep serving, and /healthz reports read-only.
func TestReadOnlyOnWedgedLog(t *testing.T) {
	gb := &gateBackend{Backend: testEngine(t)}
	gb.wedged.Store(true)
	srv := New(Config{Backend: gb})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, out := postJSON(t, ts.URL+"/insert", map[string]any{
		"s": "bowie", "p": "rdf:type", "o": "singer", "score": 97.0,
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("wedged insert: status %d %v", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "read-only") || !strings.Contains(msg, "wedged") {
		t.Fatalf("wedged insert error: %v", out)
	}
	if gb.mutCalls.Load() != 0 {
		t.Fatal("wedged mutation reached the engine")
	}

	status, out = postJSON(t, ts.URL+"/query", map[string]any{"query": fixtureSPARQL, "k": 2})
	if status != http.StatusOK || len(out["answers"].([]any)) == 0 {
		t.Fatalf("queries must keep serving read-only: %d %v", status, out)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthz
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "read-only" || !h.Wedged {
		t.Fatalf("healthz: %+v", h)
	}
}

// TestDrainFlushesAndRefuses proves the graceful-drain sequence: in-flight
// requests finish and are answered, new arrivals get a fast 503, and the
// final Sync+Checkpoint runs exactly once.
func TestDrainFlushesAndRefuses(t *testing.T) {
	gb := &gateBackend{Backend: testEngine(t), gate: make(chan struct{})}
	srv := New(Config{Backend: gb, MaxInflight: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(
			fmt.Sprintf(`{"query":%q,"k":2,"deadline_ms":30000}`, fixtureSPARQL)))
		if err != nil {
			inflight <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	// Wait for the request to reach the engine gate.
	for gb.queryCalls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New arrivals are refused immediately while the in-flight one runs.
	status, _ := postJSON(t, ts.URL+"/query", map[string]any{"query": fixtureSPARQL})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d", status)
	}
	if srv.Metrics().ShedDraining.Load() != 1 {
		t.Fatalf("ShedDraining = %d", srv.Metrics().ShedDraining.Load())
	}

	close(gb.gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := <-inflight; got != http.StatusOK {
		t.Fatalf("in-flight request dropped during drain: status %d", got)
	}
	if gb.syncs.Load() != 1 || gb.checkpoints.Load() != 1 {
		t.Fatalf("final flush: syncs=%d checkpoints=%d", gb.syncs.Load(), gb.checkpoints.Load())
	}

	// A second Drain waits but must not flush again.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if gb.syncs.Load() != 1 || gb.checkpoints.Load() != 1 {
		t.Fatal("second drain re-flushed")
	}
}

// TestDrainTimesOutOnStuckRequest: a request parked in the engine past the
// drain context's deadline surfaces as a drain error, not a hang.
func TestDrainTimesOutOnStuckRequest(t *testing.T) {
	gb := &gateBackend{Backend: testEngine(t), gate: make(chan struct{})}
	srv := New(Config{Backend: gb})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	go http.Post(ts.URL+"/query", "application/json", strings.NewReader(
		fmt.Sprintf(`{"query":%q,"deadline_ms":30000}`, fixtureSPARQL)))
	for gb.queryCalls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("drain should time out with a stuck request")
	}
	close(gb.gate)
}

// TestClientCancelReleasesSlot: a client that disconnects mid-query must not
// leak its execution slot — the service recovers full capacity.
func TestClientCancelReleasesSlot(t *testing.T) {
	gb := &gateBackend{Backend: testEngine(t), gate: make(chan struct{})}
	defer close(gb.gate)
	srv := New(Config{Backend: gb, MaxInflight: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/query", strings.NewReader(
		fmt.Sprintf(`{"query":%q,"deadline_ms":30000}`, fixtureSPARQL)))
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	for gb.queryCalls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected client-side cancellation error")
	}

	// The slot must come back: a fresh request gets admitted (it parks on the
	// gate, which is exactly the point — admission succeeded).
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.slots) != 0 || srv.waiting.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slot leaked after client cancel: inflight=%d waiting=%d",
				len(srv.slots), srv.waiting.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOracleBitIdenticalUnderLoad hammers an undersized server with a mixed
// query/mutation workload and asserts the core correctness invariant: every
// answered query is bit-identical (bindings and scores) to the unloaded
// oracle; overload may shed, but it may never corrupt.
func TestOracleBitIdenticalUnderLoad(t *testing.T) {
	eng := testEngine(t)
	q, err := eng.ParseSPARQL(fixtureSPARQL)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := eng.Query(q, 3, specqp.ModeTriniT)
	if err != nil {
		t.Fatal(err)
	}
	type wireAnswer struct {
		Binding map[string]string
		Score   float64
	}
	want := make([]wireAnswer, len(oracle.Answers))
	for i, a := range oracle.Answers {
		want[i] = wireAnswer{Binding: eng.DecodeAnswer(q, a), Score: a.Score}
	}

	// Every clock read lands a minute after the previous one, so the shed
	// bucket drains between any two events and the governor stays at
	// TierNormal however the box schedules the workers: the test checks
	// answers, not scheduling.
	clock := newFakeClock()
	srv := New(Config{Backend: eng, MaxInflight: 2, MaxQueue: 2, now: func() time.Time {
		clock.Advance(time.Minute)
		return clock.Now()
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers, perWorker = 8, 40
	var served, shed, failed atomic.Int64
	var wg sync.WaitGroup
	body := fmt.Sprintf(`{"query":%q,"k":3,"mode":"trinit","deadline_ms":10000}`, fixtureSPARQL)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Every 8th op is a mutation of an unrelated predicate, so the
				// oracle stays valid while the write path stays hot.
				if i%8 == 7 {
					buf, _ := json.Marshal(map[string]any{
						"s": fmt.Sprintf("w%d-i%d", w, i), "p": "noise", "o": "blob", "score": 1.0,
					})
					resp, err := http.Post(ts.URL+"/insert", "application/json", bytes.NewReader(buf))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					continue
				}
				resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var out struct {
						Answers []struct {
							Binding map[string]string `json:"binding"`
							Score   float64           `json:"score"`
						} `json:"answers"`
					}
					if err := json.Unmarshal(raw, &out); err != nil {
						t.Errorf("decode: %v", err)
						continue
					}
					if len(out.Answers) != len(want) {
						t.Errorf("answer count %d want %d", len(out.Answers), len(want))
						continue
					}
					for r := range want {
						if out.Answers[r].Score != want[r].Score ||
							out.Answers[r].Binding["s"] != want[r].Binding["s"] {
							t.Errorf("rank %d: got %v/%v want %v/%v", r,
								out.Answers[r].Binding["s"], out.Answers[r].Score,
								want[r].Binding["s"], want[r].Score)
						}
					}
					served.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					failed.Add(1)
					t.Errorf("unexpected status %d: %s", resp.StatusCode, raw)
				}
			}
		}(w)
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no queries served under load")
	}
	if failed.Load() != 0 {
		t.Fatalf("failed requests: %d", failed.Load())
	}
	t.Logf("served=%d shed=%d", served.Load(), shed.Load())
}

// TestGoroutinesBoundedUnderBurst asserts overload does not grow the
// process: after an overload burst drains, the goroutine count returns to
// near its pre-burst baseline (no leaked handlers, waiters, or timers).
func TestGoroutinesBoundedUnderBurst(t *testing.T) {
	gb := &gateBackend{Backend: testEngine(t), gate: make(chan struct{})}
	srv := New(Config{Backend: gb, MaxInflight: 2, MaxQueue: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	runtime.GC()
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	body := fmt.Sprintf(`{"query":%q,"deadline_ms":30000}`, fixtureSPARQL)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	close(gb.gate)
	wg.Wait()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d -> %d",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if w := srv.waiting.Load(); w != 0 {
		t.Fatalf("accept queue not drained: %d", w)
	}
}

// TestSlowLorisRecovery: connections that trickle bytes forever must not pin
// the service. With ReadTimeout armed (as specqp-serve arms it), the loris
// connections are cut and full capacity returns to honest clients.
func TestSlowLorisRecovery(t *testing.T) {
	gb := &gateBackend{Backend: testEngine(t)}
	srv := New(Config{Backend: gb, MaxInflight: 2, MaxQueue: 2})
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ReadTimeout = 300 * time.Millisecond
	ts.Start()
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	// Open loris connections that send headers promising a body, then stall.
	var conns []net.Conn
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(c, "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{")
		conns = append(conns, c)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	// Within a few read-timeout periods the loris slots are reclaimed and an
	// honest query is served.
	deadline := time.Now().Add(5 * time.Second)
	body := fmt.Sprintf(`{"query":%q,"k":2}`, fixtureSPARQL)
	for {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err == nil {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(raw), "answers") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("service did not recover from slow-loris connections")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestBucketTableBounded: cycling client IDs cannot grow the bucket table
// past its cap; with every bucket active, unknown newcomers are refused.
func TestBucketTableBounded(t *testing.T) {
	clock := newFakeClock()
	bt := newBucketTable(1, 4, 8, clock.Now)
	for i := 0; i < 100; i++ {
		bt.take(fmt.Sprintf("client-%d", i), 1)
	}
	if len(bt.buckets) > 8 {
		t.Fatalf("bucket table grew to %d (cap 8)", len(bt.buckets))
	}
	// Drain every bucket so none is idle-evictable, then a newcomer must be
	// refused rather than grow the table.
	clock.Advance(10 * time.Second)
	ids := make([]string, 0, len(bt.buckets))
	for id := range bt.buckets {
		ids = append(ids, id)
	}
	for _, id := range ids {
		bt.take(id, 4)
	}
	ok, retry := bt.take("newcomer", 1)
	if ok || retry < time.Second {
		t.Fatalf("saturated table admitted newcomer: ok=%v retry=%v", ok, retry)
	}
	// Once buckets refill (idle owners), the newcomer evicts one and gets in.
	clock.Advance(time.Minute)
	if ok, _ := bt.take("newcomer", 1); !ok {
		t.Fatal("idle eviction failed")
	}
	if len(bt.buckets) > 8 {
		t.Fatalf("table exceeded cap after eviction: %d", len(bt.buckets))
	}
}

// TestExpiredDeadlineReports504: a deadline that expires inside the engine
// maps to 504 with the partial flag set.
func TestExpiredDeadlineReports504(t *testing.T) {
	gb := &gateBackend{Backend: testEngine(t), gate: make(chan struct{})}
	defer close(gb.gate)
	srv := New(Config{Backend: gb})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": fixtureSPARQL, "deadline_ms": 50,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %v", status, out)
	}
	if out["partial"] != true {
		t.Fatalf("expired query should be marked partial: %v", out)
	}
	if srv.Metrics().Expired.Load() != 1 {
		t.Fatalf("Expired = %d", srv.Metrics().Expired.Load())
	}
}
