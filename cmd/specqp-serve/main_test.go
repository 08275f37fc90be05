package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeFixture writes a small triples TSV and rules TSV into dir.
func writeFixture(t *testing.T, dir string) (triples, rules string) {
	t.Helper()
	var tb strings.Builder
	for _, row := range []struct {
		s, o  string
		score float64
	}{
		{"shakira", "singer", 100}, {"beyonce", "singer", 90}, {"miley", "singer", 50},
		{"prince", "vocalist", 95}, {"elton", "vocalist", 85},
		{"shakira", "guitarist", 40}, {"prince", "guitarist", 99},
		{"miley", "musician", 45}, {"beyonce", "musician", 70},
	} {
		fmt.Fprintf(&tb, "%s\trdf:type\t%s\t%g\n", row.s, row.o, row.score)
	}
	triples = filepath.Join(dir, "triples.tsv")
	if err := os.WriteFile(triples, []byte(tb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// From: ?s rdf:type singer  →  To: ?s rdf:type vocalist, weight 0.8.
	rulesTSV := "?s\trdf:type\tsinger\t?s\trdf:type\tvocalist\t0.8\n" +
		"?s\trdf:type\tguitarist\t?s\trdf:type\tmusician\t0.7\n"
	rules = filepath.Join(dir, "rules.tsv")
	if err := os.WriteFile(rules, []byte(rulesTSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return triples, rules
}

const smokeQuery = `SELECT ?s WHERE { ?s 'rdf:type' <singer> . ?s 'rdf:type' <guitarist> }`

// TestServeSmoke boots the full binary path through the run() seam: load a
// store, serve queries and mutations over HTTP, weather an overload burst
// without dropping an accepted answer, then drain cleanly on shutdown.
func TestServeSmoke(t *testing.T) {
	triples, rules := writeFixture(t, t.TempDir())
	shutdown := make(chan struct{})
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-triples", triples,
			"-rules", rules,
			"-max-inflight", "2",
			"-max-queue", "2",
		}, io.Discard, shutdown, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	// A straight query works and answers.
	body := fmt.Sprintf(`{"query":%q,"k":3,"mode":"trinit"}`, smokeQuery)
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"prince"`) {
		t.Fatalf("query: %d %s", resp.StatusCode, raw)
	}

	// A mutation round-trips.
	resp, err = http.Post(base+"/insert", "application/json",
		strings.NewReader(`{"s":"bowie","p":"rdf:type","o":"singer","score":97}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d", resp.StatusCode)
	}

	// Overload burst against the tiny (2-slot, 2-queue) server: every
	// response is either a served answer or a clean 429 — never a dropped
	// connection or a 5xx.
	var wg sync.WaitGroup
	var served, shed, other int64
	var mu sync.Mutex
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
			if err != nil {
				mu.Lock()
				other++
				mu.Unlock()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			switch resp.StatusCode {
			case http.StatusOK:
				served++
			case http.StatusTooManyRequests:
				shed++
			default:
				other++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("burst: %d requests neither served nor shed (served=%d shed=%d)", other, served, shed)
	}
	if served == 0 {
		t.Fatal("burst: nothing served")
	}

	// /healthz and /metrics respond.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}

	// Graceful drain: shutdown exits cleanly.
	close(shutdown)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain")
	}
}

// TestServeDurableRecovery: mutations served over HTTP into a WAL-backed
// engine survive a restart of the whole server.
func TestServeDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	triples, rules := writeFixture(t, dir)
	wal := filepath.Join(dir, "wal")

	boot := func(args []string) (string, chan struct{}, chan error) {
		shutdown := make(chan struct{})
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- run(args, io.Discard, shutdown, ready) }()
		select {
		case addr := <-ready:
			return "http://" + addr, shutdown, done
		case err := <-done:
			t.Fatalf("server exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("server never became ready")
		}
		panic("unreachable")
	}

	base, shutdown, done := boot([]string{
		"-addr", "127.0.0.1:0", "-triples", triples, "-rules", rules, "-wal", wal,
	})
	resp, err := http.Post(base+"/insert", "application/json",
		strings.NewReader(`{"s":"bowie","p":"rdf:type","o":"guitarist","score":97}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d", resp.StatusCode)
	}
	close(shutdown)
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Restart from the WAL directory alone; the served insert must be there.
	base, shutdown, done = boot([]string{"-addr", "127.0.0.1:0", "-wal", wal})
	body := fmt.Sprintf(`{"query":%q,"k":5,"mode":"trinit"}`,
		`SELECT ?s WHERE { ?s 'rdf:type' <guitarist> }`)
	resp, err = http.Post(base+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"bowie"`) {
		t.Fatalf("recovered query: %d %s", resp.StatusCode, raw)
	}
	close(shutdown)
	if err := <-done; err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// syncBuf is a goroutine-safe output sink: run() prints from the serving
// goroutine while the test reads the transcript for the bound replication
// address.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// postJSON posts body and returns the status code and response bytes.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw
}

// TestServeReplicationEndToEnd runs the two-process topology through the run()
// seam: a durable primary with -listen-repl, a follower with -replicate-from,
// both serving HTTP. Mutations posted to the primary become visible on the
// follower; its /healthz reports replica position and zero lag at quiescence;
// both processes answer every query mode identically; mutations on the
// follower shed with 503; and the follower's /metrics exports the lag gauges.
func TestServeReplicationEndToEnd(t *testing.T) {
	dir := t.TempDir()
	triples, rules := writeFixture(t, dir)
	walDir := filepath.Join(dir, "wal")

	boot := func(out io.Writer, args []string) (string, chan struct{}, chan error) {
		shutdown := make(chan struct{})
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- run(args, out, shutdown, ready) }()
		select {
		case addr := <-ready:
			return "http://" + addr, shutdown, done
		case err := <-done:
			t.Fatalf("server exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("server never became ready")
		}
		panic("unreachable")
	}

	var out syncBuf
	primBase, primShutdown, primDone := boot(&out, []string{
		"-addr", "127.0.0.1:0", "-triples", triples, "-rules", rules,
		"-wal", walDir, "-listen-repl", "127.0.0.1:0",
	})

	// The primary prints the bound shipping address before signalling ready.
	var replAddr string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "replicating on "); ok {
			replAddr = rest
		}
	}
	if replAddr == "" {
		t.Fatalf("no replication address in transcript:\n%s", out.String())
	}

	folBase, folShutdown, folDone := boot(io.Discard, []string{
		"-addr", "127.0.0.1:0", "-replicate-from", replAddr, "-rules", rules,
	})

	// Mutations land on the primary...
	for _, body := range []string{
		`{"s":"bowie","p":"rdf:type","o":"singer","score":97}`,
		`{"s":"bowie","p":"rdf:type","o":"guitarist","score":88}`,
	} {
		if code, raw := postJSON(t, primBase+"/insert", body); code != http.StatusOK {
			t.Fatalf("primary insert: %d %s", code, raw)
		}
	}

	// ...and the follower's health converges to zero lag at an applied
	// position covering them, reporting itself a read-only replica.
	type health struct {
		Status     string  `json:"status"`
		Replica    bool    `json:"replica"`
		AppliedSeq *uint64 `json:"replica_applied_seq"`
		LagSeq     *uint64 `json:"replica_lag_seq"`
	}
	var h health
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(folBase + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Replica && h.AppliedSeq != nil && *h.AppliedSeq >= 2 && h.LagSeq != nil && *h.LagSeq == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h.Status != "read-only" {
		t.Fatalf("follower health status = %q, want read-only", h.Status)
	}

	// Every mode answers identically on both processes — bindings, scores and
	// relaxation masks; only the timing fields may differ.
	type answers struct {
		Answers []struct {
			Binding map[string]string `json:"binding"`
			Score   float64           `json:"score"`
			Relaxed uint32            `json:"relaxed"`
		} `json:"answers"`
	}
	for _, mode := range []string{"specqp", "trinit", "exact"} {
		body := fmt.Sprintf(`{"query":%q,"k":5,"mode":%q}`, smokeQuery, mode)
		var prim, fol answers
		code, raw := postJSON(t, primBase+"/query", body)
		if code != http.StatusOK {
			t.Fatalf("primary %s query: %d %s", mode, code, raw)
		}
		if err := json.Unmarshal(raw, &prim); err != nil {
			t.Fatal(err)
		}
		code, raw = postJSON(t, folBase+"/query", body)
		if code != http.StatusOK {
			t.Fatalf("follower %s query: %d %s", mode, code, raw)
		}
		if err := json.Unmarshal(raw, &fol); err != nil {
			t.Fatal(err)
		}
		if len(prim.Answers) == 0 || !reflect.DeepEqual(prim.Answers, fol.Answers) {
			t.Fatalf("mode %s diverged:\nprimary:  %+v\nfollower: %+v", mode, prim.Answers, fol.Answers)
		}
	}

	// Mutations on the follower shed with 503: replicas are read-only.
	if code, raw := postJSON(t, folBase+"/insert",
		`{"s":"elvis","p":"rdf:type","o":"singer","score":99}`); code != http.StatusServiceUnavailable {
		t.Fatalf("follower insert = %d %s, want 503", code, raw)
	}

	// The follower exports the replication gauges.
	resp, err := http.Get(folBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, gauge := range []string{"specqp_replica_lag_seq", "specqp_replica_applied_seq", "specqp_replica_connected"} {
		if !strings.Contains(string(raw), gauge) {
			t.Fatalf("follower /metrics missing %s:\n%s", gauge, raw)
		}
	}

	// A mutation after catch-up still flows: the follower tails continuously,
	// not just at bootstrap.
	if code, raw := postJSON(t, primBase+"/insert",
		`{"s":"aretha","p":"rdf:type","o":"singer","score":98}`); code != http.StatusOK {
		t.Fatalf("late primary insert: %d %s", code, raw)
	}
	lateQuery := fmt.Sprintf(`{"query":%q,"k":8,"mode":"trinit"}`,
		`SELECT ?s WHERE { ?s 'rdf:type' <singer> }`)
	deadline = time.Now().Add(15 * time.Second)
	for {
		code, raw := postJSON(t, folBase+"/query", lateQuery)
		if code == http.StatusOK && strings.Contains(string(raw), `"aretha"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late insert never reached the follower: %d %s", code, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Both processes drain cleanly — follower first, then the primary.
	close(folShutdown)
	if err := <-folDone; err != nil {
		t.Fatalf("follower drain: %v", err)
	}
	close(primShutdown)
	if err := <-primDone; err != nil {
		t.Fatalf("primary drain: %v", err)
	}
}

// TestServeReplicationFlagRefusals pins the CLI contract: follower mode
// refuses every flag that would build or persist local state, and shipping
// requires a log to ship.
func TestServeReplicationFlagRefusals(t *testing.T) {
	triples, _ := writeFixture(t, t.TempDir())
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"follower refuses -wal",
			[]string{"-replicate-from", "127.0.0.1:1", "-wal", "w"},
			"owns no log"},
		{"follower refuses -triples",
			[]string{"-replicate-from", "127.0.0.1:1", "-triples", triples},
			"ships from the primary"},
		{"follower refuses -listen-repl",
			[]string{"-replicate-from", "127.0.0.1:1", "-listen-repl", "127.0.0.1:0"},
			"cannot re-ship"},
		{"shipping requires -wal",
			[]string{"-triples", triples, "-listen-repl", "127.0.0.1:0"},
			"requires -wal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard, nil, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
