// Command serve is a self-contained transcript of the resilient query
// service: it boots the HTTP front end (internal/server) over a small
// musicians graph on a loopback port, then plays the part of the clients —
// a query, a live insert, the same query streamed as NDJSON (one line per
// proven-final answer plus a trailer), an overload burst against a
// deliberately tiny executor (watch the 429s), a health check, a metrics
// excerpt — and finally drains the server the way a SIGTERM would.
//
// The same server ships as a binary: see cmd/specqp-serve.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"specqp"
	"specqp/internal/server"
)

func main() {
	// A scored graph and one relaxation rule, same shape as examples/musicians.
	st := specqp.NewStore()
	for _, row := range []struct {
		s, o  string
		score float64
	}{
		{"shakira", "singer", 100}, {"beyonce", "singer", 90}, {"miley", "singer", 50},
		{"prince", "vocalist", 95}, {"elton", "vocalist", 85},
		{"shakira", "guitarist", 40}, {"prince", "guitarist", 99},
	} {
		st.AddSPO(row.s, "rdf:type", row.o, row.score)
	}
	st.Freeze()

	rules := specqp.NewRuleSet()
	dict := st.Dict()
	typeID, _ := dict.Lookup("rdf:type")
	singer, _ := dict.Lookup("singer")
	vocalist, _ := dict.Lookup("vocalist")
	s := specqp.Var("s")
	rules.Add(specqp.Rule{
		From:   specqp.NewPattern(s, specqp.Const(typeID), specqp.Const(singer)),
		To:     specqp.NewPattern(s, specqp.Const(typeID), specqp.Const(vocalist)),
		Weight: 0.8,
	})

	eng := specqp.NewEngine(st, rules)

	// A deliberately tight admission policy — 1 executing request, 1 queued,
	// and a 10-request-per-client token bucket that refills (practically)
	// never — so the burst below visibly sheds. Production defaults scale
	// with GOMAXPROCS and leave rate limiting off.
	srv := server.New(server.Config{
		Backend:        eng,
		MaxInflight:    1,
		MaxQueue:       1,
		RatePerClient:  0.0001,
		BurstPerClient: 10,
	})
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %d triples on %s\n\n", eng.Graph().Len(), ln.Addr())

	// 1. A top-k query with a relaxation: prince matches singer+guitarist
	// only because singer relaxes to vocalist.
	query := `SELECT ?s WHERE { ?s 'rdf:type' <singer> . ?s 'rdf:type' <guitarist> }`
	body := fmt.Sprintf(`{"query":%q,"k":3,"mode":"spec-qp","deadline_ms":2000}`, query)
	fmt.Printf("POST /query  %s\n", body)
	fmt.Printf("         ->  %s\n", post(base+"/query", body))

	// 2. A live insert, immediately visible to the next query.
	fmt.Printf("POST /insert {\"s\":\"bowie\",...}\n")
	fmt.Printf("         ->  %s\n", post(base+"/insert",
		`{"s":"bowie","p":"rdf:type","o":"singer","score":97}`))

	// 3. The same query streamed: "stream":true turns the response into
	// NDJSON, one line per answer flushed the moment the rank join proves it
	// final (the corner bound can no longer be outranked), then a trailer
	// with the metrics a buffered envelope would have carried. A client
	// reads answers as they land instead of waiting for the full drain.
	streamBody := fmt.Sprintf(`{"query":%q,"k":3,"mode":"spec-qp","deadline_ms":2000,"stream":true}`, query)
	fmt.Printf("POST /query  %s\n", streamBody)
	for _, line := range strings.Split(post(base+"/query", streamBody), "\n") {
		fmt.Printf("         ->  %s\n", line)
	}
	fmt.Println()

	// 4. The same query with "explain": true — the response carries a trace
	// object: the planner's decisions (plan-cache hit, shape key, relaxation
	// expansions) and a plan-shaped tree of per-operator counters from the
	// actual execution. Render it the way `specqp -explain` would.
	explainBody := fmt.Sprintf(`{"query":%q,"k":3,"mode":"spec-qp","explain":true}`, query)
	fmt.Printf("POST /query  %s\n", explainBody)
	var explained struct {
		Trace *specqp.QueryTrace `json:"trace"`
	}
	if err := json.Unmarshal([]byte(post(base+"/query", explainBody)), &explained); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(specqp.RenderTrace(explained.Trace), "\n"), "\n") {
		fmt.Printf("         ->  %s\n", line)
	}
	fmt.Println()

	// 5. An overload burst: one client fires 16 concurrent requests, but its
	// token bucket holds 10. Every request is answered — served, or shed with
	// a fast 429 and a Retry-After header — never hung, never errored.
	var wg sync.WaitGroup
	var mu sync.Mutex
	served, shed := 0, 0
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest("POST", base+"/query", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Client-ID", "bursty-client")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			if resp.StatusCode == http.StatusOK {
				served++
			} else if resp.StatusCode == http.StatusTooManyRequests {
				shed++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	fmt.Printf("\nburst of 16 from one client (bucket of 10): %d served, %d shed with 429\n\n", served, shed)

	// 6. Health and metrics — including the time-to-first-answer histogram
	// the streamed query above just populated and the engine-internals block
	// (store occupancy, cache hit ratios) the explain run touched.
	fmt.Printf("GET /healthz ->  %s\n", get(base+"/healthz"))
	fmt.Printf("GET /metrics ->  (excerpt)\n")
	for _, line := range strings.Split(get(base+"/metrics"), "\n") {
		if strings.HasPrefix(line, "specqp_requests_") || strings.HasPrefix(line, "specqp_shed_") ||
			strings.HasPrefix(line, "specqp_streamed_") || strings.HasPrefix(line, "specqp_first_answer_latency_p") ||
			strings.HasPrefix(line, "specqp_engine_live_") || strings.HasPrefix(line, "specqp_engine_list_cache_") {
			fmt.Printf("    %s\n", line)
		}
	}

	// 7. Graceful drain: stop admitting, flush in-flight work, then close.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	hs.Shutdown(ctx)
	fmt.Printf("\ndrained cleanly\n")
}

func post(url, body string) string {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return strings.TrimSpace(string(raw))
}

func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return strings.TrimSpace(string(raw))
}
