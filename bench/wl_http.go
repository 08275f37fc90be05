package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specqp"
	"specqp/internal/server"
	"specqp/internal/wal"
)

type httpKind int

const (
	kindServe httpKind = iota // closed loop, read-only in-memory engine
	kindOpen                  // open loop at openRate, same server
	kindMixed                 // closed loop, durable engine, every 8th request a mutation
)

const (
	// openRate is the fixed arrival rate of twitter_open, about a third of the
	// closed-loop capacity twitter_serve measures on the 2-core reference box:
	// well below saturation, so that a slower box still keeps up and a busy
	// neighbour on the host costs its share and not a growing queue.
	openRate = 60
	// mixedHeldShare of the triples is held out of twitter_mixed's base store
	// and replayed as its inserts.
	mixedHeldShare = 0.10
	queryK         = specqp.DefaultK
)

// request is one slot of an HTTP workload's schedule.
type request struct {
	Kind  byte // 'q' buffered query, 's' streamed query, 'm' mutation
	Query int  // index into the workload queries
	Mut   int  // ordinal in the mutation stream
}

// httpSchedule fills n slots: the queries in whole passes, each a fresh
// permutation of the workload's (as librarySchedule does), every third query
// streamed, and (mixed) every eighth slot a mutation. Whole passes keep the
// share of heavy queries — which is what the tail of the latency sample is
// made of — the same for every seed; only their order is the seed's.
func httpSchedule(seed int64, n, queries int, mixed bool) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	var pass []int
	nq, nm := 0, 0
	for i := range out {
		if mixed && i%8 == 7 {
			out[i] = request{Kind: 'm', Mut: nm}
			nm++
			continue
		}
		if len(pass) == 0 {
			pass = rng.Perm(queries)
		}
		out[i] = request{Kind: 'q', Query: pass[0]}
		pass = pass[1:]
		if nq%3 == 2 {
			out[i].Kind = 's'
		}
		nq++
	}
	return out
}

// httpInstance is twitter_serve / twitter_open / twitter_mixed: the engine
// behind server.New(...).Handler() on a loopback listener, driven by at most
// nproc client connections in this process.
type httpInstance struct {
	kind    httpKind
	seed    int64
	clients int
	corp    *corpus
	eng     *specqp.Engine
	queries []specqp.Query // corp.sparql parsed by eng
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	url     string
	client  *http.Client
	tap     *tap
	bodies  [2][][]byte // [buffered, streamed][query]
	ref     [][]wireAnswer

	// twitter_mixed only.
	dir        string
	base, held []quad
}

func setupHTTP(c *config, kind httpKind) (_ instance, err error) {
	corp, err := generate("twitter", c.scale)
	if err != nil {
		return nil, err
	}
	in := &httpInstance{kind: kind, seed: c.seed, clients: c.procs, corp: corp}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if kind == kindMixed {
		in.base, in.held = split(corp.quads(), mixedHeldShare)
		if in.eng, in.dir, err = openDurable(c, corp, in.base, specqp.Options{SyncPolicy: specqp.SyncAlways}); err != nil {
			return nil, err
		}
	} else {
		in.eng = specqp.NewEngineWith(corp.ds.Store, corp.ds.Rules, specqp.Options{})
	}
	if in.queries, err = parseAll(in.eng, corp.sparql); err != nil {
		return nil, err
	}
	for qi, src := range corp.sparql {
		for s := 0; s < 2; s++ {
			body, err := json.Marshal(map[string]any{
				"query": src, "k": queryK, "mode": "spec-qp", "deadline_ms": 5000, "stream": s == 1,
			})
			if err != nil {
				return nil, err
			}
			in.bodies[s] = append(in.bodies[s], body)
		}
		res, err := in.eng.Query(in.queries[qi], queryK, specqp.ModeSpecQP)
		if err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		in.ref = append(in.ref, decodeAnswers(in.eng, in.queries[qi], res.Answers))
	}

	in.srv = server.New(server.Config{Backend: in.eng})
	in.tap = &tap{next: in.srv.Handler(), seen: map[int32]handled{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.hs = &http.Server{Handler: in.tap, ReadHeaderTimeout: 5 * time.Second}
	in.served = make(chan struct{})
	go func() { defer close(in.served); in.hs.Serve(ln) }()
	in.url = "http://" + ln.Addr().String()
	in.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: in.clients, MaxIdleConnsPerHost: in.clients},
	}
	// Warm pass over HTTP, both delivery shapes: connections established,
	// and the first check that the wire answers are the library's.
	for qi := range in.queries {
		for s := 0; s < 2; s++ {
			rep := in.post("/query", in.bodies[s][qi], 0, 0, s == 1)
			if got, err := rep.query(); err != nil {
				return nil, fmt.Errorf("warm pass over HTTP: query %d: %w", qi, err)
			} else if !sameWire(got.Answers, in.ref[qi]) {
				return nil, fmt.Errorf("warm pass over HTTP: query %d differs from the library's answer", qi)
			}
		}
	}
	return in, nil
}

func (in *httpInstance) corpus() *corpus { return in.corp }

func (in *httpInstance) stopServer() {
	if in.hs != nil {
		in.hs.Close()
		<-in.served
		in.client.CloseIdleConnections()
		in.hs = nil
	}
}

func (in *httpInstance) close() {
	in.stopServer()
	if in.eng != nil {
		in.eng.Close()
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// openDurable builds a durable engine over a fresh flat store of base in a
// new directory under the benchmark's scratch space.
func openDurable(c *config, corp *corpus, base []quad, opts specqp.Options) (*specqp.Engine, string, error) {
	st, err := flatStore(base)
	if err != nil {
		return nil, "", err
	}
	dir, err := os.MkdirTemp(c.tmp, "wal-")
	if err != nil {
		return nil, "", err
	}
	rules := specqp.NewRuleSet()
	eng, err := specqp.OpenDurableWith(dir, st, rules, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", fmt.Errorf("opening durable engine: %w", err)
	}
	if err := corp.rulesFor(rules, eng); err != nil {
		eng.Close()
		os.RemoveAll(dir)
		return nil, "", err
	}
	return eng, dir, nil
}

// reopen recovers the durable engine in dir after a clean close and answers
// one probe query; the time for both is the recovery a caller waits for.
func reopen(dir string, corp *corpus, opts specqp.Options) (*specqp.Engine, time.Duration, error) {
	t0 := time.Now()
	rules := specqp.NewRuleSet()
	eng, err := specqp.OpenDurableWith(dir, nil, rules, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("recovery: %w", err)
	}
	if err := corp.rulesFor(rules, eng); err != nil {
		eng.Close()
		return nil, 0, err
	}
	q, err := eng.ParseSPARQL(corp.sparql[0])
	if err == nil {
		_, err = eng.Query(q, queryK, specqp.ModeSpecQP)
	}
	if err != nil {
		eng.Close()
		return nil, 0, fmt.Errorf("first query after recovery: %w", err)
	}
	return eng, time.Since(t0), nil
}

func parseAll(eng *specqp.Engine, srcs []string) ([]specqp.Query, error) {
	out := make([]specqp.Query, len(srcs))
	for i, src := range srcs {
		q, err := eng.ParseSPARQL(src)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = q
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// The client side.

// reply is one HTTP exchange as the client saw it; parsing waits until the
// clock has stopped.
type reply struct {
	err      error
	status   int
	sent     time.Time
	end      time.Time
	ttfa     time.Duration // streamed: send to first answer line read
	streamed bool
	raw      []byte
}

// post sends one request and reads the whole response. req travels in a
// header so the handler-side span can be joined to the client's.
func (in *httpInstance) post(path string, body []byte, worker int, req int32, stream bool) reply {
	rep := reply{streamed: stream}
	hr, err := http.NewRequest("POST", in.url+path, bytes.NewReader(body))
	if err != nil {
		rep.err = err
		return rep
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Client-ID", "bench-"+strconv.Itoa(worker))
	if req != 0 {
		hr.Header.Set(reqHeader, strconv.Itoa(int(req)))
	}
	rep.sent = time.Now()
	resp, err := in.client.Do(hr)
	if err != nil {
		rep.err, rep.end = err, time.Now()
		return rep
	}
	defer resp.Body.Close()
	rep.status = resp.StatusCode
	if !stream {
		rep.raw, rep.err = io.ReadAll(resp.Body)
		rep.end = time.Now()
		return rep
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if rep.ttfa == 0 && bytes.Contains(line, []byte(`"answer"`)) {
			rep.ttfa = time.Since(rep.sent)
		}
		rep.raw = append(rep.raw, line...)
		if err != nil {
			if err != io.EOF {
				rep.err = err
			}
			break
		}
	}
	rep.end = time.Now()
	return rep
}

// queryBody is the part of a /query response (or of an NDJSON trailer) the
// checks and the span derivation read.
type queryBody struct {
	Answers []wireAnswer `json:"-"`
	Tier    int          `json:"tier"`
	ExecUS  int64        `json:"exec_us"`
	PlanUS  int64        `json:"plan_us"`
	Partial bool         `json:"partial"`
	Error   string       `json:"error"`
}

func (r *reply) parse() (queryBody, error) {
	var qb queryBody
	if r.err != nil {
		return qb, r.err
	}
	if r.status != http.StatusOK {
		return qb, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.raw))
	}
	if !r.streamed {
		var env struct {
			queryBody
			Answers []wireAnswer `json:"answers"`
		}
		if err := json.Unmarshal(r.raw, &env); err != nil {
			return qb, fmt.Errorf("response body: %w", err)
		}
		env.queryBody.Answers = env.Answers
		return env.queryBody, nil
	}
	trailer := false
	for _, line := range bytes.Split(r.raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var l struct {
			Answer  *wireAnswer `json:"answer"`
			Trailer *queryBody  `json:"trailer"`
		}
		if err := json.Unmarshal(line, &l); err != nil {
			return qb, fmt.Errorf("NDJSON line: %w", err)
		}
		switch {
		case l.Answer != nil:
			qb.Answers = append(qb.Answers, *l.Answer)
		case l.Trailer != nil:
			as := qb.Answers
			qb, trailer = *l.Trailer, true
			qb.Answers = as
		}
	}
	if !trailer {
		return qb, fmt.Errorf("NDJSON stream ended without a trailer")
	}
	return qb, nil
}

// query is parse plus the rule that anything short of a full answer at tier 0
// is a failure: shed, expired, partial, degraded or errored.
func (r *reply) query() (queryBody, error) {
	qb, err := r.parse()
	switch {
	case err != nil:
		return qb, err
	case qb.Error != "" || qb.Partial:
		return qb, fmt.Errorf("partial=%v error=%q", qb.Partial, qb.Error)
	case qb.Tier != server.TierNormal:
		return qb, fmt.Errorf("served at degraded tier %d", qb.Tier)
	}
	return qb, nil
}

// exchange is one schedule slot after it ran.
type exchange struct {
	ran  bool
	req  int32
	due  time.Time // open loop: when it should have been sent
	cold bool      // the store version moved since the previous query was sent
	reply
}

// ticket makes mutations land in schedule order although several clients
// send them: mutation n waits for n-1 to be acknowledged. Clients take slots
// in order, so the wait is almost always zero; what it buys is a
// deterministic store for the survivor oracle to be rebuilt against.
type ticket struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
}

func newTicket() *ticket { t := &ticket{}; t.cond = sync.NewCond(&t.mu); return t }

func (t *ticket) wait(n int) {
	t.mu.Lock()
	for t.next != n {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

func (t *ticket) done() {
	t.mu.Lock()
	t.next++
	t.cond.Broadcast()
	t.mu.Unlock()
}

// load is everything the seed decides for one run.
type load struct {
	sched     []request
	interval  time.Duration // open loop: the gap between intended sends; 0 is a closed loop
	muts      []mutation
	mutBodies [][]byte
}

func (in *httpInstance) load(d time.Duration) (*load, error) {
	// Ample for any closed loop; the open loop sends exactly rate × d.
	l, n := &load{}, int(d.Seconds()*2000)+64
	if in.kind == kindOpen {
		n, l.interval = int(d.Seconds()*openRate), time.Second/openRate
	}
	l.sched = httpSchedule(in.seed, n, len(in.queries), in.kind == kindMixed)
	if in.kind == kindMixed {
		l.muts = mutationStream(rand.New(rand.NewSource(in.seed+1)), in.base, in.held, n/8+1)
		for _, m := range l.muts {
			b, err := json.Marshal(map[string]any{"s": m.S, "p": m.P, "o": m.O, "score": m.Score})
			if err != nil {
				return nil, err
			}
			l.mutBodies = append(l.mutBodies, b)
		}
	}
	return l, nil
}

// drive is the timed window: the clients take slots off the shared schedule
// until d has passed (closed loop) or every slot has been sent at its due
// time (open loop).
func (in *httpInstance) drive(d time.Duration, rec *recorder, l *load) (_ []exchange, start time.Time, wall time.Duration) {
	done := make([]exchange, len(l.sched))
	var cursor atomic.Int64
	var version atomic.Uint64
	version.Store(in.eng.Graph().Version())
	turn := newTicket()
	var wg sync.WaitGroup
	start = time.Now()
	for w := 0; w < in.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(l.sched) || (l.interval == 0 && time.Since(start) >= d) {
					return
				}
				slot, ex := l.sched[i], &done[i]
				if slot.Kind == 'm' && slot.Mut >= len(l.muts) {
					return // held-out triples exhausted: the run ends early
				}
				if l.interval > 0 {
					ex.due = start.Add(time.Duration(i) * l.interval)
					time.Sleep(time.Until(ex.due))
				}
				ex.ran, ex.req = true, rec.request()
				if slot.Kind == 'm' {
					turn.wait(slot.Mut)
					ex.reply = in.post(l.muts[slot.Mut].path(), l.mutBodies[slot.Mut], w, ex.req, false)
					turn.done()
					continue
				}
				v := in.eng.Graph().Version()
				ex.cold = version.Swap(v) != v
				s := 0
				if slot.Kind == 's' {
					s = 1
				}
				ex.reply = in.post("/query", in.bodies[s][slot.Query], w, ex.req, s == 1)
			}
		}(w)
	}
	wg.Wait()
	return done, start, time.Since(start)
}

func (in *httpInstance) run(d time.Duration, rec *recorder, tail bool) (*outcome, error) {
	// A segment is two whole passes over the queries: out.ops holds the
	// queries only, in slot order, and the schedule deals them in passes.
	out := &outcome{layer: map[string]float64{}, segment: 2 * len(in.queries)}
	l, err := in.load(d)
	if err != nil {
		return nil, err
	}
	if tail {
		// Scored before the first mutation (on the other two kinds the store
		// never changes): the paper metrics are then exact functions of the
		// dataset, not of how far this run's mutations happened to get.
		if err := quality(in.eng, in.queries, pairsOf(len(in.queries), queryK), specqp.ModeSpecQP, nil, out); err != nil {
			return nil, err
		}
	}
	m := in.srv.Metrics()
	shed := func() int64 {
		return m.ShedRate.Load() + m.ShedQueue.Load() + m.ShedDraining.Load() + m.ShedCanceled.Load()
	}
	latSum := func() float64 { return float64(m.Latency.Count()) * float64(m.Latency.Mean()) }
	lat0n, lat0sum, shed0, degraded0 := m.Latency.Count(), latSum(), shed(), m.Degraded.Load()
	stats0 := in.eng.Stats()
	acc := newQueryAcc(in.eng)

	in.tap.on.Store(rec != nil)
	done, start, wall := in.drive(d, rec, l)
	in.tap.on.Store(false)
	out.wall = wall

	// Everything below is off the clock: checks, then the per-layer sums.
	seen := in.tap.drain()
	var (
		ttfa, mutLat, late       []time.Duration
		handler, gap             time.Duration
		handled, gaps, respBytes int
	)
	for i := range done {
		ex, slot := &done[i], l.sched[i]
		if !ex.ran {
			continue
		}
		out.attempted++
		lat := ex.end.Sub(ex.sent)
		if !ex.due.IsZero() {
			late = append(late, ex.sent.Sub(ex.due))
			lat = ex.end.Sub(ex.due)
		}
		h, traced := seen[ex.req]
		if slot.Kind == 'm' {
			mutLat = append(mutLat, lat)
			if ex.err != nil || ex.status != http.StatusOK {
				out.fail("mutation %d: status %d: %v %s", slot.Mut, ex.status, ex.err, bytes.TrimSpace(ex.raw))
			}
			if traced {
				rec.add("server.mutate", rec.add("client.mutate", 0, ex.req, ex.sent, ex.end), ex.req, h.start, h.end)
			}
			continue
		}
		out.ops = append(out.ops, lat)
		out.ends = append(out.ends, ex.end.Sub(start))
		qb, err := ex.query()
		switch {
		case err != nil:
			out.fail("request %d (query %d): %v", i, slot.Query, err)
			continue
		case in.kind != kindMixed && !sameWire(qb.Answers, in.ref[slot.Query]):
			out.fail("request %d (query %d): HTTP answer differs from the library's", i, slot.Query)
		case len(qb.Answers) > queryK || !scoresDescend(qb.Answers):
			out.fail("request %d (query %d): malformed top-k", i, slot.Query)
		}
		plan, exec := time.Duration(qb.PlanUS)*time.Microsecond, time.Duration(qb.ExecUS)*time.Microsecond
		acc.add(lat, plan, exec, len(qb.Answers), 0)
		if ex.cold {
			acc.coldQueries++
		}
		if ex.streamed && len(qb.Answers) > 0 {
			ttfa = append(ttfa, ex.ttfa)
			gap += ex.end.Sub(ex.sent) - ex.ttfa
			gaps++
		}
		if traced {
			handled++
			handler += h.end.Sub(h.start)
			respBytes += h.bytes
			id := rec.add("server.handler", rec.add("client.request", 0, ex.req, ex.sent, ex.end), ex.req, h.start, h.end)
			rec.derive(id, ex.req, h.start, namedDur{"planner.plan", plan}, namedDur{"exec.run", exec})
		}
	}

	acc.into(out.layer, in.eng)
	out.layer["client.ttfa_p50_ms"] = quantile(sortedMS(ttfa), 0.5)
	out.layer["server.ttfa_gap_us"] = meanDur(gap, gaps) / 1e3
	out.layer["bench.loadgen_late_p99_ms"] = quantile(sortedMS(late), 0.99)
	out.layer["server.shed_frac"] = ratio(float64(shed()-shed0), float64(out.attempted))
	out.layer["server.degraded_frac"] = ratio(float64(m.Degraded.Load()-degraded0), float64(acc.n))
	if handled > 0 {
		// The server clocks a query from admission to the end of the engine
		// call; the handler span around it adds the admission wait and the
		// response write. (server.self_us and bench.http_transport_us are the
		// self times of the spans recorded above.)
		serverUS := ratio(latSum()-lat0sum, float64(m.Latency.Count()-lat0n)) / 1e3
		out.layer["server.queue_wait_us"] = meanDur(handler, handled)/1e3 - serverUS
		out.layer["server.bytes_per_response"] = ratio(float64(respBytes), float64(handled))
		// Kept for the budget reconciliation once the probes have run.
		out.layer[keyClientUS] = meanDur(acc.wall, acc.n) / 1e3
		out.layer[keyPlanUS] = meanDur(acc.plan, acc.n) / 1e3
		out.layer[keyAnswers] = ratio(float64(acc.answers), float64(acc.n))
	}
	if in.kind == kindMixed {
		ms := sortedMS(mutLat)
		out.layer["client.mutation_p50_ms"] = quantile(ms, 0.5)
		out.layer["client.mutation_p99_ms"] = quantile(ms, 0.99)
		out.layer["client.mutation_per_s"] = ratio(float64(len(ms)), out.wall.Seconds())
		applied := l.muts[:len(mutLat)]
		durableLayer(out.layer, stats0, in.eng.Stats(), applied)
		if err := in.checkSurvivors(applied, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkSurvivors holds the mutated engine — live, then closed and recovered
// — to a flat store rebuilt from the triples that should have survived.
func (in *httpInstance) checkSurvivors(applied []mutation, out *outcome) error {
	model := newSurvivors(in.base)
	for _, m := range applied {
		model.apply(m)
	}
	oracle, err := in.corp.flatEngine(model.live())
	if err != nil {
		return err
	}
	sameAsOracle("live engine", in.eng, oracle, in.corp, out)
	// The HTTP front end goes before the engine under it is swapped. Not
	// Server.Drain: that checkpoints, and recovery should find a log tail.
	in.stopServer()
	if err := in.eng.Close(); err != nil {
		return fmt.Errorf("closing durable engine: %w", err)
	}
	reopened, took, err := reopen(in.dir, in.corp, specqp.Options{SyncPolicy: specqp.SyncAlways})
	if err != nil {
		return err
	}
	in.eng = reopened
	out.layer["client.recovery_s"] = took.Seconds()
	sameAsOracle("recovered engine", in.eng, oracle, in.corp, out)
	return nil
}

func scoresDescend(as []wireAnswer) bool {
	for i := 1; i < len(as); i++ {
		if as[i].Score > as[i-1].Score {
			return false
		}
	}
	return true
}

// Scratch keys in outcome.layer: inputs to bench.unattributed_frac, not
// metrics (printing walks the perLayer table, so they never leave).
const (
	keyClientUS = "_client_us"
	keyPlanUS   = "_plan_us"
	keyAnswers  = "_answers_per_query"
)

// durableLayer turns the engine's own WAL, checkpoint and compaction
// counters over a run into the wal/specqp/kg rows.
func durableLayer(layer map[string]float64, a, b specqp.EngineStats, applied []mutation) {
	fsyncs := float64(b.WALFsyncs - a.WALFsyncs)
	cps := float64(b.Checkpoints - a.Checkpoints)
	layer["wal.fsyncs"] = fsyncs
	layer["wal.fsync_us"] = ratio(float64(b.WALFsyncNS-a.WALFsyncNS), fsyncs) / 1e3
	layer["wal.group_commit_size"] = ratio(float64(b.WALCommitRecords-a.WALCommitRecords), float64(b.WALCommits-a.WALCommits))
	layer["specqp.checkpoints"] = cps
	layer["specqp.checkpoint_ms"] = ratio(float64(b.CheckpointNS-a.CheckpointNS), cps) / 1e6
	layer["kg.compactions"] = float64(b.Compactions - a.Compactions)
	// Log bytes are the frames of the records the mutations became (an update
	// logs a tombstone and an insert); checkpoint bytes are approximated by
	// the newest snapshot's size times the checkpoints taken.
	var logBytes int
	for _, m := range applied {
		r := wal.Record{Kind: wal.KindInsert, S: m.S, P: m.P, O: m.O, Score: m.Score}
		switch m.Op {
		case 'd':
			r.Kind = wal.KindTombstone
		case 'u':
			logBytes += len(wal.FrameRecord(nil, wal.Record{Kind: wal.KindTombstone, S: m.S, P: m.P, O: m.O}))
		}
		logBytes += len(wal.FrameRecord(nil, r))
	}
	layer["wal.bytes_per_mutation"] = ratio(float64(logBytes)+cps*float64(b.LastCheckpointBytes), float64(len(applied)))
}

// ---------------------------------------------------------------------------
// The server side of a traced run.

const reqHeader = "X-Bench-Req"

// tap wraps the server's handler. Off (the end-to-end run) it forwards; on,
// it clocks the handler and counts response bytes per request identifier.
type tap struct {
	next http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	seen map[int32]handled
}

type handled struct {
	start, end time.Time
	bytes      int
}

// drain hands over what the tap saw and starts it afresh.
func (t *tap) drain() map[int32]handled {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := t.seen
	t.seen = map[int32]handled{}
	return seen
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get(reqHeader))
	if !t.on.Load() || err != nil {
		t.next.ServeHTTP(w, r)
		return
	}
	cw := &countingResponse{ResponseWriter: w}
	h := handled{start: time.Now()}
	t.next.ServeHTTP(cw, r)
	h.end, h.bytes = time.Now(), cw.n
	t.mu.Lock()
	t.seen[int32(id)] = h
	t.mu.Unlock()
}

type countingResponse struct {
	http.ResponseWriter
	n int
}

func (c *countingResponse) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// Flush keeps NDJSON streaming through the wrapper.
func (c *countingResponse) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
