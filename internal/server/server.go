// Package server is the HTTP/JSON front end over the specqp engine, and its
// headline is the failure discipline, not the routes:
//
//   - Admission control: per-client token buckets and a bounded accept queue
//     shed load with a fast 429 + Retry-After *before* any engine work — the
//     server never queues unboundedly, and a shed request costs a few atomic
//     operations, not a goroutine parked on the executor.
//   - Deadline propagation: the request's deadline (X-Deadline-Ms header or
//     deadline_ms body field, clamped to a configured maximum) rides the
//     request context into Engine.QueryStream, where the operators poll it
//     at a bounded stride — a cancelled or expired client never holds an
//     executor worker.
//   - Graceful degradation: sustained queue-shedding escalates a governor
//     through tiers — serve exact-only answers (the paper's own relaxation
//     semantics make the unrelaxed top-k a principled cheaper answer), then
//     shrink k — and a wedged write-ahead log flips the server read-only:
//     mutations fail fast with the sticky typed error while queries keep
//     serving.
//   - Graceful drain: Drain stops admitting, waits for in-flight requests,
//     and persists a final Sync + Checkpoint, so SIGTERM loses nothing.
//
// Endpoints: POST /query (JSON object), POST /batch (JSON lines, one query
// per line, shared k/mode), POST /insert /delete /update, GET /healthz,
// GET /metrics.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specqp"
	"specqp/internal/kg"
	"specqp/internal/metrics"
)

// Backend is the engine surface the server drives. *specqp.Engine implements
// it directly; the fault-injection harness wraps it to count and delay calls,
// which is how "no shed request ever touches the engine" is asserted rather
// than assumed.
type Backend interface {
	ParseSPARQL(src string) (specqp.Query, error)
	// QueryStream and QueryBatchStream with a nil emitter are the buffered
	// query and batch.
	QueryStream(ctx context.Context, q specqp.Query, k int, mode specqp.Mode, emit specqp.AnswerEmitter) (specqp.Result, error)
	QueryBatchStream(ctx context.Context, queries []specqp.Query, k int, mode specqp.Mode, emit func(int, specqp.Answer) bool) ([]specqp.BatchResult, error)
	DecodeAnswer(q specqp.Query, a specqp.Answer) map[string]string
	InsertSPO(s, p, o string, score float64) error
	DeleteSPO(s, p, o string) (int, error)
	UpdateSPO(s, p, o string, score float64) error
	Sync() error
	Checkpoint() error
	Wedged() bool
}

var _ Backend = (*specqp.Engine)(nil)

// A read replica fed by WAL log shipping serves the same surface: queries
// from the last applied state, mutations refused with the wedged-log error,
// which the mutation handlers already render as 503 read-only.
var _ Backend = (*specqp.Replica)(nil)

// TracedBackend is the optional tracing extension of Backend: engines that
// implement it serve `"explain": true` requests and feed the slow-query log
// real execution traces. Backends without it (fault-injection wrappers that
// only implement Backend) still serve everything else — explain requests
// just fall back to an untraced run.
type TracedBackend interface {
	QueryTraced(ctx context.Context, q specqp.Query, k int, mode specqp.Mode) (specqp.Result, error)
}

// StatsBackend is the optional engine-internals extension: /healthz reports
// the store occupancy and WAL position, /metrics the compaction, cache,
// fsync and checkpoint gauges.
type StatsBackend interface {
	Stats() specqp.EngineStats
}

var (
	_ TracedBackend = (*specqp.Engine)(nil)
	_ TracedBackend = (*specqp.Replica)(nil)
	_ StatsBackend  = (*specqp.Engine)(nil)
	_ StatsBackend  = (*specqp.Replica)(nil)
)

// Config tunes the server's admission and degradation behavior. The zero
// value of every field selects a production-safe default.
type Config struct {
	// Backend is the engine to serve (required).
	Backend Backend

	// MaxInflight bounds concurrently executing requests (queries and
	// mutations alike). Default: 2 × GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot; arrivals
	// beyond it are shed with 429. Default: 4 × MaxInflight.
	MaxQueue int

	// RatePerClient is the per-client token-bucket refill rate in requests
	// per second; 0 disables per-client rate limiting.
	RatePerClient float64
	// BurstPerClient is the bucket capacity (default: max(8, RatePerClient)).
	BurstPerClient int
	// MaxClients bounds the bucket table (default 16384).
	MaxClients int

	// DefaultDeadline applies when a request carries no deadline (default
	// 2s); MaxDeadline clamps requested deadlines (default 30s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MaxK clamps the requested k (default 1000). DegradedK is the k cap at
	// TierShrunkK (default 3).
	MaxK      int
	DegradedK int

	// DegradeThreshold is the governor's leaky-bucket tier-1 threshold in
	// outstanding queue-shed events; DegradeLeakPerSec is the leak rate. See
	// the governor for semantics.
	DegradeThreshold  float64
	DegradeLeakPerSec float64
	// DegradeLatency feeds accepted-query completion latency into the same
	// bucket: every query slower than this threshold adds one unit of
	// pressure, like a shed. Zero (the default) disables the latency feed.
	DegradeLatency time.Duration

	// SlowQueryThreshold enables the sampled slow-query log: queries slower
	// than it are logged as structured JSON lines (with their execution
	// trace) to SlowQueryLog, rate-limited to one line per SlowQueryInterval
	// (default 1s); crossings in between are counted, not dropped silently.
	// Zero (the default) disables the log.
	SlowQueryThreshold time.Duration
	SlowQueryInterval  time.Duration
	// SlowQueryLog receives the slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer

	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxBatchQueries bounds queries per /batch request (default 1024).
	MaxBatchQueries int

	// Metrics receives the server counters; allocated internally when nil.
	Metrics *metrics.ServerMetrics

	// Replication marks this server as fronting a read replica (a follower of
	// WAL log shipping): /healthz reports the replication position and lag,
	// /metrics includes the replication gauges and counters. nil on primaries.
	Replication *metrics.ReplicationMetrics

	// now is the clock seam for the admission and degradation machinery
	// (tests inject a fake clock); nil means time.Now.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.BurstPerClient <= 0 {
		c.BurstPerClient = 8
		if int(c.RatePerClient) > 8 {
			c.BurstPerClient = int(c.RatePerClient)
		}
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 16384
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.DegradedK <= 0 {
		c.DegradedK = 3
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBatchQueries <= 0 {
		c.MaxBatchQueries = 1024
	}
	if c.Metrics == nil {
		c.Metrics = &metrics.ServerMetrics{}
	}
	if c.SlowQueryThreshold > 0 && c.SlowQueryLog == nil {
		c.SlowQueryLog = os.Stderr
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the resilient query service. Create with New, mount Handler on
// an http.Server, and call Drain before process exit.
type Server struct {
	cfg     Config
	eng     Backend
	traced  TracedBackend // nil when the backend cannot trace
	stats   StatsBackend  // nil when the backend exposes no engine stats
	m       *metrics.ServerMetrics
	slow    *slowLog // nil when disabled
	slots   chan struct{}
	waiting atomic.Int64
	buckets *bucketTable
	gov     *governor

	// draining + reqMu + reqWG implement the drain barrier: beginRequest
	// pairs the flag check with the WaitGroup add under reqMu, so once Drain
	// flips the flag no new request can register and reqWG.Wait is safe.
	draining atomic.Bool
	reqMu    sync.Mutex
	reqWG    sync.WaitGroup
}

// New builds a Server over cfg.Backend.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Backend == nil {
		panic("server: Config.Backend is required")
	}
	s := &Server{
		cfg:     cfg,
		eng:     cfg.Backend,
		m:       cfg.Metrics,
		slow:    newSlowLog(cfg.SlowQueryLog, cfg.SlowQueryThreshold, cfg.SlowQueryInterval, cfg.now),
		slots:   make(chan struct{}, cfg.MaxInflight),
		buckets: newBucketTable(cfg.RatePerClient, cfg.BurstPerClient, cfg.MaxClients, cfg.now),
		gov:     newGovernor(cfg.DegradeThreshold, cfg.DegradeLeakPerSec, cfg.DegradeLatency, cfg.now),
	}
	s.traced, _ = cfg.Backend.(TracedBackend)
	s.stats, _ = cfg.Backend.(StatsBackend)
	return s
}

// SlowQueriesLogged reports how many slow-query lines have been written
// (observability and the overload smoke test).
func (s *Server) SlowQueriesLogged() int64 { return s.slow.Logged() }

// Metrics returns the server's counter set.
func (s *Server) Metrics() *metrics.ServerMetrics { return s.m }

// Tier returns the current degradation tier (observability and tests).
func (s *Server) Tier() int { return s.gov.Tier() }

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("POST /insert", func(w http.ResponseWriter, r *http.Request) { s.handleMutate(w, r, "insert") })
	mux.HandleFunc("POST /delete", func(w http.ResponseWriter, r *http.Request) { s.handleMutate(w, r, "delete") })
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) { s.handleMutate(w, r, "update") })
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// errorBody writes a JSON error with the given status.
func errorBody(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// shed writes the fast 429 with a Retry-After hint.
func shed(w http.ResponseWriter, retryAfter time.Duration, reason string) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	errorBody(w, http.StatusTooManyRequests, "overloaded: %s", reason)
}

// beginRequest registers an in-flight request against the drain barrier.
func (s *Server) beginRequest() bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.reqWG.Add(1)
	return true
}

// clientID resolves the admission identity of a request: the X-Client-ID
// header when present (multi-tenant deployments set it at the edge),
// otherwise the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admit runs the full admission pipeline for a request costing n tokens:
// drain check, per-client token bucket, bounded accept queue. On success the
// caller holds an execution slot and MUST call the returned release. The
// request has touched no engine state before admit returns.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, n int) (release func(), ok bool) {
	if !s.beginRequest() {
		s.m.ShedDraining.Add(1)
		errorBody(w, http.StatusServiceUnavailable, "draining")
		return nil, false
	}
	done := func() { s.reqWG.Done() }
	s.m.Requests.Add(1)

	if ok, retry := s.buckets.take(clientID(r), n); !ok {
		s.m.ShedRate.Add(1)
		shed(w, retry, "client rate limit")
		done()
		return nil, false
	}

	select {
	case s.slots <- struct{}{}:
	default:
		// No free slot: join the bounded accept queue or shed. The counter
		// add is the reservation; crossing MaxQueue means the queue was full.
		if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
			s.waiting.Add(-1)
			s.gov.noteShed()
			s.m.ShedQueue.Add(1)
			shed(w, time.Second, "accept queue full")
			done()
			return nil, false
		}
		select {
		case s.slots <- struct{}{}:
			s.waiting.Add(-1)
		case <-r.Context().Done():
			// The client gave up while queued; it holds no slot and the
			// engine never saw it. Counted separately from the sheds the
			// server initiated — queue abandonment is a client-side signal
			// (deadlines shorter than queue wait) that would otherwise be
			// invisible in the admission accounting.
			s.waiting.Add(-1)
			s.m.ShedCanceled.Add(1)
			errorBody(w, http.StatusServiceUnavailable, "canceled while queued")
			done()
			return nil, false
		}
	}
	s.m.Accepted.Add(1)
	return func() {
		<-s.slots
		done()
	}, true
}

// deadlineFor resolves a request's execution deadline: the X-Deadline-Ms
// header, then the body's deadline_ms, then the default — clamped to
// MaxDeadline. The derived context is also canceled when the client
// disconnects (it chains from the request context).
func (s *Server) deadlineFor(r *http.Request, bodyMS int64) time.Duration {
	ms := bodyMS
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		if v, err := strconv.ParseInt(h, 10, 64); err == nil && v > 0 {
			ms = v
		}
	}
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// degrade applies the current tier to the requested mode and k, returning
// the effective values and the tier served.
func (s *Server) degrade(mode specqp.Mode, k int) (specqp.Mode, int, int) {
	tier := s.gov.Tier()
	if tier >= TierExact {
		mode = specqp.ModeExact
	}
	if tier >= TierShrunkK && k > s.cfg.DegradedK {
		k = s.cfg.DegradedK
	}
	if tier > TierNormal {
		s.m.Degraded.Add(1)
	}
	return mode, k, tier
}

// queryRequest is the /query body and the per-line /batch shape.
type queryRequest struct {
	Query      string `json:"query"`
	K          int    `json:"k,omitempty"`
	Mode       string `json:"mode,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	// Stream selects incremental NDJSON delivery: one line per answer as the
	// rank join proves it final, then a trailer line. Equivalent to sending
	// Accept: application/x-ndjson. On /batch the first line's value governs
	// the whole response, like k/mode/deadline.
	Stream bool `json:"stream,omitempty"`
	// Explain requests the execution trace: the response carries a "trace"
	// object with the planner's decisions and the plan-shaped per-operator
	// counter tree. Explain forces the buffered response shape — a trace
	// describes a completed execution, so it cannot ride NDJSON increments —
	// and is ignored on /batch (trace one query at a time).
	Explain bool `json:"explain,omitempty"`
}

// answerJSON is one decoded answer.
type answerJSON struct {
	Binding map[string]string `json:"binding"`
	Score   float64           `json:"score"`
	Relaxed uint32            `json:"relaxed,omitempty"`
}

// queryResponse is the /query body and the per-line /batch response shape.
type queryResponse struct {
	Answers []answerJSON       `json:"answers"`
	K       int                `json:"k"`
	Mode    string             `json:"mode"`
	Tier    int                `json:"tier"`
	ExecUS  int64              `json:"exec_us"`
	PlanUS  int64              `json:"plan_us,omitempty"`
	Partial bool               `json:"partial,omitempty"`
	Error   string             `json:"error,omitempty"`
	Trace   *specqp.QueryTrace `json:"trace,omitempty"`
}

// resolve parses the mode and clamps k for one request.
func (s *Server) resolve(req queryRequest) (specqp.Mode, int, error) {
	mode := specqp.ModeSpecQP
	if req.Mode != "" {
		m, err := specqp.ParseMode(req.Mode)
		if err != nil {
			return 0, 0, err
		}
		mode = m
	}
	k := req.K
	if k <= 0 {
		k = specqp.DefaultK
	}
	if k > s.cfg.MaxK {
		k = s.cfg.MaxK
	}
	return mode, k, nil
}

// buildResponse converts one engine result into the wire shape.
func (s *Server) buildResponse(q specqp.Query, res specqp.Result, err error, k int, mode specqp.Mode, tier int) queryResponse {
	out := queryResponse{
		Answers: make([]answerJSON, 0, len(res.Answers)),
		K:       k,
		Mode:    mode.String(),
		Tier:    tier,
		ExecUS:  res.ExecTime.Microseconds(),
		PlanUS:  res.PlanTime.Microseconds(),
	}
	for _, a := range res.Answers {
		out.Answers = append(out.Answers, answerJSON{
			Binding: s.eng.DecodeAnswer(q, a),
			Score:   a.Score,
			Relaxed: a.Relaxed,
		})
	}
	if err != nil {
		out.Error = err.Error()
		out.Partial = errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	}
	return out
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r, 1)
	if !ok {
		return
	}
	defer release()
	start := s.cfg.now()

	var req queryRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		errorBody(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	mode, k, err := s.resolve(req)
	if err != nil {
		errorBody(w, http.StatusBadRequest, "%v", err)
		return
	}
	q, err := s.eng.ParseSPARQL(req.Query)
	if err != nil {
		errorBody(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	mode, k, tier := s.degrade(mode, k)

	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(r, req.DeadlineMS))
	defer cancel()

	s.m.EngineQueries.Add(1)
	// Tracing decisions happen before execution: an explicit explain request,
	// or a slow-query sampling token — the logged trace must be the real run,
	// never a re-execution. Explain forces the buffered shape (see the field).
	armed := s.slow.arm()
	if wantsStream(r, req) && !req.Explain {
		res, qerr, n := s.streamQuery(ctx, w, q, k, mode, tier, start)
		elapsed := s.cfg.now().Sub(start)
		s.gov.noteLatency(elapsed)
		if armed {
			// Streamed runs are untraced (the trace cannot ride increments);
			// a slow one still logs, just without the operator tree.
			s.slow.observe(elapsed, true, s.slowEntry(req, res, qerr, n, k, mode, tier))
		}
		return
	}
	var res specqp.Result
	var qerr error
	if (req.Explain || armed) && s.traced != nil {
		res, qerr = s.traced.QueryTraced(ctx, q, k, mode)
	} else {
		res, qerr = s.eng.QueryStream(ctx, q, k, mode, nil)
	}
	elapsed := s.cfg.now().Sub(start)
	s.m.Latency.Observe(elapsed)
	s.gov.noteLatency(elapsed)
	s.slow.observe(elapsed, armed, s.slowEntry(req, res, qerr, len(res.Answers), k, mode, tier))

	status := http.StatusOK
	switch {
	case qerr == nil:
	case errors.Is(qerr, context.DeadlineExceeded):
		s.m.Expired.Add(1)
		status = http.StatusGatewayTimeout
	case errors.Is(qerr, context.Canceled):
		// The client is gone; the write below is best-effort.
		status = http.StatusServiceUnavailable
	default:
		s.m.QueryErrors.Add(1)
		status = http.StatusInternalServerError
	}
	out := s.buildResponse(q, res, qerr, k, mode, tier)
	if req.Explain {
		// A non-nil trace only exists when the backend traces; when it
		// cannot (a bare Backend wrapper) the field just stays absent.
		out.Trace = res.Trace
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(out)
}

// slowEntry assembles the slow-query log line for one finished query.
func (s *Server) slowEntry(req queryRequest, res specqp.Result, qerr error, answers, k int, mode specqp.Mode, tier int) slowEntry {
	e := slowEntry{
		Query:   req.Query,
		K:       k,
		Mode:    mode.String(),
		Tier:    tier,
		Answers: answers,
		Trace:   res.Trace,
	}
	if qerr != nil {
		e.Error = qerr.Error()
	}
	return e
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	// Parse the lines first, before admission? No: admission first — a shed
	// batch must cost no more than a shed query. The body read happens under
	// the slot, bounded by MaxBodyBytes and the http.Server read timeouts.
	var reqs []queryRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	peeked := false
	// The token-bucket cost of a batch is its line count, so one client
	// cannot smuggle MaxBatchQueries queries for the price of one request —
	// but counting lines requires reading the body. Read it, then admit with
	// the true cost; nothing here touches the engine.
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req queryRequest
		if err := json.Unmarshal(line, &req); err != nil {
			errorBody(w, http.StatusBadRequest, "line %d: %v", len(reqs)+1, err)
			return
		}
		reqs = append(reqs, req)
		if len(reqs) > s.cfg.MaxBatchQueries {
			errorBody(w, http.StatusBadRequest, "batch exceeds %d queries", s.cfg.MaxBatchQueries)
			return
		}
		peeked = true
	}
	if err := sc.Err(); err != nil {
		errorBody(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if !peeked {
		errorBody(w, http.StatusBadRequest, "empty batch")
		return
	}

	release, ok := s.admit(w, r, len(reqs))
	if !ok {
		return
	}
	defer release()
	start := s.cfg.now()

	// The batch shares one k/mode/deadline (Engine.QueryBatch's contract):
	// taken from the first line, clamped and degraded once.
	mode, k, err := s.resolve(reqs[0])
	if err != nil {
		errorBody(w, http.StatusBadRequest, "%v", err)
		return
	}
	mode, k, tier := s.degrade(mode, k)

	queries := make([]specqp.Query, len(reqs))
	parseErrs := make([]error, len(reqs))
	valid := make([]specqp.Query, 0, len(reqs))
	for i, req := range reqs {
		q, perr := s.eng.ParseSPARQL(req.Query)
		if perr != nil {
			parseErrs[i] = perr
			continue
		}
		queries[i] = q
		valid = append(valid, q)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(r, reqs[0].DeadlineMS))
	defer cancel()

	s.m.EngineQueries.Add(int64(len(valid)))
	if wantsStream(r, reqs[0]) {
		s.streamBatch(ctx, w, reqs, queries, parseErrs, valid, k, mode, tier, start)
		return
	}
	results, berr := s.eng.QueryBatchStream(ctx, valid, k, mode, nil)
	elapsed := s.cfg.now().Sub(start)
	s.m.Latency.Observe(elapsed)
	s.gov.noteLatency(elapsed)
	if berr != nil {
		errorBody(w, http.StatusInternalServerError, "batch: %v", berr)
		return
	}

	// Results align positionally with the valid (parsed) queries; lines that
	// failed to parse report their error in place. Every line write is
	// error-checked and flushed: a mid-response write failure stops the body
	// at the last complete line instead of silently truncating under the
	// already-committed 200, and no encode work is spent on a dead pipe.
	w.Header().Set("Content-Type", "application/x-ndjson")
	lw := newLineWriter(w)
	ri := 0
	for i := range reqs {
		var line queryResponse
		switch {
		case parseErrs[i] != nil:
			line = queryResponse{K: k, Mode: mode.String(), Tier: tier, Error: "parse: " + parseErrs[i].Error()}
		default:
			br := results[ri]
			ri++
			line = s.buildResponse(queries[i], br.Result, br.Err, k, mode, tier)
			if br.Err != nil && errors.Is(br.Err, context.DeadlineExceeded) {
				s.m.Expired.Add(1)
			}
		}
		if !lw.writeLine(line) {
			return
		}
	}
}

// mutateRequest is the /insert, /delete and /update body.
type mutateRequest struct {
	S     string  `json:"s"`
	P     string  `json:"p"`
	O     string  `json:"o"`
	Score float64 `json:"score,omitempty"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request, op string) {
	// Read-only fast path: a wedged log fails every mutation, so refuse
	// before spending an execution slot. Queries never take this path.
	if s.eng.Wedged() {
		s.m.MutationErrors.Add(1)
		if s.cfg.Replication != nil {
			errorBody(w, http.StatusServiceUnavailable, "read-only: replica; write to the primary")
		} else {
			errorBody(w, http.StatusServiceUnavailable, "read-only: %v", specqp.ErrWedged)
		}
		return
	}
	release, ok := s.admit(w, r, 1)
	if !ok {
		return
	}
	defer release()

	var req mutateRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		errorBody(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.S == "" || req.P == "" || req.O == "" {
		errorBody(w, http.StatusBadRequest, "s, p and o are required")
		return
	}

	s.m.Mutations.Add(1)
	var removed int
	var err error
	switch op {
	case "insert":
		err = s.eng.InsertSPO(req.S, req.P, req.O, req.Score)
	case "delete":
		removed, err = s.eng.DeleteSPO(req.S, req.P, req.O)
	case "update":
		err = s.eng.UpdateSPO(req.S, req.P, req.O, req.Score)
	}
	if errors.Is(err, kg.ErrInvalidScore) {
		errorBody(w, http.StatusBadRequest, "%s: %v", op, err)
		return
	}
	if err != nil {
		s.m.MutationErrors.Add(1)
		if errors.Is(err, specqp.ErrWedged) {
			errorBody(w, http.StatusServiceUnavailable, "read-only: %v", err)
			return
		}
		errorBody(w, http.StatusInternalServerError, "%s: %v", op, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"ok": true, "removed": removed})
}

// healthz is the /healthz response shape. The replica_* fields appear only on
// followers (Config.Replication set): a replica is Wedged by construction, so
// its steady status is "read-only", and replica_lag_seq is how far its applied
// WAL position trails the newest one the primary reported.
type healthz struct {
	Status            string  `json:"status"` // ok | degraded | read-only | draining
	Tier              int     `json:"tier"`
	Wedged            bool    `json:"wedged"`
	Inflight          int     `json:"inflight"`
	Waiting           int     `json:"waiting"`
	Pressure          float64 `json:"pressure"`
	Replica           bool    `json:"replica,omitempty"`
	ReplicaAppliedSeq *uint64 `json:"replica_applied_seq,omitempty"`
	ReplicaPrimarySeq *uint64 `json:"replica_primary_seq,omitempty"`
	ReplicaLagSeq     *uint64 `json:"replica_lag_seq,omitempty"`
	ReplicaConnected  *bool   `json:"replica_connected,omitempty"`
	// Engine is the engine-internals snapshot (store occupancy, WAL
	// position, pinned snapshots); absent when the backend exposes none.
	Engine *specqp.EngineStats `json:"engine,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthz{
		Tier:     s.gov.Tier(),
		Wedged:   s.eng.Wedged(),
		Inflight: len(s.slots),
		Waiting:  int(s.waiting.Load()),
		Pressure: s.gov.Pressure(),
	}
	if rm := s.cfg.Replication; rm != nil {
		applied, primary, lag, connected := rm.AppliedSeq(), rm.PrimarySeq(), rm.Lag(), rm.Connected()
		h.Replica = true
		h.ReplicaAppliedSeq = &applied
		h.ReplicaPrimarySeq = &primary
		h.ReplicaLagSeq = &lag
		h.ReplicaConnected = &connected
	}
	if s.stats != nil {
		es := s.stats.Stats()
		h.Engine = &es
	}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	case h.Wedged:
		h.Status = "read-only"
	case h.Tier > TierNormal:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.WriteText(w)
	fmt.Fprintf(w, "specqp_inflight %d\n", len(s.slots))
	fmt.Fprintf(w, "specqp_waiting %d\n", s.waiting.Load())
	fmt.Fprintf(w, "specqp_degrade_tier %d\n", s.gov.Tier())
	fmt.Fprintf(w, "specqp_pressure %g\n", s.gov.Pressure())
	wedged := 0
	if s.eng.Wedged() {
		wedged = 1
	}
	fmt.Fprintf(w, "specqp_wedged %d\n", wedged)
	fmt.Fprintf(w, "specqp_slow_queries_logged_total %d\n", s.slow.Logged())
	if rm := s.cfg.Replication; rm != nil {
		rm.WriteText(w)
	}
	if s.stats != nil {
		writeEngineText(w, s.stats.Stats())
	}
}

// writeEngineText renders the engine-internals gauges and counters in
// Prometheus text exposition format. Store/cache lines always appear; the
// WAL family appears only on durable engines (so a non-durable server's
// exposition carries no dead zero series).
func writeEngineText(w io.Writer, es specqp.EngineStats) {
	fmt.Fprintf(w, "specqp_engine_live_triples %d\n", es.LiveTriples)
	fmt.Fprintf(w, "specqp_engine_head_len %d\n", es.HeadLen)
	fmt.Fprintf(w, "specqp_engine_l1_len %d\n", es.L1Len)
	fmt.Fprintf(w, "specqp_engine_tombstones %d\n", es.Tombstones)
	fmt.Fprintf(w, "specqp_engine_ops_total %d\n", es.Ops)
	fmt.Fprintf(w, "specqp_engine_compactions_total{tier=\"full\"} %d\n", es.CompactionsFull)
	fmt.Fprintf(w, "specqp_engine_compactions_total{tier=\"l1\"} %d\n", es.CompactionsTiered)
	fmt.Fprintf(w, "specqp_engine_compaction_us_total{tier=\"full\"} %d\n", es.CompactionFullNS/1e3)
	fmt.Fprintf(w, "specqp_engine_compaction_us_total{tier=\"l1\"} %d\n", es.CompactionTieredNS/1e3)
	fmt.Fprintf(w, "specqp_engine_pinned_snapshots_total %d\n", es.PinnedSnapshots)
	fmt.Fprintf(w, "specqp_engine_list_cache_hits_total %d\n", es.ListCacheHits)
	fmt.Fprintf(w, "specqp_engine_list_cache_misses_total %d\n", es.ListCacheMisses)
	if !es.Durable {
		return
	}
	fmt.Fprintf(w, "specqp_engine_wal_last_seq %d\n", es.WALLastSeq)
	fmt.Fprintf(w, "specqp_engine_wal_size_bytes %d\n", es.WALSize)
	fmt.Fprintf(w, "specqp_engine_wal_segments %d\n", es.WALSegments)
	fmt.Fprintf(w, "specqp_engine_wal_commits_total %d\n", es.WALCommits)
	fmt.Fprintf(w, "specqp_engine_wal_commit_records_total %d\n", es.WALCommitRecords)
	fmt.Fprintf(w, "specqp_engine_wal_fsyncs_total %d\n", es.WALFsyncs)
	fmt.Fprintf(w, "specqp_engine_wal_fsync_us_total %d\n", es.WALFsyncNS/1e3)
	fmt.Fprintf(w, "specqp_engine_wal_last_fsync_us %d\n", es.WALLastFsyncNS/1e3)
	fmt.Fprintf(w, "specqp_engine_checkpoints_total %d\n", es.Checkpoints)
	fmt.Fprintf(w, "specqp_engine_checkpoint_us_total %d\n", es.CheckpointNS/1e3)
	fmt.Fprintf(w, "specqp_engine_last_checkpoint_bytes %d\n", es.LastCheckpointBytes)
}

// Drain performs the graceful-shutdown sequence: stop admitting (new
// requests get a fast 503), wait for every in-flight request to finish (or
// ctx to expire), then persist a final Sync + Checkpoint so the WAL tail is
// durable and truncated before the process exits. Safe to call once;
// subsequent calls wait again but skip the flush if the first call ran it.
func (s *Server) Drain(ctx context.Context) error {
	s.reqMu.Lock()
	first := !s.draining.Swap(true)
	s.reqMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
	if !first {
		return nil
	}
	if err := s.eng.Sync(); err != nil && !errors.Is(err, specqp.ErrWedged) {
		return fmt.Errorf("server: drain sync: %w", err)
	}
	if err := s.eng.Checkpoint(); err != nil && !errors.Is(err, specqp.ErrWedged) {
		return fmt.Errorf("server: drain checkpoint: %w", err)
	}
	return nil
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }
