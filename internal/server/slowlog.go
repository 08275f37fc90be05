// Sampled always-on slow-query logging: every query that crosses the
// configured threshold is accounted for, and a rate-limited subset is written
// as structured JSON lines carrying the full execution trace. The sampling
// decision is taken *before* execution — a token must be available for the
// run to be traced — so the logged trace is the real one, not a re-execution,
// and the untraced hot path keeps its zero-allocation guarantee: when no
// token is available (or the log is disabled) the query runs exactly as
// before. Crossings that find no token are counted and reported in the next
// logged line's `suppressed` field, so bursts of slowness are never silently
// invisible — they are visible as a count instead of as log volume.
package server

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"specqp"
)

// slowLog is the sampler + writer. Nil means disabled; every method is
// nil-receiver safe so call sites need no guards.
type slowLog struct {
	w         io.Writer
	threshold time.Duration
	every     time.Duration
	now       func() time.Time

	mu         sync.Mutex
	next       time.Time // earliest instant the next token is available
	armed      bool      // a token is reserved for the query in flight
	suppressed int64     // threshold crossings dropped since the last line
	logged     int64
}

func newSlowLog(w io.Writer, threshold, every time.Duration, now func() time.Time) *slowLog {
	if w == nil || threshold <= 0 {
		return nil
	}
	if every <= 0 {
		every = time.Second
	}
	return &slowLog{w: w, threshold: threshold, every: every, now: now}
}

// arm reports whether the caller should run its query traced: true when the
// log is enabled and a sampling token is available. At most one query holds
// the reservation at a time — concurrent arms while a traced query is in
// flight return false and run untraced, which keeps the worst-case tracing
// overhead at one query per sampling interval regardless of concurrency.
func (sl *slowLog) arm() bool {
	if sl == nil {
		return false
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.armed || sl.now().Before(sl.next) {
		return false
	}
	sl.armed = true
	return true
}

// disarm releases an arm() reservation without consuming the token — the
// query came in under the threshold, so nothing is logged and the next slow
// query can still be sampled immediately.
func (sl *slowLog) disarm() {
	if sl == nil {
		return
	}
	sl.mu.Lock()
	sl.armed = false
	sl.mu.Unlock()
}

// slowEntry is one JSON line of the slow-query log.
type slowEntry struct {
	TS        string `json:"ts"`
	ElapsedUS int64  `json:"elapsed_us"`
	Query     string `json:"query"`
	K         int    `json:"k"`
	Mode      string `json:"mode"`
	Tier      int    `json:"tier"`
	Answers   int    `json:"answers"`
	Error     string `json:"error,omitempty"`
	// Suppressed counts threshold crossings since the previous line that were
	// rate-limited away instead of logged.
	Suppressed int64              `json:"suppressed,omitempty"`
	Trace      *specqp.QueryTrace `json:"trace,omitempty"`
}

// observe accounts one finished query: below the threshold it releases any
// reservation; above it, an armed caller consumes its token and writes the
// line (with the trace its traced run produced) while an unarmed one bumps
// the suppressed count.
func (sl *slowLog) observe(elapsed time.Duration, armed bool, e slowEntry) {
	if sl == nil {
		return
	}
	if elapsed < sl.threshold {
		if armed {
			sl.disarm()
		}
		return
	}
	sl.mu.Lock()
	if !armed {
		sl.suppressed++
		sl.mu.Unlock()
		return
	}
	sl.armed = false
	sl.next = sl.now().Add(sl.every)
	e.Suppressed = sl.suppressed
	sl.suppressed = 0
	sl.logged++
	// The encode happens under the mutex so lines from concurrent queries
	// never interleave; one line per sampling interval keeps this cold.
	enc := json.NewEncoder(sl.w)
	e.TS = sl.now().UTC().Format(time.RFC3339Nano)
	e.ElapsedUS = elapsed.Microseconds()
	_ = enc.Encode(e)
	sl.mu.Unlock()
}

// Logged reports how many slow-query lines have been written (tests and the
// overload smoke assert on it).
func (sl *slowLog) Logged() int64 {
	if sl == nil {
		return 0
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.logged
}
