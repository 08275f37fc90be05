package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval at a layer boundary. Spans of one request share Req;
// Parent is the ID of the span that caused this one (0 for a request's root).
// Derived spans are not clocked by the benchmark: their length is a duration
// the program reported (Result.PlanTime, the plan_us field of a response) and
// they are laid end to end from their parent's start.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Req     int32  `json:"req"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Derived bool   `json:"derived,omitempty"`
}

// recorder keeps the benchmark's own spans in memory until the run ends.
// A nil *recorder is tracing off: every method is a no-op, so the end-to-end
// run pays one nil check per boundary.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int32
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// request allocates the identifier the spans of one request share.
func (r *recorder) request() int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs++
	return r.reqs
}

// add records a clocked span and returns its ID.
func (r *recorder) add(name string, parent, req int32, start, end time.Time) int32 {
	if r == nil {
		return 0
	}
	return r.put(span{Parent: parent, Req: req, Name: name,
		StartUS: start.Sub(r.epoch).Microseconds(), EndUS: end.Sub(r.epoch).Microseconds()})
}

// derive records program-reported durations as consecutive children of
// parent, starting where the parent started.
func (r *recorder) derive(parent, req int32, parentStart time.Time, parts ...namedDur) {
	if r == nil {
		return
	}
	at := parentStart.Sub(r.epoch).Microseconds()
	for _, p := range parts {
		end := at + p.d.Microseconds()
		r.put(span{Parent: parent, Req: req, Name: p.name, StartUS: at, EndUS: end, Derived: true})
		at = end
	}
}

type namedDur struct {
	name string
	d    time.Duration
}

func (r *recorder) put(s span) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int32(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.ID
}

// selfTimes sums, per span name, the span's duration minus the part its
// children cover: where a request's time was spent and nowhere deeper.
func (r *recorder) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndUS - s.StartUS
		}
	}
	for _, s := range r.spans {
		self[s.Name] += time.Duration(s.EndUS-s.StartUS-covered[s.ID]) * time.Microsecond
		count[s.Name]++
	}
	return
}

// dump writes the spans and the environment they were taken in.
func (r *recorder) dump(path string, e envBlock) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf, err := json.Marshal(struct {
		Env   envBlock `json:"env"`
		Spans []span   `json:"spans"`
	}{e, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
