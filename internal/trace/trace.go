// Package trace is the per-query execution tracing layer: a plan-shaped tree
// of per-operator statistics (pulls, emissions, dedup suppressions, bound
// trajectories, abort polls, arena bytes) plus the planner decisions that
// shaped the tree (plan-cache hit, shape key, chosen mode, relaxation
// expansions) and the per-phase wall times.
//
// The design constraint is zero overhead when disabled: operators hold a
// *Node that is nil unless the execution asked for tracing, and every mutator
// is nil-receiver safe — the disabled hot path pays one nil check per event
// and allocates nothing, which is what keeps the indexed operator path at
// 0 allocs/op and bit-identical to untraced execution (the alloc guards in
// internal/operators enforce it).
//
// When enabled, counters are atomics and the bound trajectory is mutex
// guarded: join legs run under concurrent prefetch goroutines, and a trace
// may be serialised while a cancelled leg's goroutine is still winding down.
// The package deliberately imports nothing from the engine — operators, exec
// and the server all depend on it, never the reverse.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// maxTrajectory bounds the bound-trajectory sample count per operator. When
// the buffer fills, every other sample is dropped and the sampling stride
// doubles, so long executions keep a uniformly spaced sketch of the bound's
// descent instead of an unbounded log.
const maxTrajectory = 32

// Node is one operator's statistics in the plan-shaped trace tree. Exported
// scalar fields are written once, single-threaded (at construction or at
// tree-assembly time); the unexported counters are written on the operator's
// executing goroutine and read by the trace consumer, hence atomic.
type Node struct {
	// Op names the operator (ListScan, ShardedListScan, IncrementalMerge,
	// RankJoin, NRJN, AnswerScan, Prefetch).
	Op string
	// Detail renders the operator's pattern or configuration (e.g. the triple
	// pattern a scan covers, with its relaxation weight).
	Detail string
	// Shards is the fan-in of a ShardedListScan (0 otherwise).
	Shards int
	// BuildUS is the leg's construction wall time in microseconds, stamped by
	// the executor on leg roots (0 elsewhere).
	BuildUS int64
	// Children are the operator's inputs, in plan order.
	Children []*Node

	pulls      atomic.Int64 // input entries pulled / candidates examined
	emits      atomic.Int64 // entries emitted downstream
	created    atomic.Int64 // answer objects created (join results enqueued)
	dedup      atomic.Int64 // entries suppressed by duplicate elimination
	abortPolls atomic.Int64 // cancellation-hook polls (AbortStride boundaries)
	rescans    atomic.Int64 // inner-input restarts (NRJN)
	arenaBytes atomic.Int64 // slab-arena bytes backing emitted bindings

	mu        sync.Mutex
	topScore  float64
	boundSet  bool
	lastBound float64
	traj      []float64
	stride    int
	skip      int
}

// NewNode returns a node for the named operator.
func NewNode(op string) *Node { return &Node{Op: op} }

// Pull records one input pull (nil-safe; a no-op on nil receivers, like every
// mutator below).
func (n *Node) Pull() {
	if n != nil {
		n.pulls.Add(1)
	}
}

// Emit records one emission.
func (n *Node) Emit() {
	if n != nil {
		n.emits.Add(1)
	}
}

// Created records one answer object created (a join result enqueued before
// the corner bound proves it final).
func (n *Node) Created() {
	if n != nil {
		n.created.Add(1)
	}
}

// DedupDrop records one entry suppressed by duplicate elimination.
func (n *Node) DedupDrop() {
	if n != nil {
		n.dedup.Add(1)
	}
}

// AbortPoll records one cancellation-hook poll.
func (n *Node) AbortPoll() {
	if n != nil {
		n.abortPolls.Add(1)
	}
}

// Rescan records one inner-input restart.
func (n *Node) Rescan() {
	if n != nil {
		n.rescans.Add(1)
	}
}

// SetArenaBytes records the operator's current slab-arena footprint.
func (n *Node) SetArenaBytes(b int64) {
	if n != nil {
		n.arenaBytes.Store(b)
	}
}

// SetTop records the operator's initial top-score bound (write-once, at
// construction or priming).
func (n *Node) SetTop(v float64) {
	if n == nil {
		return
	}
	n.mu.Lock()
	n.topScore = v
	n.mu.Unlock()
}

// SampleBound records the operator's bound (or certificate) as observed at an
// emission: the final value is always retained, and the sequence of samples —
// decimated to at most maxTrajectory points — sketches the bound's monotone
// descent, which is the paper's early-termination story made visible.
func (n *Node) SampleBound(b float64) {
	if n == nil {
		return
	}
	n.mu.Lock()
	n.lastBound = b
	n.boundSet = true
	if n.stride == 0 {
		n.stride = 1
	}
	n.skip++
	if n.skip >= n.stride {
		n.skip = 0
		if len(n.traj) >= maxTrajectory {
			keep := n.traj[:0]
			for i := 0; i < len(n.traj); i += 2 {
				keep = append(keep, n.traj[i])
			}
			n.traj = keep
			n.stride *= 2
		}
		n.traj = append(n.traj, b)
	}
	n.mu.Unlock()
}

// NodeStats is the serialisable snapshot of one node, also the JSON shape of
// the whole tree (Children recurse).
type NodeStats struct {
	Op              string       `json:"op"`
	Detail          string       `json:"detail,omitempty"`
	Shards          int          `json:"shards,omitempty"`
	BuildUS         int64        `json:"build_us,omitempty"`
	Pulls           int64        `json:"pulls,omitempty"`
	Emits           int64        `json:"emits,omitempty"`
	Created         int64        `json:"created,omitempty"`
	DedupDropped    int64        `json:"dedup_dropped,omitempty"`
	AbortPolls      int64        `json:"abort_polls,omitempty"`
	Rescans         int64        `json:"rescans,omitempty"`
	ArenaBytes      int64        `json:"arena_bytes,omitempty"`
	TopScore        float64      `json:"top_score,omitempty"`
	FinalBound      *float64     `json:"final_bound,omitempty"`
	BoundTrajectory []float64    `json:"bound_trajectory,omitempty"`
	Children        []*NodeStats `json:"children,omitempty"`
}

// Snapshot captures the node (and its subtree) as plain serialisable values.
// Safe to call while operator goroutines are still winding down.
func (n *Node) Snapshot() *NodeStats {
	if n == nil {
		return nil
	}
	s := &NodeStats{
		Op:           n.Op,
		Detail:       n.Detail,
		Shards:       n.Shards,
		BuildUS:      n.BuildUS,
		Pulls:        n.pulls.Load(),
		Emits:        n.emits.Load(),
		Created:      n.created.Load(),
		DedupDropped: n.dedup.Load(),
		AbortPolls:   n.abortPolls.Load(),
		Rescans:      n.rescans.Load(),
		ArenaBytes:   n.arenaBytes.Load(),
	}
	n.mu.Lock()
	s.TopScore = n.topScore
	if n.boundSet {
		fb := n.lastBound
		s.FinalBound = &fb
	}
	s.BoundTrajectory = append([]float64(nil), n.traj...)
	n.mu.Unlock()
	for _, c := range n.Children {
		if cs := c.Snapshot(); cs != nil {
			s.Children = append(s.Children, cs)
		}
	}
	return s
}

// MarshalJSON serialises the node as its snapshot, so a live tree can be
// embedded directly in a JSON response.
func (n *Node) MarshalJSON() ([]byte, error) {
	return json.Marshal(n.Snapshot())
}

// UnmarshalJSON restores a node from its snapshot form, so a trace received
// over the wire (the /query explain response) renders with its counters — not
// just the tree shape.
func (n *Node) UnmarshalJSON(data []byte) error {
	var s NodeStats
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	n.restore(&s)
	return nil
}

// restore overwrites the node with a snapshot's values, recursively.
func (n *Node) restore(s *NodeStats) {
	n.Op, n.Detail, n.Shards, n.BuildUS = s.Op, s.Detail, s.Shards, s.BuildUS
	n.pulls.Store(s.Pulls)
	n.emits.Store(s.Emits)
	n.created.Store(s.Created)
	n.dedup.Store(s.DedupDropped)
	n.abortPolls.Store(s.AbortPolls)
	n.rescans.Store(s.Rescans)
	n.arenaBytes.Store(s.ArenaBytes)
	n.mu.Lock()
	n.topScore = s.TopScore
	n.boundSet = s.FinalBound != nil
	if s.FinalBound != nil {
		n.lastBound = *s.FinalBound
	}
	n.traj = append([]float64(nil), s.BoundTrajectory...)
	n.mu.Unlock()
	n.Children = nil
	for _, cs := range s.Children {
		c := &Node{}
		c.restore(cs)
		n.Children = append(n.Children, c)
	}
}

// Trace is one query execution's full trace: the planner's decisions, the
// phase wall times, and the operator tree.
type Trace struct {
	// Mode is the engine mode that executed (spec-qp, trinit, exact).
	Mode string `json:"mode"`
	// K is the requested answer count.
	K int `json:"k"`
	// ShapeKey is the planner's canonical key for the query shape
	// (ModeSpecQP only): queries with equal keys get equal plans.
	ShapeKey string `json:"shape_key,omitempty"`
	// Relaxations is the number of patterns the plan expands with relaxations
	// (the speculative planner's singleton count; all patterns for TriniT).
	Relaxations int `json:"relaxations,omitempty"`
	// PlanUS and ExecUS are the planning and execution wall times.
	PlanUS int64 `json:"plan_us,omitempty"`
	ExecUS int64 `json:"exec_us"`
	// Answers is the number of answers produced; MemoryObjects the paper's
	// answer-objects-created metric.
	Answers       int   `json:"answers"`
	MemoryObjects int64 `json:"memory_objects"`
	// Root is the operator tree (nil only on a header-only trace).
	Root *Node `json:"root,omitempty"`
}

// Render pretty-prints the trace as a deterministic indented tree — the
// EXPLAIN ANALYZE text form. Counters render only when non-zero, timings only
// when set, so a handcrafted trace with fixed values renders byte-stably for
// golden tests.
func Render(t *Trace) string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s k=%d", t.Mode, t.K)
	if t.Relaxations > 0 {
		fmt.Fprintf(&b, " relaxed_patterns=%d", t.Relaxations)
	}
	if t.PlanUS > 0 {
		fmt.Fprintf(&b, " plan_us=%d", t.PlanUS)
	}
	if t.ExecUS > 0 {
		fmt.Fprintf(&b, " exec_us=%d", t.ExecUS)
	}
	fmt.Fprintf(&b, " answers=%d objects=%d\n", t.Answers, t.MemoryObjects)
	if t.Root != nil {
		renderNode(&b, t.Root.Snapshot(), "", true)
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *NodeStats, prefix string, last bool) {
	branch, childPrefix := "├─ ", prefix+"│  "
	if last {
		branch, childPrefix = "└─ ", prefix+"   "
	}
	b.WriteString(prefix)
	b.WriteString(branch)
	b.WriteString(n.Op)
	if n.Detail != "" {
		fmt.Fprintf(b, "(%s)", n.Detail)
	}
	type field struct {
		name string
		v    int64
	}
	for _, f := range []field{
		{"shards", int64(n.Shards)},
		{"build_us", n.BuildUS},
		{"pulls", n.Pulls},
		{"emits", n.Emits},
		{"created", n.Created},
		{"dedup_dropped", n.DedupDropped},
		{"abort_polls", n.AbortPolls},
		{"rescans", n.Rescans},
		{"arena_bytes", n.ArenaBytes},
	} {
		if f.v != 0 {
			fmt.Fprintf(b, " %s=%d", f.name, f.v)
		}
	}
	if n.TopScore != 0 {
		fmt.Fprintf(b, " top=%.4f", n.TopScore)
	}
	if n.FinalBound != nil {
		fmt.Fprintf(b, " bound=%.4f", *n.FinalBound)
	}
	if len(n.BoundTrajectory) > 1 {
		fmt.Fprintf(b, " bound_path=[%.4f→%.4f ×%d]",
			n.BoundTrajectory[0], n.BoundTrajectory[len(n.BoundTrajectory)-1], len(n.BoundTrajectory))
	}
	b.WriteByte('\n')
	for i, c := range n.Children {
		renderNode(b, c, childPrefix, i == len(n.Children)-1)
	}
}

// TotalsByOp aggregates pulls/emits per operator kind across the tree —
// convenient for tests and dashboards.
func (t *Trace) TotalsByOp() map[string][2]int64 {
	out := map[string][2]int64{}
	var walk func(n *NodeStats)
	walk = func(n *NodeStats) {
		if n == nil {
			return
		}
		v := out[n.Op]
		v[0] += n.Pulls
		v[1] += n.Emits
		out[n.Op] = v
		for _, c := range n.Children {
			walk(c)
		}
	}
	if t.Root != nil {
		walk(t.Root.Snapshot())
	}
	return out
}

// Ops lists the distinct operator kinds in the tree, sorted.
func (t *Trace) Ops() []string {
	var ops []string
	for op := range t.TotalsByOp() {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}
