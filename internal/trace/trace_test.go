package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRenderGolden pins the text rendering byte-for-byte on a handcrafted
// trace: zero-valued counters and unset timings must not print, the branch
// glyphs must nest by plan position, and the header must carry exactly the
// planner decisions that were set. Any drift here breaks `specqp -explain`
// consumers and the slow-query log's human half.
func TestRenderGolden(t *testing.T) {
	scan1 := NewNode("ListScan")
	scan1.Detail = "?s <rdf:type> <singer>"
	scan1.SetTop(100)
	for i := 0; i < 5; i++ {
		scan1.Pull()
	}
	scan1.Emit()
	scan1.Emit()
	scan1.SampleBound(90)
	scan1.SampleBound(80)
	scan1.SampleBound(70)

	scan2 := NewNode("ListScan")
	scan2.Detail = "?s <rdf:type> <guitarist>"
	scan2.Pull()
	scan2.DedupDrop()

	join := NewNode("RankJoin")
	join.SetTop(100)
	join.Pull()
	join.Pull()
	join.Emit()
	join.Created()
	join.Children = []*Node{scan1, scan2}

	tr := &Trace{
		Mode:          "spec-qp",
		K:             3,
		Relaxations:   2,
		PlanUS:        12,
		ExecUS:        340,
		Answers:       1,
		MemoryObjects: 4,
		Root:          join,
	}

	want := strings.Join([]string{
		"mode=spec-qp k=3 relaxed_patterns=2 plan_us=12 exec_us=340 answers=1 objects=4",
		"└─ RankJoin pulls=2 emits=1 created=1 top=100.0000",
		"   ├─ ListScan(?s <rdf:type> <singer>) pulls=5 emits=2 top=100.0000 bound=70.0000 bound_path=[90.0000→70.0000 ×3]",
		"   └─ ListScan(?s <rdf:type> <guitarist>) pulls=1 dedup_dropped=1",
		"",
	}, "\n")
	if got := Render(tr); got != want {
		t.Errorf("render mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRenderCacheMissAndNilRoot covers the header variants: the header
// carries no plan-cache field (there is no plan cache to hit or miss), a
// rootless trace (naive mode) renders only the header line, and a nil trace
// renders empty.
func TestRenderCacheMissAndNilRoot(t *testing.T) {
	tr := &Trace{Mode: "naive", K: 10, Answers: 2, MemoryObjects: 7}
	got := Render(tr)
	want := "mode=naive k=10 answers=2 objects=7\n"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
	if Render(nil) != "" {
		t.Error("nil trace must render empty")
	}
}

// TestNilNodeSafety is the zero-overhead contract: every mutator must be a
// no-op on a nil *Node — that is what lets operators call them unguarded on
// the untraced hot path.
func TestNilNodeSafety(t *testing.T) {
	var n *Node
	n.Pull()
	n.Emit()
	n.Created()
	n.DedupDrop()
	n.AbortPoll()
	n.Rescan()
	n.SetArenaBytes(42)
	n.SetTop(1.5)
	n.SampleBound(0.5)
	if s := n.Snapshot(); s != nil {
		t.Fatalf("nil node snapshot: %+v", s)
	}
}

// TestJSONShape checks the wire form: omitempty keeps zero counters out,
// final_bound distinguishes "bound 0 observed" from "no bound observed", and
// children recurse.
func TestJSONShape(t *testing.T) {
	leaf := NewNode("ListScan")
	leaf.Detail = "p"
	leaf.Pull()
	leaf.SampleBound(0) // a genuine zero bound must serialise
	root := NewNode("RankJoin")
	root.Emit()
	root.Children = []*Node{leaf}

	raw, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["op"] != "RankJoin" || m["emits"] != float64(1) {
		t.Fatalf("root: %v", m)
	}
	if _, ok := m["pulls"]; ok {
		t.Fatalf("zero counter serialised: %v", m)
	}
	kids := m["children"].([]any)
	child := kids[0].(map[string]any)
	if child["op"] != "ListScan" || child["pulls"] != float64(1) {
		t.Fatalf("child: %v", child)
	}
	if fb, ok := child["final_bound"]; !ok || fb != float64(0) {
		t.Fatalf("zero final bound dropped: %v", child)
	}
	if _, ok := m["final_bound"]; ok {
		t.Fatalf("unobserved bound serialised: %v", m)
	}
}

// TestJSONRoundTrip pins the wire contract a remote explain consumer relies
// on: a trace marshalled into a response and unmarshalled back must render
// identically — counters, bounds and trajectory included, not just the tree
// shape.
func TestJSONRoundTrip(t *testing.T) {
	leaf := NewNode("ListScan")
	leaf.Detail = "p w=0.800"
	for i := 0; i < 4; i++ {
		leaf.Pull()
	}
	leaf.Emit()
	leaf.SetTop(9)
	leaf.SampleBound(8)
	leaf.SampleBound(5)
	root := NewNode("RankJoin")
	root.Emit()
	root.Created()
	root.Children = []*Node{leaf}
	tr := &Trace{Mode: "spec-qp", K: 2, Answers: 1, Root: root}

	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if got, want := Render(&back), Render(tr); got != want {
		t.Errorf("render changed across JSON round trip:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestTrajectoryDecimation fills the bound trajectory far past its cap and
// checks the sketch stays bounded while retaining first-ish and last values.
func TestTrajectoryDecimation(t *testing.T) {
	n := NewNode("ListScan")
	const total = 10 * maxTrajectory
	for i := 0; i < total; i++ {
		n.SampleBound(float64(total - i))
	}
	s := n.Snapshot()
	if len(s.BoundTrajectory) > maxTrajectory {
		t.Fatalf("trajectory unbounded: %d > %d", len(s.BoundTrajectory), maxTrajectory)
	}
	if len(s.BoundTrajectory) < maxTrajectory/4 {
		t.Fatalf("trajectory over-decimated: %d", len(s.BoundTrajectory))
	}
	if s.FinalBound == nil || *s.FinalBound != 1 {
		t.Fatalf("final bound: %v", s.FinalBound)
	}
	for i := 1; i < len(s.BoundTrajectory); i++ {
		if s.BoundTrajectory[i] > s.BoundTrajectory[i-1] {
			t.Fatalf("trajectory not descending at %d: %v", i, s.BoundTrajectory)
		}
	}
}

// TestTotalsByOp aggregates across same-op nodes.
func TestTotalsByOp(t *testing.T) {
	a, b := NewNode("ListScan"), NewNode("ListScan")
	a.Pull()
	a.Pull()
	b.Pull()
	b.Emit()
	root := NewNode("RankJoin")
	root.Children = []*Node{a, b}
	tr := &Trace{Root: root}
	tot := tr.TotalsByOp()
	if v := tot["ListScan"]; v[0] != 3 || v[1] != 1 {
		t.Fatalf("ListScan totals: %v", v)
	}
	ops := tr.Ops()
	if len(ops) != 2 || ops[0] != "ListScan" || ops[1] != "RankJoin" {
		t.Fatalf("ops: %v", ops)
	}
}
