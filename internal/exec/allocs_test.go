package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"specqp/internal/kg"
	"specqp/internal/planner"
	"specqp/internal/relax"
)

// drainWorld is a two-pattern join over n subjects per pattern whose only
// join partners are the eight lowest-scored, so the rank join drains both
// match lists: the entries a Run pulls grow linearly with n while its answers
// stay fixed.
func drainWorld(t testing.TB, n int) (*Executor, planner.Plan) {
	t.Helper()
	st := kg.NewStore(nil)
	d := st.Dict()
	pa, pb := d.Encode("a"), d.Encode("b")
	for i := 0; i < n; i++ {
		for _, tr := range []kg.Triple{
			{S: d.Encode(fmt.Sprintf("x%d", i)), P: pa, O: d.Encode(fmt.Sprintf("y%d", i%7)), Score: float64(2*n - i)},
			{S: d.Encode(fmt.Sprintf("x%d", i+n-8)), P: pb, O: d.Encode(fmt.Sprintf("z%d", i%5)), Score: float64(2*n - i)},
		} {
			if err := st.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Freeze()
	q := kg.NewQuery(
		kg.NewPattern(kg.Var("x"), kg.Const(pa), kg.Var("y")),
		kg.NewPattern(kg.Var("x"), kg.Const(pb), kg.Var("z")),
	)
	return New(st, relax.NewRuleSet()), planner.ExactPlan(q, 10)
}

// TestRunAllocsIndependentOfPulls: with a warm workspace, a Run that pulls
// 16x more entries costs at most a few more allocations — join slabs, key
// tables, result queues and arena chunks come back from the workspace
// instead of doubling from empty, which would cost one allocation per slab
// per doubling and one per arena chunk.
func TestRunAllocsIndependentOfPulls(t *testing.T) {
	// No collection may free the idle workspace between runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) (float64, int64) {
		ex, p := drainWorld(t, n)
		var objects int64
		a := testing.AllocsPerRun(20, func() {
			res := run(ex, p)
			if len(res.Answers) != 8 {
				t.Fatalf("n=%d: %d answers, want 8", n, len(res.Answers))
			}
			objects = res.MemoryObjects
		})
		return a, objects
	}
	const small = 1024
	a, objA := allocs(small)
	b, objB := allocs(16 * small)
	if objB < 15*objA {
		t.Fatalf("fixture: %d objects at 16x the input vs %d — the join does not drain", objB, objA)
	}
	const slack = 4
	if b-a > slack {
		t.Fatalf("Run pulling %d objects: %v allocs, pulling %d: %v — %v more, want <= %d",
			objA, a, objB, b, b-a, slack)
	}
	t.Logf("allocs per Run: %v pulling %d objects, %v pulling %d", a, objA, b, objB)
}

// TestRunAllocsRetainNothingAfterGC: idle workspaces are held weakly, so
// after a burst of queries one collection returns the heap to where it was.
// A strongly held free list, or sync.Pool's victim cache, keeps every
// workspace (several MiB here) alive through that collection.
func TestRunAllocsRetainNothingAfterGC(t *testing.T) {
	ex, p := drainWorld(t, 16*1024)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range 50 {
		if res := run(ex, p); len(res.Answers) != 8 {
			t.Fatalf("%d answers, want 8", len(res.Answers))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("live heap grew by %d bytes across 50 queries and a collection, want <= 1 MiB", grew)
	}
	runtime.KeepAlive(ex)
}
