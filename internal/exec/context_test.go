package exec

import (
	"context"
	"math/rand"
	"testing"

	"specqp/internal/kg"
	"specqp/internal/planner"
	"specqp/internal/stats"
)

// sameScores asserts two answer lists carry bit-identical scores and masks.
func sameScores(t *testing.T, label string, got, want []kg.Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Score != want[i].Score || got[i].Relaxed != want[i].Relaxed {
			t.Fatalf("%s rank %d: %v/%b, want %v/%b", label, i, got[i].Score, got[i].Relaxed, want[i].Score, want[i].Relaxed)
		}
	}
}

// TestRunContextMatchesRun: a live cancellable context, an emitter and
// tracing change nothing about what Run returns — the emitted sequence and
// the Result both equal the plain run's answers.
func TestRunContextMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	w := newRandomWorld(t, rng, 80, 5)
	ex := New(w.st, w.rules)
	p := planner.TriniTPlan(w.randomQuery(rng, 2), 5)
	plain := run(ex, p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted []kg.Answer
	withCtx, err := ex.Run(ctx, p, RunOpts{
		Emit:  func(a kg.Answer) bool { emitted = append(emitted, a); return true },
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, "result", withCtx.Answers, plain.Answers)
	sameScores(t, "emitted", emitted, plain.Answers)
	if withCtx.Trace == nil || plain.Trace != nil {
		t.Fatalf("trace attached: traced run %v, plain run %v", withCtx.Trace != nil, plain.Trace != nil)
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	w := newRandomWorld(t, rng, 80, 5)
	ex := New(w.st, w.rules)
	q := w.randomQuery(rng, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pl := planner.New(stats.NewCatalog(w.st, 2, nil), w.rules)
	for _, p := range []planner.Plan{planner.TriniTPlan(q, 1000), pl.Plan(q, 10)} {
		res, err := ex.Run(ctx, p, RunOpts{})
		if err != context.Canceled {
			t.Fatalf("err: %v", err)
		}
		if len(res.Answers) != 0 {
			t.Fatalf("cancelled run produced %d answers", len(res.Answers))
		}
	}
}

func TestSpecQPContextSucceeds(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	w := newRandomWorld(t, rng, 80, 5)
	ex := New(w.st, w.rules)
	pl := planner.New(stats.NewCatalog(w.st, 2, nil), w.rules)
	p := pl.Plan(w.randomQuery(rng, 2), 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := ex.Run(ctx, p, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, "spec-qp", res.Answers, run(ex, p).Answers)
}
