package exec

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"specqp/internal/planner"
)

// pollCtx is a context whose Err flips to Canceled after a fixed number of
// polls — a deterministic stand-in for "the client gave up mid-query". The
// operators poll ctx.Err through the abort hook every AbortStride pulls, so
// allowing N polls cancels the run after roughly N strides of work.
type pollCtx struct {
	context.Context
	polls atomic.Int64
	allow int64
}

func (p *pollCtx) Err() error {
	if p.polls.Add(1) > p.allow {
		return context.Canceled
	}
	return nil
}

func (p *pollCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestRunContextCancelMidQuery verifies satellite requirement: cancellation
// is honored inside the operator pull loop, not just between queries. A run
// cancelled after its first abort poll must return promptly, having done a
// small bounded amount of work compared to the full run, and report
// context.Canceled.
func TestRunContextCancelMidQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	w := newRandomWorld(t, rng, 300, 6)
	ex := New(w.st, w.rules)
	q := w.randomQuery(rng, 3)

	full, err := ex.Run(context.Background(), planner.TriniTPlan(q, 100000), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if full.MemoryObjects < 10 {
		t.Skipf("fixture too small to observe truncation (%d objects)", full.MemoryObjects)
	}

	ctx := &pollCtx{Context: context.Background(), allow: 1}
	trunc, err := ex.Run(ctx, planner.TriniTPlan(q, 100000), RunOpts{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if trunc.MemoryObjects >= full.MemoryObjects {
		t.Fatalf("cancelled run did full work: %d vs full %d",
			trunc.MemoryObjects, full.MemoryObjects)
	}
	if len(trunc.Answers) > len(full.Answers) {
		t.Fatalf("cancelled run answers %d > full %d", len(trunc.Answers), len(full.Answers))
	}
}

// TestRunContextCompletionBeatsLateCancel: a run that fills k answers before
// the cancellation lands reports success — completion wins.
func TestRunContextCompletionBeatsLateCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	w := newRandomWorld(t, rng, 80, 5)
	ex := New(w.st, w.rules)
	q := w.randomQuery(rng, 2)

	// Allow a huge number of polls: the run finishes first, and even though
	// the context is by then cancellable, a completed top-k must not be
	// retroactively failed.
	ctx := &pollCtx{Context: context.Background(), allow: 1 << 40}
	res, err := ex.Run(ctx, planner.TriniTPlan(q, 1), RunOpts{})
	if err != nil {
		t.Fatalf("completed run reported %v", err)
	}
	ref := run(ex, planner.TriniTPlan(q, 1))
	if len(res.Answers) != len(ref.Answers) {
		t.Fatalf("answers %d vs %d", len(res.Answers), len(ref.Answers))
	}
}
