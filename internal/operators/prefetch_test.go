package operators

import (
	"sync/atomic"
	"testing"
	"time"

	"specqp/internal/kg"
)

// blockingStream is an endless stream whose Next blocks until release is
// closed, counting the pulls it serves.
type blockingStream struct {
	pulls   atomic.Int64
	entered chan struct{} // signalled when a pull starts
	release chan struct{}
}

func (s *blockingStream) Next() (Entry, bool) {
	s.pulls.Add(1)
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	return Entry{Binding: kg.Binding{1}, Score: 1}, true
}

func (s *blockingStream) TopScore() float64 { return 1 }
func (s *blockingStream) Bound() float64    { return 1 }

// TestPrefetchStopWaitsForInFlightPull: stopping prefetchers waits for the
// pull in flight, and no pull starts after the stop signal — so once stop
// returns, nothing reads the memory the legs draw on and the executor may
// release it.
func TestPrefetchStopWaitsForInFlightPull(t *testing.T) {
	s := &blockingStream{entered: make(chan struct{}, 1), release: make(chan struct{})}
	stop := PrefetchAll([]Stream{s}, DefaultPrefetchDepth)
	<-s.entered

	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a pull was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(s.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not return after the in-flight pull finished")
	}
	n := s.pulls.Load()
	time.Sleep(20 * time.Millisecond)
	if got := s.pulls.Load(); got != n || n != 1 {
		t.Fatalf("pulls: %d when stop returned, %d later; want 1 and final", n, got)
	}
	stop() // idempotent
}
