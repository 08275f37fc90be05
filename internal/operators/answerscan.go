package operators

import (
	"fmt"

	"specqp/internal/kg"
	"specqp/internal/trace"
)

// AnswerScan streams a pre-materialised, score-descending answer list
// (deduplicated by the producer) as a Stream, applying a relaxation weight
// and provenance mask. It backs chain relaxations, whose "sorted answer
// list" is the projected join of the chain rather than a single pattern's
// match list.
type AnswerScan struct {
	answers []kg.Answer
	weight  float64
	mask    uint32
	counter *Counter
	pos     int
	top     float64
	last    float64
	stats   *trace.Node // nil unless the execution is traced
}

// NewAnswerScan wraps answers (sorted by score descending) as a stream.
func NewAnswerScan(answers []kg.Answer, weight float64, mask uint32, c *Counter) *AnswerScan {
	s := &AnswerScan{answers: answers, weight: weight, mask: mask, counter: c}
	if len(answers) > 0 {
		s.top = weight * answers[0].Score
	}
	s.last = s.top
	if c.Tracing() {
		s.stats = trace.NewNode("AnswerScan")
		s.stats.Detail = fmt.Sprintf("%d answers w=%.3f", len(answers), weight)
		s.stats.SetTop(s.top)
	}
	return s
}

// TopScore implements Stream.
func (s *AnswerScan) TopScore() float64 { return s.top }

// Bound implements Stream.
func (s *AnswerScan) Bound() float64 { return s.last }

// advance moves to the next answer and returns its weighted score; the
// answer's binding is then view.
func (s *AnswerScan) advance() (float64, bool) {
	if s.pos >= len(s.answers) {
		s.last = 0
		return 0, false
	}
	s.pos++
	s.stats.Pull()
	return s.weight * s.answers[s.pos-1].Score, true
}

// view is the current answer's binding, valid until the next advance.
func (s *AnswerScan) view() kg.Binding { return s.answers[s.pos-1].Binding }

// take hands the current answer off as an entry and counts it.
func (s *AnswerScan) take() Entry {
	a := s.answers[s.pos-1]
	score := s.weight * a.Score
	s.last = score
	s.counter.Inc()
	if s.stats != nil {
		s.stats.Emit()
		s.stats.SampleBound(score)
	}
	return Entry{Binding: a.Binding, Score: score, Relaxed: s.mask | a.Relaxed}
}

// Next implements Stream.
func (s *AnswerScan) Next() (Entry, bool) {
	if _, ok := s.advance(); !ok {
		return Entry{}, false
	}
	return s.take(), true
}

// Reset implements Resettable.
func (s *AnswerScan) Reset() {
	s.pos = 0
	s.last = s.top
}
