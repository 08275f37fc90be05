package specqp

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// reuseFixture is a typed store and a set of two-pattern queries with
// different answer sets.
func reuseFixture(t *testing.T) (*Engine, []Query) {
	t.Helper()
	st := NewStore()
	for e := 0; e < 400; e++ {
		name := fmt.Sprintf("e%03d", e)
		for j, ty := range []int{e % 7, (e / 7) % 7, (e + 3) % 5} {
			if err := st.AddSPO(name, "rdf:type", fmt.Sprintf("T%d", ty), float64(1000-e)-float64(j)/10); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Freeze()
	d := st.Dict()
	ty, _ := d.Lookup("rdf:type")
	pat := func(i int) Pattern {
		id, _ := d.Lookup(fmt.Sprintf("T%d", i))
		return NewPattern(Var("s"), Const(ty), Const(id))
	}
	rules := NewRuleSet()
	for i := 0; i < 7; i++ {
		if err := rules.Add(Rule{From: pat(i), To: pat((i + 2) % 7), Weight: 0.4 + float64(i)/20}); err != nil {
			t.Fatal(err)
		}
	}
	var qs []Query
	for i := 0; i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			qs = append(qs, NewQuery(pat(i), pat(j)))
		}
	}
	return NewEngine(st, rules), qs
}

func cloneAnswers(as []Answer) []Answer {
	out := make([]Answer, len(as))
	for i, a := range as {
		out[i] = Answer{Binding: slices.Clone(a.Binding), Score: a.Score, Relaxed: a.Relaxed}
	}
	return out
}

// TestAnswersOutliveWorkspaceReuse: the operators' slabs are reused by the
// next query, so every answer an entry point hands out — in a Result or to a
// streaming emitter — must own its binding. Each entry point runs query A,
// then 50 other queries sequentially and 13 more on each of four goroutines,
// and A's answers must still read as they did when A returned.
func TestAnswersOutliveWorkspaceReuse(t *testing.T) {
	// Without collections an idle workspace is always reused, so an answer
	// still pointing into one is certain to be overwritten.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	eng, qs := reuseFixture(t)
	ctx := context.Background()
	const k = 10
	entries := []struct {
		name string
		run  func(q Query, mode Mode) ([]Answer, error)
	}{
		{"Query", func(q Query, mode Mode) ([]Answer, error) {
			res, err := eng.Query(q, k, mode)
			return res.Answers, err
		}},
		{"QueryContext", func(q Query, mode Mode) ([]Answer, error) {
			res, err := eng.QueryContext(ctx, q, k, mode)
			return res.Answers, err
		}},
		{"QueryStream", func(q Query, mode Mode) ([]Answer, error) {
			var retained []Answer
			res, err := eng.QueryStream(ctx, q, k, mode, func(a Answer) bool {
				retained = append(retained, a)
				return true
			})
			if err == nil && len(retained) != len(res.Answers) {
				err = fmt.Errorf("%d answers emitted, %d in the result", len(retained), len(res.Answers))
			}
			return retained, err
		}},
		{"QueryBatch", func(q Query, mode Mode) ([]Answer, error) {
			res, err := eng.QueryBatch(ctx, []Query{q}, k, mode)
			if err != nil {
				return nil, err
			}
			return res[0].Result.Answers, res[0].Err
		}},
		{"QueryTraced", func(q Query, mode Mode) ([]Answer, error) {
			res, err := eng.QueryTraced(ctx, q, k, mode)
			return res.Answers, err
		}},
	}
	for _, ep := range entries {
		for _, mode := range []Mode{ModeSpecQP, ModeTriniT} {
			t.Run(fmt.Sprintf("%s/%v", ep.name, mode), func(t *testing.T) {
				got, err := ep.run(qs[0], mode)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != k {
					t.Fatalf("query A: %d answers, want %d", len(got), k)
				}
				want := cloneAnswers(got)
				others := func(from, n int) error {
					for i := from; i < from+n; i++ {
						if _, err := ep.run(qs[1+i%(len(qs)-1)], mode); err != nil {
							return err
						}
					}
					return nil
				}
				if err := others(0, 50); err != nil {
					t.Fatal(err)
				}
				sameAnswers(t, "query A after 50 later queries", got, want)
				var wg sync.WaitGroup
				errs := make([]error, 4)
				for g := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[g] = others(50+13*g, 13)
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				sameAnswers(t, "query A after 50 concurrent queries", got, want)
			})
		}
	}
}
