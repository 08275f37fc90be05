// Package planner implements Spec-QP's speculative query planner: PLANGEN
// (Algorithm 1 of the paper). Given a query, the relaxation rule set, and the
// score-statistics catalog, it predicts for each triple pattern whether that
// pattern's relaxations can contribute answers to the top-k, and partitions
// the query into a join group (patterns executed without relaxations) and
// singletons (patterns whose relaxations are processed by an Incremental
// Merge operator).
package planner

import (
	"fmt"
	"strconv"
	"strings"

	"specqp/internal/kg"
	"specqp/internal/relax"
	"specqp/internal/stats"
)

// Plan is a speculative query plan: a partition of the query's patterns into
// one join group and zero or more singletons (Section 3.2's {Q1, Q2, .., Qs}
// with |Q1| ≥ 1 and the rest singletons).
type Plan struct {
	Query kg.Query
	K     int

	// JoinGroup holds pattern indexes executed without relaxations.
	JoinGroup []int
	// Singletons holds pattern indexes whose relaxations are processed.
	Singletons []int

	// Diagnostics for Explain and tests.
	EQk       float64           // expected k-th score of the original query
	EQkOK     bool              // whether the original query reaches k answers
	Decisions []PatternDecision // one per pattern, in query order
}

// PatternDecision records why a pattern was or was not marked for relaxation.
type PatternDecision struct {
	PatternIdx int
	Relax      bool
	Reason     string
	TopRule    relax.Rule
	HasRule    bool
	EQ1        float64 // expected top score of the relaxed query
	EQ1OK      bool
}

// RelaxMask returns the singleton set as a bitmask over pattern indexes.
func (p Plan) RelaxMask() uint32 {
	var m uint32
	for _, i := range p.Singletons {
		m |= 1 << uint(i)
	}
	return m
}

// NumRelaxed returns the number of patterns the plan relaxes.
func (p Plan) NumRelaxed() int { return len(p.Singletons) }

// Planner generates speculative plans.
type Planner struct {
	Catalog *stats.Catalog
	Rules   *relax.RuleSet
}

// New returns a Planner over the given catalog and rule set.
func New(c *stats.Catalog, rs *relax.RuleSet) *Planner {
	return &Planner{Catalog: c, Rules: rs}
}

// Plan runs PLANGEN: it estimates EQ(k) for the original query and, for each
// pattern, EQ'(1) for the query with that pattern replaced by its
// top-weighted relaxation. Patterns with EQ'(1) > EQ(k) become singletons.
//
// Cardinalities follow the paper's estimator: the original query's answer
// count n is taken from the catalog's counter (exact, per footnote 3) and
// its selectivity φ = n / ∏ mᵢ is reused for relaxed variants as
// n' = φ · ∏_{j≠i} mⱼ · m'ᵢ — the m12 = m·m′·φ rule of Section 3.1.2. This
// keeps planning to a single join count per query.
//
// Paper-faithful edge cases:
//   - if the original query cannot produce k answers, EQ(k) is 0, so any
//     productive relaxation qualifies;
//   - if the original query has no answers at all, φ carries no signal; the
//     planner then speculates n' = 1 for any relaxation whose rewritten query
//     could have answers, so every productively relaxable pattern is relaxed
//     (the original join group alone would produce nothing);
//   - only the top-weighted relaxation is probed, because normalisation
//     (Definition 5) makes each relaxation's top score equal its weight.
func (pl *Planner) Plan(q kg.Query, k int) Plan {
	if k < 1 {
		k = 1
	}
	p := Plan{Query: q.Clone(), K: k}
	st := pl.Catalog.Store()

	nQ := pl.Catalog.QueryCount(q)
	cards := make([]float64, len(q.Patterns))
	prodCards := 1.0
	for i, pat := range q.Patterns {
		cards[i] = float64(st.Cardinality(pat))
		prodCards *= cards[i]
	}
	var phi float64
	if prodCards > 0 {
		phi = float64(nQ) / prodCards
	}

	if nQ >= k {
		eqk, okK := pl.Catalog.ExpectedScoreAtRankN(q, nil, nQ, k)
		p.EQk, p.EQkOK = eqk, okK
	}

	for i, pat := range q.Patterns {
		d := PatternDecision{PatternIdx: i}
		rule, ok := pl.Rules.Top(pat)
		d.HasRule = ok
		if !ok {
			d.Reason = "no relaxation rules for pattern"
			p.Decisions = append(p.Decisions, d)
			p.JoinGroup = append(p.JoinGroup, i)
			continue
		}
		d.TopRule = rule

		// The relaxed pattern's match-list cardinality and score density.
		// Plain rules read both from the catalog; chain rules (Section 6
		// extension) materialise the chain's projected answers and fit the
		// two-bucket model over them.
		var relaxedCard float64
		var relaxedDist stats.PiecewiseConst
		var relaxedOK bool
		if rule.IsChain() {
			vs := kg.NewVarSet(q)
			matches := relax.ChainMatches(st, relax.ApplyChain(rule, pat), vs)
			relaxedCard = float64(len(matches))
			if len(matches) > 0 {
				scores := make([]float64, len(matches))
				for mi, m := range matches {
					scores[mi] = m.Score
				}
				if ps, err := stats.FitTwoBucket(scores); err == nil {
					relaxedDist, relaxedOK = ps.Dist(), true
				}
			}
		} else {
			relaxedPat := relax.Apply(rule, pat)
			relaxedCard = float64(st.Cardinality(relaxedPat))
			relaxedDist, _, relaxedOK = pl.Catalog.PatternDist(relaxedPat)
		}

		// n' = φ · ∏_{j≠i} mⱼ · m'ᵢ. With an unanswerable original query
		// (φ == 0) there is no usable selectivity signal: speculate that the
		// relaxation is required whenever the relaxed pattern has matches.
		var nPrime int
		switch {
		case relaxedCard == 0:
			nPrime = 0
		case phi > 0:
			est := phi * relaxedCard
			for j := range cards {
				if j != i {
					est *= cards[j]
				}
			}
			nPrime = int(est)
			if est > 0 && nPrime == 0 {
				nPrime = 1
			}
		default:
			nPrime = 1
		}

		eq1, ok1 := pl.expectedTop(q, i, relaxedDist, relaxedOK, rule.Weight, nPrime)
		d.EQ1, d.EQ1OK = eq1, ok1
		switch {
		case !ok1:
			d.Relax = false
			d.Reason = "top-weighted relaxation yields no answers"
		case eq1 > p.EQk:
			d.Relax = true
			d.Reason = fmt.Sprintf("EQ'(1)=%.4f > EQ(k)=%.4f", eq1, p.EQk)
		default:
			d.Relax = false
			d.Reason = fmt.Sprintf("EQ'(1)=%.4f <= EQ(k)=%.4f", eq1, p.EQk)
		}
		p.Decisions = append(p.Decisions, d)
		if d.Relax {
			p.Singletons = append(p.Singletons, i)
		} else {
			p.JoinGroup = append(p.JoinGroup, i)
		}
	}
	return p
}

// expectedTop estimates EQ'(1): the expected top score of the query with
// pattern i replaced by a relaxation whose score density is relaxedDist
// scaled by weight w, under answer-count estimate n. It returns 0, false
// when the relaxation or any other pattern has no matches or n == 0.
func (pl *Planner) expectedTop(q kg.Query, i int, relaxedDist stats.PiecewiseConst, relaxedOK bool, w float64, n int) (float64, bool) {
	if !relaxedOK || n <= 0 {
		return 0, false
	}
	ds := make([]stats.PiecewiseConst, 0, len(q.Patterns))
	for j, pat := range q.Patterns {
		if j == i {
			ds = append(ds, relaxedDist.Scale(w))
			continue
		}
		d, _, ok := pl.Catalog.PatternDist(pat)
		if !ok {
			return 0, false
		}
		ds = append(ds, d)
	}
	dist := stats.ConvolveAll(ds, pl.Catalog.Buckets())
	return stats.ExpectedAtRank(dist, n, 1), true
}

// Explain renders a human-readable account of the plan's decisions.
func (pl *Planner) Explain(p Plan) string {
	st := pl.Catalog.Store()
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", st.QueryString(p.Query))
	if p.EQkOK {
		fmt.Fprintf(&b, "expected score at rank k=%d: %.4f\n", p.K, p.EQk)
	} else {
		fmt.Fprintf(&b, "original query cannot reach k=%d answers; EQ(k)=0\n", p.K)
	}
	for _, d := range p.Decisions {
		pat := p.Query.Patterns[d.PatternIdx]
		verdict := "join group"
		if d.Relax {
			verdict = "RELAX (incremental merge)"
		}
		fmt.Fprintf(&b, "  [%d] %s → %s: %s\n", d.PatternIdx, st.PatternString(pat), verdict, d.Reason)
		if d.HasRule {
			if d.TopRule.IsChain() {
				parts := make([]string, len(d.TopRule.Chain))
				for ci, cp := range d.TopRule.Chain {
					parts[ci] = st.PatternString(cp)
				}
				fmt.Fprintf(&b, "      top rule: chain %s (w=%.3f)\n", strings.Join(parts, " . "), d.TopRule.Weight)
			} else {
				fmt.Fprintf(&b, "      top rule: %s (w=%.3f)\n", st.PatternString(d.TopRule.To), d.TopRule.Weight)
			}
		}
	}
	fmt.Fprintf(&b, "plan: join group %v, singletons %v\n", p.JoinGroup, p.Singletons)
	return b.String()
}

// ShapeKey returns a canonical key for (q, k): two queries share a key iff
// they have the same constants in the same positions and the same
// cross-pattern variable-sharing structure. Variable names are erased to
// first-occurrence indexes, so 〈?x a b〉.〈?x c d〉 and 〈?y a b〉.〈?y c d〉 share
// a key while 〈?x a b〉.〈?z c d〉 does not. PLANGEN's decisions depend only on
// per-pattern statistics (keyed by constants) and the exact join count
// (keyed by the join structure), so plans are identical within a shape
// class.
func ShapeKey(q kg.Query, k int) string {
	var b strings.Builder
	vars := map[string]int{}
	term := func(t kg.Term) {
		if t.IsVar {
			i, ok := vars[t.Name]
			if !ok {
				i = len(vars)
				vars[t.Name] = i
			}
			b.WriteByte('v')
			b.WriteString(strconv.Itoa(i))
		} else {
			b.WriteByte('#')
			b.WriteString(strconv.FormatUint(uint64(t.ID), 10))
		}
		b.WriteByte(' ')
	}
	for _, p := range q.Patterns {
		term(p.S)
		term(p.P)
		term(p.O)
		b.WriteByte('.')
	}
	b.WriteString("k=")
	b.WriteString(strconv.Itoa(k))
	return b.String()
}

// TriniTPlan returns the non-speculative plan for q: every pattern is a
// singleton (all relaxations processed), matching Section 2.1.
func TriniTPlan(q kg.Query, k int) Plan {
	p := Plan{Query: q.Clone(), K: k}
	for i := range q.Patterns {
		p.Singletons = append(p.Singletons, i)
	}
	return p
}

// ExactPlan returns the relaxation-free plan for q: every pattern is in the
// join group, so execution is a pure rank join over the original patterns'
// sorted lists and the answers are the exact (unrelaxed) top-k. It is the
// cheapest of the three plan shapes — no Incremental Merge, no relaxed scans
// — which makes it the degraded tier an overloaded server falls back to.
func ExactPlan(q kg.Query, k int) Plan {
	p := Plan{Query: q.Clone(), K: k}
	for i := range q.Patterns {
		p.JoinGroup = append(p.JoinGroup, i)
	}
	return p
}
