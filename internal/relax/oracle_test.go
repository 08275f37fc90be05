package relax

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"specqp/internal/kg"
)

// oracleSet is the map-of-sorted-slices rule set the flat columns replaced:
// one weight-sorted []Rule per domain key, each rule whole. It is the model
// the RuleSet oracle test holds the columns to.
type oracleSet map[kg.PatternKey][]Rule

func (o oracleSet) add(r Rule) {
	k := r.From.Key()
	list := append(o[k], r)
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].Weight != list[j].Weight {
			return list[i].Weight > list[j].Weight
		}
		return cmpKey(list[i].To.Key(), list[j].To.Key()) < 0
	})
	o[k] = list
}

func (o oracleSet) len() int {
	n := 0
	for _, l := range o {
		n += len(l)
	}
	return n
}

func (o oracleSet) maxFanout() int {
	m := 0
	for _, l := range o {
		m = max(m, len(l))
	}
	return m
}

// oracleApply is the positional renaming over the whole rule, domain
// included, that Apply replaced.
func oracleApply(r Rule, p kg.Pattern) kg.Pattern {
	rename := func(tgt, from, orig kg.Term) kg.Term {
		if tgt.IsVar && from.IsVar && orig.IsVar {
			return orig
		}
		return tgt
	}
	return kg.NewPattern(rename(r.To.S, r.From.S, p.S), rename(r.To.P, r.From.P, p.P), rename(r.To.O, r.From.O, p.O))
}

// enumerate lists every relaxed query by brute force: all choice vectors in
// lexicographic order (original first, then the domain's rules in order),
// stably sorted by the number of relaxed patterns, then cut at limit.
func (o oracleSet) enumerate(q kg.Query, limit int) []RelaxedQuery {
	var out []RelaxedQuery
	var rec func(i int, rq RelaxedQuery)
	rec = func(i int, rq RelaxedQuery) {
		if i == len(q.Patterns) {
			out = append(out, rq)
			return
		}
		p := q.Patterns[i]
		next := func(ps []kg.Pattern, ws []float64, w float64, rule int) {
			c := RelaxedQuery{
				Query:          kg.Query{Patterns: append(slices.Clone(rq.Query.Patterns), ps...)},
				Applied:        append(slices.Clone(rq.Applied), rule),
				Weight:         rq.Weight * w,
				PatternWeights: append(slices.Clone(rq.PatternWeights), ws...),
			}
			rec(i+1, c)
		}
		next([]kg.Pattern{p}, []float64{1}, 1, -1)
		for ri, r := range o[p.Key()] {
			if r.IsChain() {
				chain := ApplyChain(r, p)
				ws := make([]float64, len(chain))
				for ci := range ws {
					ws[ci] = r.Weight / float64(len(chain))
				}
				next(chain, ws, r.Weight, ri)
				continue
			}
			next([]kg.Pattern{oracleApply(r, p)}, []float64{r.Weight}, r.Weight, ri)
		}
	}
	rec(0, RelaxedQuery{Weight: 1, Applied: []int{}, PatternWeights: []float64{}, Query: kg.Query{Patterns: []kg.Pattern{}}})
	relaxed := func(rq RelaxedQuery) int {
		n := 0
		for _, a := range rq.Applied {
			if a >= 0 {
				n++
			}
		}
		return n
	}
	slices.SortStableFunc(out, func(a, b RelaxedQuery) int { return relaxed(a) - relaxed(b) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// writeTSV is the old serialisation: every plain rule as written, sorted.
func (o oracleSet) writeTSV(d *kg.Dict) string {
	term := func(t kg.Term) string {
		if t.IsVar {
			return "?" + t.Name
		}
		return d.Decode(t.ID)
	}
	var lines []string
	for _, l := range o {
		for _, r := range l {
			if !r.IsChain() {
				lines = append(lines, strings.Join([]string{
					term(r.From.S), term(r.From.P), term(r.From.O),
					term(r.To.S), term(r.To.P), term(r.To.O),
					strconv.FormatFloat(r.Weight, 'g', -1, 64)}, "\t"))
			}
		}
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	return b.String()
}

// randomRuleSet builds a rule set and its oracle from seed: few constants
// so domains collide, a small weight alphabet so weights tie, domains and
// targets with renamed and repeated variables, and chain rules. It also
// returns the patterns to probe: every domain under fresh variable names,
// and patterns no rule relaxes.
func randomRuleSet(t *testing.T, seed uint64, d *kg.Dict) (*RuleSet, oracleSet, []kg.Pattern) {
	rng := rand.New(rand.NewPCG(seed, 39))
	consts := make([]kg.ID, 6)
	for i := range consts {
		consts[i] = d.Encode(fmt.Sprintf("c%d", i))
	}
	names := []string{"s", "x", "y", "o"}
	term := func(varProb float64) kg.Term {
		if rng.Float64() < varProb {
			return kg.Var(names[rng.IntN(len(names))])
		}
		return kg.Const(consts[rng.IntN(len(consts))])
	}
	pattern := func() kg.Pattern { return kg.NewPattern(term(0.5), term(0.15), term(0.5)) }
	weights := []float64{0.25, 0.5, 0.5, 0.75, 1, rng.Float64()*0.9 + 0.05}

	rs, o := NewRuleSet(), oracleSet{}
	var probes []kg.Pattern
	domains := make([]kg.Pattern, 1+rng.IntN(8))
	for i := range domains {
		domains[i] = pattern()
	}
	for n := rng.IntN(60); n >= 0; n-- {
		from := domains[rng.IntN(len(domains))]
		// A domain under other variable names shares its key.
		for _, pos := range []*kg.Term{&from.S, &from.P, &from.O} {
			if pos.IsVar && rng.IntN(3) == 0 {
				*pos = kg.Var(names[rng.IntN(len(names))])
			}
		}
		r := Rule{From: from, To: pattern(), Weight: weights[rng.IntN(len(weights))]}
		if vs := from.Vars(); len(vs) > 0 && rng.IntN(5) == 0 {
			// A chain binding every domain variable through a fresh ?m.
			first := vs[0]
			last := vs[len(vs)-1]
			r.To = kg.Pattern{}
			r.Chain = []kg.Pattern{
				kg.NewPattern(kg.Var(first), kg.Const(consts[rng.IntN(len(consts))]), kg.Var("m")),
				kg.NewPattern(kg.Var("m"), kg.Const(consts[rng.IntN(len(consts))]), kg.Var(last)),
			}
		}
		if err := rs.Add(r); err != nil {
			if r.Validate() == nil {
				t.Fatalf("Add rejected a valid rule: %v", err)
			}
			continue
		}
		o.add(r)
		probes = append(probes, from)
	}
	for _, dom := range domains {
		probes = append(probes, dom)
		renamed := dom
		for _, pos := range []*kg.Term{&renamed.S, &renamed.P, &renamed.O} {
			if pos.IsVar {
				*pos = kg.Var("q_" + pos.Name)
			}
		}
		probes = append(probes, renamed)
	}
	for i := 0; i < 4; i++ {
		probes = append(probes, pattern())
	}
	return rs, o, probes
}

// checkAgainstOracle asserts that rs answers every read as the oracle does.
func checkAgainstOracle(t *testing.T, rs *RuleSet, o oracleSet, probes []kg.Pattern, d *kg.Dict, rng *rand.Rand) {
	t.Helper()
	if rs.Len() != o.len() || rs.MaxFanout() != o.maxFanout() {
		t.Fatalf("Len/MaxFanout = %d/%d, oracle %d/%d", rs.Len(), rs.MaxFanout(), o.len(), o.maxFanout())
	}
	for _, p := range probes {
		got, want := rs.For(p), o[p.Key()]
		if len(got) != len(want) {
			t.Fatalf("For(%v): %d rules, oracle %d", p, len(got), len(want))
		}
		for i, e := range got {
			w := want[i]
			if !reflect.DeepEqual(e.To, w.To) || e.Weight != w.Weight || e.IsChain() != w.IsChain() {
				t.Fatalf("For(%v)[%d] = %v w=%v, oracle %v w=%v", p, i, e.To, e.Weight, w.To, w.Weight)
			}
			if r := rs.Rule(p, e); !reflect.DeepEqual(r, w) {
				t.Fatalf("Rule(%v, For[%d]) = %+v, oracle %+v", p, i, r, w)
			}
			if !e.IsChain() && Apply(e.To, p) != oracleApply(w, p) {
				t.Fatalf("Apply(For(%v)[%d]) = %v, oracle %v", p, i, Apply(e.To, p), oracleApply(w, p))
			}
		}
		top, ok := rs.Top(p)
		if ok != (len(want) > 0) || ok && !reflect.DeepEqual(top, want[0]) {
			t.Fatalf("Top(%v) = %+v %v, oracle %v", p, top, ok, want)
		}
	}
	for i := 0; i < 8; i++ {
		q, space := kg.NewQuery(), 1
		for n := 1 + rng.IntN(3); n > 0; n-- {
			p := probes[rng.IntN(len(probes))]
			if space *= 1 + len(o[p.Key()]); space > 300 && len(q.Patterns) > 0 {
				break
			}
			q.Patterns = append(q.Patterns, p)
		}
		limit := []int{0, 0, 1, 3, 7}[rng.IntN(5)]
		got, want := rs.Enumerate(q, limit), o.enumerate(q, limit)
		if len(got) != len(want) {
			t.Fatalf("Enumerate(%v, %d): %d queries, oracle %d", q, limit, len(got), len(want))
		}
		for j := range got {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("Enumerate(%v, %d)[%d] = %+v, oracle %+v", q, limit, j, got[j], want[j])
			}
		}
	}
	var buf bytes.Buffer
	if err := rs.WriteTSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	if want := o.writeTSV(d); buf.String() != want {
		t.Fatalf("WriteTSV:\n%s\noracle:\n%s", buf.String(), want)
	}
}

// TestRuleSetMatchesOracle holds the flat columns to the map-of-sorted-
// slices model on random rule sets: For (order, targets, weights), Rule,
// Top, Len, MaxFanout, Enumerate, the bytes WriteTSV writes, and the same
// again after reading those bytes back.
func TestRuleSetMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		d := kg.NewDict()
		rs, o, probes := randomRuleSet(t, seed, d)
		rng := rand.New(rand.NewPCG(seed, 1))
		checkAgainstOracle(t, rs, o, probes, d, rng)

		var buf bytes.Buffer
		if err := rs.WriteTSV(&buf, d); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTSV(bytes.NewReader(buf.Bytes()), d)
		if err != nil {
			t.Fatalf("seed %d: read-back: %v", seed, err)
		}
		// The read-back's model: the written lines added in file order.
		reread := oracleSet{}
		for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
			if line != "" {
				reread.add(oracleParse(t, line, d))
			}
		}
		checkAgainstOracle(t, back, reread, probes, d, rng)
	}
}

// oracleParse reads one WriteTSV line back into a rule.
func oracleParse(t *testing.T, line string, d *kg.Dict) Rule {
	t.Helper()
	f := strings.Split(line, "\t")
	if len(f) != 7 {
		t.Fatalf("line %q: %d fields", line, len(f))
	}
	term := func(s string) kg.Term {
		if name, ok := strings.CutPrefix(s, "?"); ok {
			return kg.Var(name)
		}
		return kg.Const(d.Encode(s))
	}
	w, err := strconv.ParseFloat(f[6], 64)
	if err != nil {
		t.Fatal(err)
	}
	return Rule{
		From:   kg.NewPattern(term(f[0]), term(f[1]), term(f[2])),
		To:     kg.NewPattern(term(f[3]), term(f[4]), term(f[5])),
		Weight: w,
	}
}

// TestRuleSetAddAfterRead: an Add after reads re-sorts the columns, and a
// sub-slice For returned before stays what it was.
func TestRuleSetAddAfterRead(t *testing.T) {
	d := kg.NewDict()
	rs := NewRuleSet()
	from := pat(d, "s", "type", "singer")
	mustAdd(t, rs, Rule{From: from, To: pat(d, "s", "type", "artist"), Weight: 0.4})
	before := rs.For(from)
	mustAdd(t, rs, Rule{From: from, To: pat(d, "s", "type", "vocalist"), Weight: 0.9})
	after := rs.For(from)
	if len(before) != 1 || before[0].Weight != 0.4 {
		t.Fatalf("earlier For result changed: %+v", before)
	}
	if len(after) != 2 || after[0].Weight != 0.9 || after[1].Weight != 0.4 {
		t.Fatalf("after a second Add: %+v", after)
	}
}

// TestRuleSetConcurrentFirstRead: readers racing on the first read after
// Adds sort the staged rules once and all see the sorted columns.
func TestRuleSetConcurrentFirstRead(t *testing.T) {
	d := kg.NewDict()
	rs := NewRuleSet()
	from := pat(d, "s", "type", "singer")
	const n = 200
	for i := 0; i < n; i++ {
		mustAdd(t, rs, Rule{From: from, To: pat(d, "s", "type", fmt.Sprint(i)), Weight: float64(1+i%7) / 8})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := rs.For(pat(d, "x", "type", "singer"))
			if len(got) != n || rs.Len() != n {
				t.Errorf("concurrent first read: %d rules, Len %d, want %d", len(got), rs.Len(), n)
				return
			}
			for i := 1; i < n; i++ {
				if got[i].Weight > got[i-1].Weight {
					t.Errorf("rules not sorted by weight at %d", i)
					return
				}
			}
			if top, ok := rs.Top(from); !ok || top.Weight != got[0].Weight {
				t.Errorf("Top = %v %v, For[0] weight %v", top.Weight, ok, got[0].Weight)
			}
		}()
	}
	wg.Wait()
}

func TestRuleSetForZeroAllocs(t *testing.T) {
	d := kg.NewDict()
	rs := NewRuleSet()
	from := pat(d, "s", "type", "singer")
	mustAdd(t, rs, Rule{From: from, To: pat(d, "s", "type", "vocalist"), Weight: 0.8})
	hit, miss := pat(d, "x", "type", "singer"), pat(d, "x", "type", "pianist")
	rs.For(hit)
	var n int
	if allocs := testing.AllocsPerRun(100, func() { n += len(rs.For(hit)) + len(rs.For(miss)) }); allocs != 0 {
		t.Fatalf("For allocates %.1f times per call pair, want 0", allocs)
	}
}
