package main

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"specqp"
	"specqp/internal/datagen"
	"specqp/internal/relax"
	"specqp/internal/sparql"
)

// The datasets and the hold-out split come from fixed seeds; --seed drives
// the request schedule and the mutation stream, not the graph. Measured before
// this was fixed: across dataset seeds 1–3 XKG generation takes 0.6–8 s (its
// query workload is found by rejection sampling) and the warm pass time
// differs by a quarter, so a seed-driven graph would put more run-to-run
// spread into every metric than any bound allows. See README, "What the seed
// drives".
const (
	xkgSeed     = 1
	twitterSeed = 1
	splitSeed   = 1
)

// quad is a triple in term strings: the form mutations travel in over HTTP
// and the WAL, and the only form that means the same thing to two engines
// with different dictionaries.
type quad struct {
	S, P, O string
	Score   float64
}

func (q quad) key() [3]string { return [3]string{q.S, q.P, q.O} }

// corpus is one generated dataset plus what the workloads need from it in
// dictionary-independent form.
type corpus struct {
	ds       *datagen.Dataset
	queries  []specqp.Query // the renderable workload queries, against ds.Store's dictionary
	sparql   []string       // the same queries as text, aligned with queries
	rulesTSV []byte
}

func generate(dataset string, scale float64) (*corpus, error) {
	scaled := func(n, floor int) int { return max(int(float64(n)*scale), floor) }
	var ds *datagen.Dataset
	var err error
	switch dataset {
	case "xkg":
		ds, err = datagen.XKG(datagen.XKGConfig{Seed: xkgSeed, Entities: scaled(20000, 2000), Queries: scaled(65, 13)})
	case "twitter":
		ds, err = datagen.Twitter(datagen.TwitterConfig{Seed: twitterSeed, Tweets: scaled(15000, 750), Queries: scaled(50, 10)})
	default:
		err = fmt.Errorf("unknown dataset %q", dataset)
	}
	if err != nil {
		return nil, err
	}
	c := &corpus{ds: ds}
	dict := ds.Store.Dict()
	for _, qs := range ds.Queries {
		if sparql.CanRender(qs.Query, dict) {
			c.queries = append(c.queries, qs.Query)
			c.sparql = append(c.sparql, sparql.Render(qs.Query, dict))
		}
	}
	if len(c.queries) == 0 {
		return nil, fmt.Errorf("dataset %s: no renderable queries", dataset)
	}
	var buf bytes.Buffer
	if err := ds.Rules.WriteTSV(&buf, dict); err != nil {
		return nil, fmt.Errorf("rendering rules: %w", err)
	}
	c.rulesTSV = buf.Bytes()
	return c, nil
}

// rulesFor re-encodes the corpus's relaxation rules against an engine's own
// dictionary. rs may be the (still empty) rule set the engine was opened with.
func (c *corpus) rulesFor(rs *specqp.RuleSet, eng *specqp.Engine) error {
	return relax.ReadTSVInto(rs, bytes.NewReader(c.rulesTSV), eng.Graph().Dict())
}

// quads returns the store's triples in insertion order.
func (c *corpus) quads() []quad {
	st := c.ds.Store
	d := st.Dict()
	out := make([]quad, st.Len())
	for i := range out {
		t := st.Triple(int32(i))
		out[i] = quad{d.Decode(t.S), d.Decode(t.P), d.Decode(t.O), t.Score}
	}
	return out
}

// split holds a share of the triples out of the base store; both halves
// keep insertion order.
func split(all []quad, share float64) (base, held []quad) {
	rng := rand.New(rand.NewSource(splitSeed))
	for _, q := range all {
		if rng.Float64() < share {
			held = append(held, q)
		} else {
			base = append(base, q)
		}
	}
	return
}

// flatStore builds a fresh frozen flat store from triples in order: the
// survivor oracle's store and the base of the durable engines.
func flatStore(triples []quad) (*specqp.Store, error) {
	st := specqp.NewStore()
	for _, q := range triples {
		if err := st.AddSPO(q.S, q.P, q.O, q.Score); err != nil {
			return nil, fmt.Errorf("building flat store: %w", err)
		}
	}
	st.Freeze()
	return st, nil
}

// flatEngine is the oracle: a fresh in-memory engine over exactly triples.
func (c *corpus) flatEngine(triples []quad) (*specqp.Engine, error) {
	st, err := flatStore(triples)
	if err != nil {
		return nil, err
	}
	rules := specqp.NewRuleSet()
	eng := specqp.NewEngineWith(st, rules, specqp.Options{})
	return eng, c.rulesFor(rules, eng)
}

// ---------------------------------------------------------------------------
// Mutations and the survivor model.

type mutation struct {
	Op byte // 'i' insert, 'u' update, 'd' delete
	quad
}

func (m mutation) path() string {
	switch m.Op {
	case 'i':
		return "/insert"
	case 'u':
		return "/update"
	}
	return "/delete"
}

// mutationStream draws up to n mutations, 70 % inserts of held-out triples,
// 15 % re-scores and 15 % retractions of a key live at that point. It ends
// early when the held-out triples run out. Applied in order by one writer the
// stream is deterministic, which is what lets the survivor oracle be exact.
func mutationStream(rng *rand.Rand, base, held []quad, n int) []mutation {
	var live [][3]string
	at := map[[3]string]int{}
	add := func(k [3]string) {
		if _, ok := at[k]; !ok {
			at[k] = len(live)
			live = append(live, k)
		}
	}
	for _, q := range base {
		add(q.key())
	}
	out := make([]mutation, 0, n)
	for len(out) < n {
		r := rng.Float64()
		if r < 0.70 || len(live) == 0 {
			if len(held) == 0 {
				break
			}
			out = append(out, mutation{'i', held[0]})
			add(held[0].key())
			held = held[1:]
			continue
		}
		i := rng.Intn(len(live))
		k := live[i]
		if r < 0.85 {
			out = append(out, mutation{'u', quad{k[0], k[1], k[2], float64(1 + rng.Intn(5000))}})
			continue
		}
		out = append(out, mutation{'d', quad{k[0], k[1], k[2], 0}})
		last := live[len(live)-1]
		live[i], at[last] = last, i
		live = live[:len(live)-1]
		delete(at, k)
	}
	return out
}

// survivors replays mutations against an ordered fact list with the store's
// semantics — a delete retracts every copy of the key, an update retracts
// every copy and appends one — to produce the triples a flat store must be
// rebuilt from.
type survivors struct {
	facts []quad
	dead  []bool
	byKey map[[3]string][]int
}

func newSurvivors(base []quad) *survivors {
	m := &survivors{byKey: map[[3]string][]int{}}
	for _, q := range base {
		m.insert(q)
	}
	return m
}

func (m *survivors) insert(q quad) {
	m.byKey[q.key()] = append(m.byKey[q.key()], len(m.facts))
	m.facts = append(m.facts, q)
	m.dead = append(m.dead, false)
}

func (m *survivors) retract(k [3]string) int {
	n := len(m.byKey[k])
	for _, i := range m.byKey[k] {
		m.dead[i] = true
	}
	delete(m.byKey, k)
	return n
}

func (m *survivors) apply(mu mutation) {
	switch mu.Op {
	case 'i':
		m.insert(mu.quad)
	case 'u':
		m.retract(mu.key())
		m.insert(mu.quad)
	case 'd':
		m.retract(mu.key())
	}
}

func (m *survivors) live() []quad {
	out := make([]quad, 0, len(m.facts))
	for i, q := range m.facts {
		if !m.dead[i] {
			out = append(out, q)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Answers in a form two engines (or an engine and an HTTP response) can be
// compared in.

// wireAnswer mirrors the server's answer JSON.
type wireAnswer struct {
	Binding map[string]string `json:"binding"`
	Score   float64           `json:"score"`
	Relaxed uint32            `json:"relaxed,omitempty"`
}

func decodeAnswers(eng *specqp.Engine, q specqp.Query, as []specqp.Answer) []wireAnswer {
	out := make([]wireAnswer, len(as))
	for i, a := range as {
		out[i] = wireAnswer{eng.DecodeAnswer(q, a), a.Score, a.Relaxed}
	}
	return out
}

// sameWire is bit-identity on decoded answers: same order, same bindings,
// same score bits, same relaxation provenance.
func sameWire(a, b []wireAnswer) bool {
	return slices.EqualFunc(a, b, func(x, y wireAnswer) bool {
		return x.Score == y.Score && x.Relaxed == y.Relaxed && maps.Equal(x.Binding, y.Binding)
	})
}

// sameUpToTies compares the top-k of two engines that do not share a
// dictionary. Answers with exactly equal scores have no defined order between
// such engines — the operators break ties by dictionary ID, which is the order
// terms were first seen in — so each run of equal scores must hold the same
// answers in any order, and a run cut off by k need only be as long.
func sameUpToTies(a, b []wireAnswer, k int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); {
		j := i
		for j < len(a) && a[j].Score == a[i].Score {
			j++
		}
		ka, kb := make([]string, 0, j-i), make([]string, 0, j-i)
		for n := i; n < j; n++ {
			if b[n].Score != a[i].Score {
				return false
			}
			ka, kb = append(ka, a[n].canonical()), append(kb, b[n].canonical())
		}
		if cut := j == len(a) && len(a) == k; !cut {
			sort.Strings(ka)
			sort.Strings(kb)
			if !slices.Equal(ka, kb) {
				return false
			}
		}
		i = j
	}
	return true
}

func (a wireAnswer) canonical() string {
	vars := make([]string, 0, len(a.Binding))
	for v := range a.Binding {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var sb strings.Builder
	for _, v := range vars {
		fmt.Fprintf(&sb, "%s=%s ", v, a.Binding[v])
	}
	fmt.Fprintf(&sb, "relaxed=%b", a.Relaxed)
	return sb.String()
}

// sameRaw is bit-identity on one engine's own answers, without decoding.
func sameRaw(a, b []specqp.Answer) bool {
	return slices.EqualFunc(a, b, func(x, y specqp.Answer) bool {
		return x.Score == y.Score && x.Relaxed == y.Relaxed && slices.Equal(x.Binding, y.Binding)
	})
}
