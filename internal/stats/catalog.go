package stats

import (
	"sync"

	"specqp/internal/kg"
)

// Catalog caches per-pattern score statistics (the paper's precomputed
// metadata) and exposes query-level distribution estimation. It is safe for
// concurrent use after construction.
type Catalog struct {
	store kg.Graph
	// Buckets selects the histogram resolution: 2 reproduces the paper's
	// model; larger values enable the multi-bucket ablation.
	buckets int

	mu         sync.RWMutex
	cache      map[kg.PatternKey]cachedStats
	countCache map[string]int
	// version is the store content version (kg.Graph.Version) the caches
	// reflect; live inserts move it, and syncVersion discards everything
	// computed against older contents.
	version uint64

	// Counter supplies join cardinalities. The paper uses exact counts
	// (footnote 3); EstimatedCounter enables the selectivity ablation.
	counter Counter
}

type cachedStats struct {
	dist PiecewiseConst
	m    int
	ok   bool
}

// Counter estimates or computes the number of answers of a query.
type Counter interface {
	QueryCount(q kg.Query) int
}

// ExactCounter computes exact join cardinalities with kg.Count — the
// configuration the paper evaluates.
type ExactCounter struct{ Store kg.Graph }

// QueryCount implements Counter.
func (c ExactCounter) QueryCount(q kg.Query) int { return kg.Count(c.Store, q) }

// EstimatedCounter estimates join cardinality under the classic
// independence/containment assumption: the product of pattern cardinalities
// divided, per shared variable occurrence, by the number of distinct values
// that variable can take in the joined patterns' relevant position.
type EstimatedCounter struct{ Store kg.Graph }

// QueryCount implements Counter.
func (c EstimatedCounter) QueryCount(q kg.Query) int {
	if len(q.Patterns) == 0 {
		return 0
	}
	est := 1.0
	for _, p := range q.Patterns {
		card := c.Store.Cardinality(p)
		if card == 0 {
			return 0
		}
		est *= float64(card)
	}
	// For each variable appearing in j >= 2 patterns, divide by the
	// (j-1)-th power of the max distinct-value count among its occurrences.
	occ := map[string][]int{}
	for i, p := range q.Patterns {
		for _, v := range p.Vars() {
			occ[v] = append(occ[v], i)
		}
	}
	for v, idxs := range occ {
		if len(idxs) < 2 {
			continue
		}
		maxDistinct := 1
		for _, i := range idxs {
			d := c.distinctValues(q.Patterns[i], v)
			if d > maxDistinct {
				maxDistinct = d
			}
		}
		for j := 1; j < len(idxs); j++ {
			est /= float64(maxDistinct)
		}
	}
	if est < 0 {
		return 0
	}
	return int(est + 0.5)
}

func (c EstimatedCounter) distinctValues(p kg.Pattern, v string) int {
	seen := map[kg.ID]bool{}
	cur := c.Store.Matches(p)
	for ti, ok := cur.Next(); ok; ti, ok = cur.Next() {
		t := c.Store.Triple(ti)
		if p.S.IsVar && p.S.Name == v {
			seen[t.S] = true
		}
		if p.P.IsVar && p.P.Name == v {
			seen[t.P] = true
		}
		if p.O.IsVar && p.O.Name == v {
			seen[t.O] = true
		}
	}
	if len(seen) == 0 {
		return 1
	}
	return len(seen)
}

// NewCatalog builds a catalog over st using bucket resolution buckets
// (use 2 for the paper's model) and the given cardinality counter (nil means
// exact counting, as in the paper).
func NewCatalog(st kg.Graph, buckets int, counter Counter) *Catalog {
	if buckets < 2 {
		buckets = 2
	}
	if counter == nil {
		counter = ExactCounter{Store: st}
	}
	return &Catalog{
		store:      st,
		buckets:    buckets,
		cache:      make(map[kg.PatternKey]cachedStats),
		countCache: make(map[string]int),
		counter:    counter,
	}
}

// queryKey builds a canonical cache key covering constants and variable
// wiring (variables are numbered in first-use order so renamings collide,
// which is correct: counts are invariant under variable renaming).
func queryKey(q kg.Query) string {
	vs := kg.NewVarSet(q)
	buf := make([]byte, 0, len(q.Patterns)*15)
	emit := func(t kg.Term) {
		if t.IsVar {
			buf = append(buf, 0xFF, byte(vs.Index(t.Name)))
			return
		}
		buf = append(buf, 0, byte(t.ID), byte(t.ID>>8), byte(t.ID>>16), byte(t.ID>>24))
	}
	for _, p := range q.Patterns {
		emit(p.S)
		emit(p.P)
		emit(p.O)
	}
	return string(buf)
}

// Store returns the underlying triple store.
func (c *Catalog) Store() kg.Graph { return c.store }

// syncVersion discards every cached statistic when the store has been
// mutated since it was computed (live ingest moves Graph.Version on each
// insert; compactions do not, since contents are unchanged). It returns the
// version new entries should be tagged against: writers only publish results
// computed at the still-current version, so a mutation racing a computation
// can at worst drop a cacheable result, never retain a stale one past the
// next sync.
func (c *Catalog) syncVersion() uint64 {
	v := c.store.Version()
	c.mu.RLock()
	cur := c.version
	c.mu.RUnlock()
	if cur == v {
		return v
	}
	c.mu.Lock()
	// Advance only: a goroutine carrying a stale version read (the store
	// moved between its Version() load and this lock) must not rewind the
	// catalog, or its tag would re-admit writes computed from pre-mutation
	// contents.
	if c.version < v {
		c.version = v
		clear(c.cache)
		clear(c.countCache)
	}
	c.mu.Unlock()
	return v
}

// Buckets returns the histogram resolution.
func (c *Catalog) Buckets() int { return c.buckets }

// PatternDist returns the bucket-histogram density of the pattern's
// normalised scores and the match count. ok is false when the pattern has no
// (non-zero-scored) matches.
func (c *Catalog) PatternDist(p kg.Pattern) (PiecewiseConst, int, bool) {
	v := c.syncVersion()
	key := p.Key()
	c.mu.RLock()
	if cs, hit := c.cache[key]; hit {
		c.mu.RUnlock()
		return cs.dist, cs.m, cs.ok
	}
	c.mu.RUnlock()

	scores := kg.NormalizedScores(c.store, p)
	var cs cachedStats
	cs.m = len(scores)
	if c.buckets == 2 {
		if ps, err := FitTwoBucket(scores); err == nil {
			cs.dist, cs.ok = ps.Dist(), true
		}
	} else {
		if d, err := FitNBucket(scores, c.buckets); err == nil {
			cs.dist, cs.ok = d, true
		}
	}
	c.mu.Lock()
	if c.version == v {
		c.cache[key] = cs
	}
	c.mu.Unlock()
	return cs.dist, cs.m, cs.ok
}

// QueryEstimate is the estimator's view of one query: the (convolved) score
// density of its answers and the estimated number of answers.
type QueryEstimate struct {
	Dist Dist
	N    int
}

// QueryCount returns the (exact or estimated, per the configured Counter)
// number of answers of q, caching results across repeated plans.
func (c *Catalog) QueryCount(q kg.Query) int {
	v := c.syncVersion()
	key := queryKey(q)
	c.mu.RLock()
	n, hit := c.countCache[key]
	c.mu.RUnlock()
	if hit {
		return n
	}
	n = c.counter.QueryCount(q)
	c.mu.Lock()
	if c.version == v {
		c.countCache[key] = n
	}
	c.mu.Unlock()
	return n
}

// Selectivity returns the join selectivity φ of q under the configured
// Counter: QueryCount(q) / ∏ per-pattern cardinalities; 0 when any pattern
// is empty.
func (c *Catalog) Selectivity(q kg.Query) float64 {
	prod := 1.0
	for _, p := range q.Patterns {
		card := c.store.Cardinality(p)
		if card == 0 {
			return 0
		}
		prod *= float64(card)
	}
	return float64(c.QueryCount(q)) / prod
}

// EstimateQueryN builds the score distribution for a triple pattern query
// per Section 3.1.2 — convolving the per-pattern densities, each optionally
// scaled by a relaxation weight (1 or a zero value means unrelaxed) — with an
// externally supplied answer-count estimate n (the paper's m12 = m·m′·φ).
// ok is false when any pattern has no matches or n == 0.
//
// weights may be nil (all 1) or have len(q.Patterns) entries.
func (c *Catalog) EstimateQueryN(q kg.Query, weights []float64, n int) (QueryEstimate, bool) {
	if n <= 0 {
		return QueryEstimate{}, false
	}
	ds := make([]PiecewiseConst, 0, len(q.Patterns))
	for i, p := range q.Patterns {
		d, _, ok := c.PatternDist(p)
		if !ok {
			return QueryEstimate{}, false
		}
		w := 1.0
		if weights != nil && weights[i] > 0 {
			w = weights[i]
		}
		if w != 1 {
			d = d.Scale(w)
		}
		ds = append(ds, d)
	}
	return QueryEstimate{Dist: ConvolveAll(ds, c.buckets), N: n}, true
}

// EstimateQuery is EstimateQueryN with n taken from the cardinality counter.
func (c *Catalog) EstimateQuery(q kg.Query, weights []float64) (QueryEstimate, bool) {
	return c.EstimateQueryN(q, weights, c.QueryCount(q))
}

// ExpectedScoreAtRank estimates the expected score of the rank-i answer
// (rank 1 = best) of query q under the per-pattern relaxation weights.
// It returns 0, false when the query is estimated to have < i answers.
func (c *Catalog) ExpectedScoreAtRank(q kg.Query, weights []float64, i int) (float64, bool) {
	est, ok := c.EstimateQuery(q, weights)
	if !ok || est.N < i {
		return 0, false
	}
	return ExpectedAtRank(est.Dist, est.N, i), true
}

// ExpectedScoreAtRankN is ExpectedScoreAtRank with an external answer count.
func (c *Catalog) ExpectedScoreAtRankN(q kg.Query, weights []float64, n, i int) (float64, bool) {
	est, ok := c.EstimateQueryN(q, weights, n)
	if !ok || est.N < i {
		return 0, false
	}
	return ExpectedAtRank(est.Dist, est.N, i), true
}
