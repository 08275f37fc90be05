package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"specqp/internal/kg"
	"specqp/internal/relax"
)

// XKGConfig parameterises the XKG-style generator. Zero values select
// paper-shaped defaults.
type XKGConfig struct {
	Seed          int64
	Entities      int // default 20000
	Groups        int // type groups, default 8
	TypesPerGroup int // default 14 (≥11 so every type has ≥10 relaxations)
	Queries       int // default 65
	// RelationTriples adds this many extra entity–predicate–entity triples
	// for realism and for the SPARQL examples. Default 20000.
	RelationTriples int
	// ScoreAlpha is the power-law exponent of triple scores. Default 1.1.
	ScoreAlpha float64
}

func (c *XKGConfig) defaults() {
	if c.Entities == 0 {
		c.Entities = 20000
	}
	if c.Groups == 0 {
		c.Groups = 8
	}
	if c.TypesPerGroup == 0 {
		c.TypesPerGroup = 14
	}
	if c.Queries == 0 {
		c.Queries = 65
	}
	if c.RelationTriples == 0 {
		c.RelationTriples = 20000
	}
	if c.ScoreAlpha == 0 {
		c.ScoreAlpha = 1.1
	}
}

// XKG generates the XKG-style dataset: a typed entity graph with a two-level
// type taxonomy per group, Zipf triple scores, varied-weight relaxation rules
// between related types (≥10 per type), and 65 star-join queries of 2–4
// patterns guaranteed non-empty.
func XKG(cfg XKGConfig) (*Dataset, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := kg.NewStore(nil)
	dict := st.Dict()
	typePred := dict.Encode("rdf:type")

	// Type vocabulary: Groups × TypesPerGroup leaf types plus one root per
	// group. Types in the same group are relaxation neighbours.
	type typeInfo struct {
		id    kg.ID
		group int
	}
	var types []typeInfo
	groupRoot := make([]kg.ID, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		groupRoot[g] = dict.Encode(fmt.Sprintf("type:g%d:root", g))
		for t := 0; t < cfg.TypesPerGroup; t++ {
			id := dict.Encode(fmt.Sprintf("type:g%d:t%d", g, t))
			types = append(types, typeInfo{id: id, group: g})
		}
	}

	// Entity typing: every entity belongs to one primary group and gets 2–4
	// leaf types from it (so star queries over one group have answers), and
	// with probability 0.3 one extra type from another group.
	entityTypes := make([][]kg.ID, cfg.Entities)
	rootOf := make([]kg.ID, cfg.Entities) // kg.NoID when the entity has no root typing
	var typeTriples int
	for e := 0; e < cfg.Entities; e++ {
		rootOf[e] = kg.NoID
		g := rng.Intn(cfg.Groups)
		k := 2 + rng.Intn(3)
		base := g * cfg.TypesPerGroup
		for _, off := range pickDistinctZipf(rng, cfg.TypesPerGroup, k, 0.8) {
			ti := types[base+off]
			entityTypes[e] = append(entityTypes[e], ti.id)
			typeTriples++
		}
		if rng.Float64() < 0.3 {
			g2 := (g + 1 + rng.Intn(cfg.Groups-1)) % cfg.Groups
			ti := types[g2*cfg.TypesPerGroup+rng.Intn(cfg.TypesPerGroup)]
			entityTypes[e] = append(entityTypes[e], ti.id)
			typeTriples++
		}
		// Half the entities also carry their group-root type, so root
		// relaxations have matches.
		if rng.Float64() < 0.5 {
			rootOf[e] = groupRoot[g]
			typeTriples++
		}
	}

	// Scores: the paper's XKG scores YAGO triples by the number of inlinks
	// of the subject entity — i.e. all of an entity's triples share one
	// popularity-driven score. Model that with per-entity Zipf "fame" plus
	// mild per-triple noise (textual triples in XKG carried their own
	// extraction counts, hence the noise).
	fame := zipfScores(rng, cfg.Entities, 100000, cfg.ScoreAlpha)
	score := func(e int) float64 {
		s := fame[e] * (0.8 + rng.Float64()*0.45)
		if s < 1 {
			s = 1
		}
		return s
	}
	_ = typeTriples
	for e := 0; e < cfg.Entities; e++ {
		ent := dict.Encode(fmt.Sprintf("entity:e%d", e))
		for _, ty := range entityTypes[e] {
			if err := st.Add(kg.Triple{S: ent, P: typePred, O: ty, Score: score(e)}); err != nil {
				return nil, err
			}
		}
		if rootOf[e] != kg.NoID {
			if err := st.Add(kg.Triple{S: ent, P: typePred, O: rootOf[e], Score: score(e)}); err != nil {
				return nil, err
			}
		}
	}

	// Relation triples for realism (not used by the star workload, but they
	// exercise the indexes and the SPARQL examples).
	preds := []kg.ID{
		dict.Encode("collaboratesWith"),
		dict.Encode("influencedBy"),
		dict.Encode("memberOf"),
	}
	relScores := zipfScores(rng, cfg.RelationTriples, 50000, cfg.ScoreAlpha)
	for i := 0; i < cfg.RelationTriples; i++ {
		s := dict.Encode(fmt.Sprintf("entity:e%d", rng.Intn(cfg.Entities)))
		o := dict.Encode(fmt.Sprintf("entity:e%d", rng.Intn(cfg.Entities)))
		p := preds[rng.Intn(len(preds))]
		if err := st.Add(kg.Triple{S: s, P: p, O: o, Score: relScores[i]}); err != nil {
			return nil, err
		}
	}
	st.Freeze()

	// Relaxation rules: for each leaf type, rules to every sibling in its
	// group and to the group root — ≥ TypesPerGroup ≥ 14 rules per type.
	// Rule strength is heterogeneous across types: each type draws a
	// "relaxability" ρ ∈ [0.35, 0.95] (how semantically close its best
	// substitutes are — mined rule sets show exactly this spread) and its
	// sibling weights are ρ·U[0.55,1.0]. Types with low ρ rarely benefit
	// from relaxation, which is what gives the speculative planner patterns
	// it can safely keep in the join group.
	rules := relax.NewRuleSet()
	for _, ti := range types {
		from := kg.NewPattern(kg.Var("s"), kg.Const(typePred), kg.Const(ti.id))
		rho := 0.35 + rng.Float64()*0.60
		base := ti.group * cfg.TypesPerGroup
		for t := 0; t < cfg.TypesPerGroup; t++ {
			sib := types[base+t]
			if sib.id == ti.id {
				continue
			}
			w := rho * (0.55 + rng.Float64()*0.45)
			if w > 0.95 {
				w = 0.95
			}
			err := rules.Add(relax.Rule{
				From:   from,
				To:     kg.NewPattern(kg.Var("s"), kg.Const(typePred), kg.Const(sib.id)),
				Weight: w,
			})
			if err != nil {
				return nil, err
			}
		}
		w := rho * 0.6
		err := rules.Add(relax.Rule{
			From:   from,
			To:     kg.NewPattern(kg.Var("s"), kg.Const(typePred), kg.Const(groupRoot[ti.group])),
			Weight: w,
		})
		if err != nil {
			return nil, err
		}
	}
	ds := &Dataset{Name: "xkg", Store: st, Rules: rules}

	// Queries: star joins ?s rdf:type T1 . ?s rdf:type T2 [...]. We anchor
	// each query on an entity so the original query is non-empty, and bias
	// toward type combinations with few common members so relaxations are
	// frequently required for top-k — matching Table 3, where nearly every
	// paper query needed some relaxation.
	// Distribute cfg.Queries across pattern counts in the paper's 20/25/20
	// proportions.
	counts := []int{2, 3, 4}
	perCount := []int{
		cfg.Queries * 20 / 65,
		cfg.Queries * 25 / 65,
		0,
	}
	perCount[2] = cfg.Queries - perCount[0] - perCount[1]
	qi := 0
	for ci, tp := range counts {
		// Stratify the workload: roughly half "scarce" queries (fewer than
		// ~k answers, forcing relaxations of most patterns — the regime
		// dominating the paper's Table 3) and half "plentiful" queries
		// (comfortably more than k answers, where speculation can prune).
		scarceWant := perCount[ci] / 3
		plentyWant := perCount[ci] - scarceWant
		// Larger stars are sparser; lower the "plentiful" bar with #TP, and
		// scale it with dataset density so small test configurations still
		// find plentiful combinations.
		plentyMin := map[int]int{2: 40, 3: 30, 4: 22}[tp]
		if scaled := plentyMin * cfg.Entities / 20000; scaled < plentyMin {
			plentyMin = scaled
		}
		if plentyMin < 13 {
			plentyMin = 13
		}
		scarce, plenty := 0, 0
		attempts := 0
		for scarce+plenty < perCount[ci] && attempts < 300000 {
			attempts++
			// Safety valve for small configurations: when half the attempt
			// budget is gone and the plentiful quota is starving, spill it
			// into the scarce quota so generation still terminates. The
			// paper-sized defaults never hit this.
			if attempts >= 150000 && plentyWant > plenty {
				scarceWant += plentyWant - plenty
				plentyWant = plenty
			}
			e := rng.Intn(cfg.Entities)
			tys := entityTypes[e]
			if len(tys) < tp {
				continue
			}
			sel := pickDistinct(rng, len(tys), tp)
			sort.Ints(sel)
			var pats []kg.Pattern
			seen := map[kg.ID]bool{}
			ok := true
			for _, s := range sel {
				ty := tys[s]
				if seen[ty] {
					ok = false
					break
				}
				seen[ty] = true
				pats = append(pats, kg.NewPattern(kg.Var("s"), kg.Const(typePred), kg.Const(ty)))
			}
			if !ok {
				continue
			}
			q := kg.NewQuery(pats...)
			n := kg.Count(st, q)
			switch {
			case n >= 1 && n < 12 && scarce < scarceWant:
				scarce++
			case n >= plentyMin && plenty < plentyWant:
				plenty++
			default:
				continue
			}
			ds.Queries = append(ds.Queries, QuerySpec{
				Name:  queryName("xkg", qi, tp),
				Query: q,
			})
			qi++
		}
		if scarce+plenty < perCount[ci] {
			return nil, fmt.Errorf("datagen: only generated %d/%d %d-pattern XKG queries (scarce=%d plenty=%d)",
				scarce+plenty, perCount[ci], tp, scarce, plenty)
		}
	}
	return ds, nil
}

// pickDistinctZipf samples k distinct indexes in [0,n) biased toward low
// indexes with exponent alpha.
func pickDistinctZipf(rng *rand.Rand, n, k int, alpha float64) []int {
	if k > n {
		k = n
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := sampleZipfIndex(rng, n, alpha)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
