package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"specqp/internal/kg"
	"specqp/internal/relax"
)

// TwitterConfig parameterises the Twitter-style generator. Zero values select
// paper-shaped defaults.
type TwitterConfig struct {
	Seed   int64
	Tweets int // default 15000
	Terms  int // default 400
	// TermsPerTweet bounds the number of hashtag/term triples per tweet.
	MinTermsPerTweet int // default 3
	MaxTermsPerTweet int // default 8
	Queries          int // default 50
	// ScoreAlpha is the power-law exponent of retweet counts. Default 1.0.
	ScoreAlpha float64
	// TopicCount clusters terms into topics so co-occurrence (and therefore
	// relaxation weights) has structure. Default 25.
	TopicCount int
}

func (c *TwitterConfig) defaults() {
	if c.Tweets == 0 {
		c.Tweets = 15000
	}
	if c.Terms == 0 {
		c.Terms = 400
	}
	if c.MinTermsPerTweet == 0 {
		c.MinTermsPerTweet = 3
	}
	if c.MaxTermsPerTweet == 0 {
		c.MaxTermsPerTweet = 8
	}
	if c.Queries == 0 {
		c.Queries = 50
	}
	if c.ScoreAlpha == 0 {
		c.ScoreAlpha = 1.0
	}
	if c.TopicCount == 0 {
		c.TopicCount = 25
	}
}

// Twitter generates the Twitter-style dataset: 〈tweetID hasTag term〉 triples
// scored by the tweet's retweet count, relaxation rules mined from actual
// term co-occurrence (w = #tweets(T1∧T2)/#tweets(T1), exactly the paper's
// formula), and 50 conjunctive term queries of 2–3 patterns.
func Twitter(cfg TwitterConfig) (*Dataset, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := kg.NewStore(nil)
	dict := st.Dict()
	hasTag := dict.Encode("hasTag")

	// Terms clustered into topics; tweets draw most terms from one topic.
	termIDs := make([]kg.ID, cfg.Terms)
	termTopic := make([]int, cfg.Terms)
	for t := 0; t < cfg.Terms; t++ {
		termIDs[t] = dict.Encode(fmt.Sprintf("term:%d", t))
		termTopic[t] = t % cfg.TopicCount
	}
	topicTerms := make([][]int, cfg.TopicCount)
	for t := 0; t < cfg.Terms; t++ {
		topicTerms[termTopic[t]] = append(topicTerms[termTopic[t]], t)
	}

	retweets := zipfScores(rng, cfg.Tweets, 50000, cfg.ScoreAlpha)
	tweetTerms := make([][]int, cfg.Tweets)
	for tw := 0; tw < cfg.Tweets; tw++ {
		topic := rng.Intn(cfg.TopicCount)
		n := cfg.MinTermsPerTweet + rng.Intn(cfg.MaxTermsPerTweet-cfg.MinTermsPerTweet+1)
		terms := map[int]bool{}
		for len(terms) < n {
			var t int
			if rng.Float64() < 0.7 {
				tt := topicTerms[topic]
				t = tt[sampleZipfIndex(rng, len(tt), 0.9)]
			} else {
				t = sampleZipfIndex(rng, cfg.Terms, 0.9)
			}
			terms[t] = true
		}
		tid := dict.Encode(fmt.Sprintf("tweet:%d", tw))
		// Iterate the term set in sorted order: map iteration order is
		// random per process, and triple insertion order is the score-sort
		// tiebreak, so ranging the map directly made match-list order — and
		// with it top-k pull counts and the mem-objects metric — vary from
		// run to run for the same seed.
		for t := range terms {
			tweetTerms[tw] = append(tweetTerms[tw], t)
		}
		sort.Ints(tweetTerms[tw])
		for _, t := range tweetTerms[tw] {
			if err := st.Add(kg.Triple{S: tid, P: hasTag, O: termIDs[t], Score: retweets[tw]}); err != nil {
				return nil, err
			}
		}
	}
	st.Freeze()

	// Mine co-occurrence relaxations from the generated stream itself.
	miner := relax.CooccurrenceMiner{Pred: hasTag, MaxRules: 12, MinWeight: 0.02}
	rules, err := miner.Mine(st)
	if err != nil {
		return nil, err
	}

	ds := &Dataset{Name: "twitter", Store: st, Rules: rules}

	// Term frequency for query construction.
	termFreq := make([]int, cfg.Terms)
	for _, ts := range tweetTerms {
		for _, t := range ts {
			termFreq[t]++
		}
	}

	// Queries: conjunctions of 2–3 co-occurring terms anchored on a tweet,
	// biased toward scarce conjunctions (the paper observes most Twitter
	// queries need all patterns relaxed).
	// Distribute cfg.Queries across pattern counts in the paper's 15/35
	// proportions.
	counts := []int{2, 3}
	perCount := []int{cfg.Queries * 15 / 50, 0}
	perCount[1] = cfg.Queries - perCount[0]
	qi := 0
	for ci, tp := range counts {
		made := 0
		attempts := 0
		for made < perCount[ci] && attempts < 200000 {
			attempts++
			tw := rng.Intn(cfg.Tweets)
			if len(tweetTerms[tw]) < tp {
				continue
			}
			sel := pickDistinct(rng, len(tweetTerms[tw]), tp)
			var pats []kg.Pattern
			minRules := len(ds.Rules.For(kg.NewPattern(kg.Var("s"), kg.Const(hasTag), kg.Const(termIDs[tweetTerms[tw][sel[0]]]))))
			for _, s := range sel {
				term := termIDs[tweetTerms[tw][s]]
				p := kg.NewPattern(kg.Var("s"), kg.Const(hasTag), kg.Const(term))
				if n := len(ds.Rules.For(p)); n < minRules {
					minRules = n
				}
				pats = append(pats, p)
			}
			// The paper guarantees ≥5 relaxations per pattern.
			if minRules < 5 {
				continue
			}
			q := kg.NewQuery(pats...)
			n := kg.Count(st, q)
			if n == 0 {
				continue
			}
			if n >= 20 && rng.Float64() < 0.85 {
				continue
			}
			ds.Queries = append(ds.Queries, QuerySpec{
				Name:  queryName("twitter", qi, tp),
				Query: q,
			})
			qi++
			made++
		}
		if made < perCount[ci] {
			return nil, fmt.Errorf("datagen: only generated %d/%d %d-pattern Twitter queries", made, perCount[ci], tp)
		}
	}
	return ds, nil
}
