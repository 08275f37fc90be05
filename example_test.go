package specqp_test

import (
	"fmt"
	"log"
	"math/rand"

	"specqp"
)

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// typePattern returns a constructor for 〈?s rdf:type object〉 over a frozen
// store's dictionary.
func typePattern(st *specqp.Store) func(object string) specqp.Pattern {
	d := st.Dict()
	ty, _ := d.Lookup("rdf:type")
	return func(object string) specqp.Pattern {
		id, ok := d.Lookup(object)
		if !ok {
			log.Fatalf("type %q not in the KG", object)
		}
		return specqp.NewPattern(specqp.Var("s"), specqp.Const(ty), specqp.Const(id))
	}
}

// buildExampleEngine assembles the paper's running example: musicians with
// popularity scores and two relaxation rules (Definition 7): singer may be
// relaxed to vocalist at a 0.8 score penalty, guitarist to musician at 0.7.
func buildExampleEngine() *specqp.Engine {
	st := specqp.NewStore()
	for _, t := range []struct {
		s, o  string
		score float64
	}{
		{"shakira", "singer", 100}, {"beyonce", "singer", 90}, {"miley", "singer", 50},
		{"prince", "vocalist", 95}, {"elton", "vocalist", 85},
		{"shakira", "guitarist", 40}, {"prince", "guitarist", 99},
		{"elton", "pianist", 88}, {"miley", "musician", 45}, {"beyonce", "musician", 70},
	} {
		must(st.AddSPO(t.s, "rdf:type", t.o, t.score))
	}
	st.Freeze()
	pat := typePattern(st)
	rules := specqp.NewRuleSet()
	must(rules.Add(specqp.Rule{From: pat("singer"), To: pat("vocalist"), Weight: 0.8}))
	must(rules.Add(specqp.Rule{From: pat("guitarist"), To: pat("musician"), Weight: 0.7}))
	return specqp.NewEngine(st, rules)
}

// Example asks the running example for the top-3 singers who play guitar,
// under the TriniT baseline and under Spec-QP, then prints the planner's
// reasoning for the speculative plan.
func Example() {
	eng := buildExampleEngine()
	q, err := eng.ParseSPARQL(`SELECT ?s WHERE {
		?s 'rdf:type' <singer> .
		?s 'rdf:type' <guitarist>
	}`)
	must(err)
	for _, mode := range []specqp.Mode{specqp.ModeTriniT, specqp.ModeSpecQP} {
		res, err := eng.Query(q, 3, mode)
		must(err)
		fmt.Printf("%s (objects=%d)\n", mode, res.MemoryObjects)
		for rank, a := range res.Answers {
			fmt.Printf("  %d. %-8s score=%.3f relaxed=%v\n",
				rank+1, eng.DecodeAnswer(q, a)["s"], a.Score, a.RelaxedCount() > 0)
		}
	}
	fmt.Print(eng.Explain(eng.PlanQuery(q, 3)))
	// Output:
	// trinit (objects=11)
	//   1. prince   score=1.800 relaxed=true
	//   2. beyonce  score=1.600 relaxed=true
	//   3. shakira  score=1.404 relaxed=false
	// spec-qp (objects=11)
	//   1. prince   score=1.800 relaxed=true
	//   2. beyonce  score=1.600 relaxed=true
	//   3. shakira  score=1.404 relaxed=false
	// query: 〈?s rdf:type singer〉 . 〈?s rdf:type guitarist〉
	// original query cannot reach k=3 answers; EQ(k)=0
	//   [0] 〈?s rdf:type singer〉 → RELAX (incremental merge): EQ'(1)=1.4599 > EQ(k)=0.0000
	//       top rule: 〈?s rdf:type vocalist〉 (w=0.800)
	//   [1] 〈?s rdf:type guitarist〉 → RELAX (incremental merge): EQ'(1)=1.3250 > EQ(k)=0.0000
	//       top rule: 〈?s rdf:type musician〉 (w=0.700)
	// plan: join group [], singletons [0 1]
}

// ExampleEngine_QuerySPARQL shows the one-call path: SPARQL in, ranked
// answers out, with LIMIT selecting k.
func ExampleEngine_QuerySPARQL() {
	eng := buildExampleEngine()
	res, err := eng.QuerySPARQL(`SELECT ?s WHERE {
		?s 'rdf:type' <singer> .
		?s 'rdf:type' <guitarist>
	} LIMIT 2`, specqp.ModeSpecQP)
	must(err)
	q, _ := eng.ParseSPARQL(`SELECT ?s WHERE { ?s 'rdf:type' <singer> . ?s 'rdf:type' <guitarist> }`)
	for i, a := range res.Answers {
		fmt.Printf("%d. %s %.2f\n", i+1, eng.DecodeAnswer(q, a)["s"], a.Score)
	}
	// Output:
	// 1. prince 1.80
	// 2. beyonce 1.60
}

// ExampleEngine_PlanQuery inspects the speculative plan without executing.
func ExampleEngine_PlanQuery() {
	eng := buildExampleEngine()
	q, err := eng.ParseSPARQL(`SELECT ?s WHERE {
		?s 'rdf:type' <singer> . ?s 'rdf:type' <guitarist> }`)
	must(err)
	plan := eng.PlanQuery(q, 2)
	fmt.Println("patterns relaxed:", plan.NumRelaxed(), "of", len(q.Patterns))
	// Output:
	// patterns relaxed: 2 of 2
}

// ExampleEngine_Explain walks the Spec-QP estimator on a controlled graph:
// each pattern's two-bucket statistics {m, σr, Sr, Sm}, then, per k, the
// expected k-th score EQ(k), each pattern's top relaxation estimate EQ'(1),
// the plan partition, and how the plan's answers and memory objects compare
// with TriniT's. It is the debugging companion to Algorithm 1 (PLANGEN).
func ExampleEngine_Explain() {
	rng := rand.New(rand.NewSource(7))
	st := specqp.NewStore()
	addPop := func(prefix, ty string, n int, maxScore float64) {
		for i := 0; i < n; i++ {
			score := maxScore / float64(1+i) * (0.8 + 0.4*rng.Float64())
			must(st.AddSPO(fmt.Sprintf("%s%03d", prefix, i), "rdf:type", ty, score))
		}
	}
	// A: 200 strong entities; B: 30 scarce ones overlapping A's top (they
	// force relaxation for large k); C: 150 strong, B's relaxation target;
	// D: 100 weak, A's relaxation target.
	addPop("e", "A", 200, 10000)
	for i := 0; i < 30; i++ {
		must(st.AddSPO(fmt.Sprintf("e%03d", i*3), "rdf:type", "B", 5000/float64(1+i)))
	}
	addPop("e", "C", 150, 9000)
	addPop("x", "D", 100, 2000)
	st.Freeze()
	pat := typePattern(st)
	rules := specqp.NewRuleSet()
	must(rules.Add(specqp.Rule{From: pat("B"), To: pat("C"), Weight: 0.85}))
	must(rules.Add(specqp.Rule{From: pat("A"), To: pat("D"), Weight: 0.4}))
	eng := specqp.NewEngine(st, rules)
	q := specqp.NewQuery(pat("A"), pat("B"))

	for i, p := range q.Patterns {
		s, err := eng.PatternStats(p)
		must(err)
		fmt.Printf("pattern %d %s: m=%d σr=%.4f Sr=%.2f Sm=%.2f\n",
			i, st.Dict().PatternString(p), s.M, s.SigmaR, s.SR, s.SM)
	}
	for _, k := range []int{5, 20, 60} {
		fmt.Printf("== k=%d\n", k)
		fmt.Print(eng.Explain(eng.PlanQuery(q, k)))
		sp, err := eng.Query(q, k, specqp.ModeSpecQP)
		must(err)
		tr, err := eng.Query(q, k, specqp.ModeTriniT)
		must(err)
		inTruth := map[string]bool{}
		for _, a := range tr.Answers {
			inTruth[a.Binding.Key()] = true
		}
		overlap := 0
		for _, a := range sp.Answers {
			if inTruth[a.Binding.Key()] {
				overlap++
			}
		}
		fmt.Printf("answers: %d (vs TriniT %d), overlap %d; objects S=%d T=%d\n",
			len(sp.Answers), len(tr.Answers), overlap, sp.MemoryObjects, tr.MemoryObjects)
	}
	// Output:
	// pattern 0 〈?s rdf:type A〉: m=200 σr=0.0147 Sr=4.11 Sm=5.13
	// pattern 1 〈?s rdf:type B〉: m=30 σr=0.0714 Sr=3.25 Sm=3.99
	// == k=5
	// query: 〈?s rdf:type A〉 . 〈?s rdf:type B〉
	// expected score at rank k=5: 1.3274
	//   [0] 〈?s rdf:type A〉 → join group: EQ'(1)=1.1370 <= EQ(k)=1.3274
	//       top rule: 〈?s rdf:type D〉 (w=0.400)
	//   [1] 〈?s rdf:type B〉 → RELAX (incremental merge): EQ'(1)=1.7199 > EQ(k)=1.3274
	//       top rule: 〈?s rdf:type C〉 (w=0.850)
	// plan: join group [0], singletons [1]
	// answers: 5 (vs TriniT 5), overlap 5; objects S=205 T=305
	// == k=20
	// query: 〈?s rdf:type A〉 . 〈?s rdf:type B〉
	// expected score at rank k=20: 0.6696
	//   [0] 〈?s rdf:type A〉 → RELAX (incremental merge): EQ'(1)=1.1370 > EQ(k)=0.6696
	//       top rule: 〈?s rdf:type D〉 (w=0.400)
	//   [1] 〈?s rdf:type B〉 → RELAX (incremental merge): EQ'(1)=1.7199 > EQ(k)=0.6696
	//       top rule: 〈?s rdf:type C〉 (w=0.850)
	// plan: join group [], singletons [0 1]
	// answers: 20 (vs TriniT 20), overlap 20; objects S=320 T=320
	// == k=60
	// query: 〈?s rdf:type A〉 . 〈?s rdf:type B〉
	// original query cannot reach k=60 answers; EQ(k)=0
	//   [0] 〈?s rdf:type A〉 → RELAX (incremental merge): EQ'(1)=1.1370 > EQ(k)=0.0000
	//       top rule: 〈?s rdf:type D〉 (w=0.400)
	//   [1] 〈?s rdf:type B〉 → RELAX (incremental merge): EQ'(1)=1.7199 > EQ(k)=0.0000
	//       top rule: 〈?s rdf:type C〉 (w=0.850)
	// plan: join group [], singletons [0 1]
	// answers: 60 (vs TriniT 60), overlap 60; objects S=360 T=360
}

// Example_musicians reproduces the paper's motivating question, "which
// singers also write lyrics and play guitar and piano?", over 3 000
// synthetic musicians with Zipf-like fame and Table 1's relaxations. The
// four-way conjunction is rare, so every pattern must relax and Spec-QP
// does the same work as TriniT; the relaxation space is the 48 queries the
// paper's introduction counts.
func Example_musicians() {
	table1 := []struct {
		from, to string
		w        float64
	}{
		{"singer", "vocalist", 0.9}, {"singer", "jazz_singer", 0.75}, {"singer", "artist", 0.5},
		{"lyricist", "writer", 0.8},
		{"guitarist", "musician", 0.7}, {"guitarist", "instrumentalist", 0.65},
		{"pianist", "percussionist", 0.6},
	}
	allTypes := []string{"singer", "vocalist", "jazz_singer", "artist", "lyricist", "writer",
		"guitarist", "musician", "instrumentalist", "pianist", "percussionist"}

	rng := rand.New(rand.NewSource(2019))
	st := specqp.NewStore()
	for i := 0; i < 3000; i++ {
		fame := 1e6 / float64(1+i)
		seen := map[string]bool{}
		for j, n := 0, 2+rng.Intn(3); j < n; j++ {
			ty := allTypes[rng.Intn(len(allTypes))]
			if seen[ty] {
				continue
			}
			seen[ty] = true
			must(st.AddSPO(fmt.Sprintf("musician_%04d", i), "rdf:type", ty, fame*(0.8+0.4*rng.Float64())))
		}
	}
	st.Freeze()
	pat := typePattern(st)
	rules := specqp.NewRuleSet()
	for _, r := range table1 {
		must(rules.Add(specqp.Rule{From: pat(r.from), To: pat(r.to), Weight: r.w}))
	}
	eng := specqp.NewEngine(st, rules)
	q, err := eng.ParseSPARQL(`SELECT ?s WHERE {
		?s 'rdf:type' <singer> . ?s 'rdf:type' <lyricist> .
		?s 'rdf:type' <guitarist> . ?s 'rdf:type' <pianist>
	}`)
	must(err)

	// The full enumeration evaluates ∏(1+fanout) queries.
	queries := 1
	for _, p := range q.Patterns {
		queries *= 1 + len(eng.Rules().For(p))
	}
	fmt.Printf("%d rules; full enumeration evaluates %d queries\n", rules.Len(), queries)
	var top []specqp.Answer
	for _, k := range []int{5, 10, 20} {
		tr, err := eng.Query(q, k, specqp.ModeTriniT)
		must(err)
		sp, err := eng.Query(q, k, specqp.ModeSpecQP)
		must(err)
		fmt.Printf("k=%d: TriniT %d objects, Spec-QP %d objects, relaxed %d of %d patterns\n",
			k, tr.MemoryObjects, sp.MemoryObjects, sp.Plan.NumRelaxed(), len(q.Patterns))
		top = sp.Answers[:5]
	}
	for rank, a := range top {
		fmt.Printf("%d. %s score=%.3f via %d relaxations\n",
			rank+1, eng.DecodeAnswer(q, a)["s"], a.Score, a.RelaxedCount())
	}
	// Output:
	// 7 rules; full enumeration evaluates 48 queries
	// k=5: TriniT 3223 objects, Spec-QP 3223 objects, relaxed 4 of 4 patterns
	// k=10: TriniT 3228 objects, Spec-QP 3228 objects, relaxed 4 of 4 patterns
	// k=20: TriniT 3238 objects, Spec-QP 3238 objects, relaxed 4 of 4 patterns
	// 1. musician_0043 score=0.463 via 2 relaxations
	// 2. musician_0091 score=0.127 via 3 relaxations
	// 3. musician_0161 score=0.115 via 2 relaxations
	// 4. musician_0210 score=0.108 via 1 relaxations
	// 5. musician_0233 score=0.089 via 1 relaxations
}

// ExampleMineCooccurrence shows the co-occurrence weight on three tweets:
// w(T1→T2) = #tweets(T1∧T2) / #tweets(T1).
func ExampleMineCooccurrence() {
	st := specqp.NewStore()
	for _, tw := range []struct{ id, tag string }{
		{"t1", "#ariana"}, {"t1", "#video"},
		{"t2", "#ariana"}, {"t2", "#video"},
		{"t3", "#ariana"}, {"t3", "#pop"},
	} {
		must(st.AddSPO(tw.id, "hasTag", tw.tag, 1))
	}
	st.Freeze()
	hasTag, _ := st.Dict().Lookup("hasTag")
	rules, err := specqp.MineCooccurrence(st, hasTag, 0, 0)
	must(err)
	ariana, _ := st.Dict().Lookup("#ariana")
	p := specqp.NewPattern(specqp.Var("s"), specqp.Const(hasTag), specqp.Const(ariana))
	for _, r := range rules.For(p) {
		fmt.Printf("#ariana → %s w=%.2f\n", st.Dict().Decode(r.To.O.ID), r.Weight)
	}
	// Output:
	// #ariana → #video w=0.67
	// #ariana → #pop w=0.33
}

// ExampleMineCooccurrence_twitter mirrors the paper's Twitter scenario:
// conjunctive hashtag search over 5 000 synthetic tweets whose scores are
// retweet counts, with every relaxation rule mined from the data.
func ExampleMineCooccurrence_twitter() {
	topics := [][]string{
		{"#intoyouvideo", "#ariana", "#dangerous", "#video", "#song", "#pop", "#nowplaying", "#remix", "#vocals", "#tour", "#setlist", "#encore", "#album", "#single", "#chart"},
		{"#breaking", "#election", "#economy", "#weather", "#storm", "#update", "#live", "#report", "#press", "#policy", "#vote", "#debate", "#poll", "#summit", "#crisis"},
		{"#football", "#goal", "#worldcup", "#match", "#team", "#fans", "#stadium", "#league", "#derby", "#transfer", "#coach", "#injury", "#penalty", "#var", "#finals"},
		{"#ai", "#startup", "#coding", "#golang", "#database", "#cloud", "#launch", "#beta", "#opensource", "#devops", "#mobile", "#security", "#data", "#api", "#infra"},
	}
	rng := rand.New(rand.NewSource(42))
	st := specqp.NewStore()
	for i := 0; i < 5000; i++ {
		retweets := float64(1 + rng.Intn(20000)/(1+i%97))
		topic := topics[rng.Intn(len(topics))]
		seen := map[string]bool{}
		for j, n := 0, 2+rng.Intn(4); j < n; j++ {
			// Four tags in five stay on the tweet's topic.
			var tag string
			if rng.Float64() < 0.8 {
				tag = topic[rng.Intn(len(topic))]
			} else {
				other := topics[rng.Intn(len(topics))]
				tag = other[rng.Intn(len(other))]
			}
			if seen[tag] {
				continue
			}
			seen[tag] = true
			must(st.AddSPO(fmt.Sprintf("tweet_%05d", i), "hasTag", tag, retweets))
		}
	}
	st.Freeze()
	hasTag, _ := st.Dict().Lookup("hasTag")
	rules, err := specqp.MineCooccurrence(st, hasTag, 10, 0.05)
	must(err)
	fmt.Printf("mined %d rules from %d triples\n", rules.Len(), st.Len())

	eng := specqp.NewEngine(st, rules)
	q, err := eng.ParseSPARQL(`SELECT ?s WHERE {
		?s <hasTag> <#intoyouvideo> . ?s <hasTag> <#ariana> . ?s <hasTag> <#dangerous>
	}`)
	must(err)
	for _, r := range eng.Rules().For(q.Patterns[0])[:5] {
		fmt.Printf("#intoyouvideo → %s w=%.3f\n", st.Dict().Decode(r.To.O.ID), r.Weight)
	}
	var top []specqp.Answer
	for _, k := range []int{10, 20} {
		tr, err := eng.Query(q, k, specqp.ModeTriniT)
		must(err)
		sp, err := eng.Query(q, k, specqp.ModeSpecQP)
		must(err)
		fmt.Printf("k=%d: TriniT %d answers / %d objects, Spec-QP %d answers / %d objects, relaxed %d of %d patterns\n",
			k, len(tr.Answers), tr.MemoryObjects, len(sp.Answers), sp.MemoryObjects,
			sp.Plan.NumRelaxed(), len(q.Patterns))
		top = sp.Answers[:3]
	}
	for rank, a := range top {
		fmt.Printf("%d. %s score=%.3f\n", rank+1, eng.DecodeAnswer(q, a)["s"], a.Score)
	}
	// Output:
	// mined 600 rules from 16309 triples
	// #intoyouvideo → #single w=0.172
	// #intoyouvideo → #setlist w=0.162
	// #intoyouvideo → #album w=0.152
	// #intoyouvideo → #tour w=0.146
	// #intoyouvideo → #pop w=0.142
	// k=10: TriniT 10 answers / 4944 objects, Spec-QP 10 answers / 4944 objects, relaxed 3 of 3 patterns
	// k=20: TriniT 20 answers / 4954 objects, Spec-QP 20 answers / 4954 objects, relaxed 3 of 3 patterns
	// 1. tweet_02619 score=2.865
	// 2. tweet_02716 score=2.167
	// 3. tweet_01746 score=1.342
}
