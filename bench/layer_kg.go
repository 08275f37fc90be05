package main

import (
	"fmt"
	"time"

	"specqp/internal/kg"
)

// tombstoneTarget is how many pending tombstones the store carries when
// kg.delete_at_10k_tombstones_us is taken (fewer on a scaled-down dataset).
const tombstoneTarget = 10000

// probeKG measures the store alone: the read path the operators sit on
// (frozen, then with a head and an L1 tier in front), then a private copy's
// freeze, inserts, deletes, both compaction schemes and the snapshot writer.
func probeKG(e *probeEnv, v map[string]float64) error {
	src := e.corp.ds.Store
	var pats []kg.Pattern
	seen := map[kg.PatternKey]bool{}
	for _, q := range e.corp.queries {
		for _, p := range q.Patterns {
			if !seen[p.Key()] {
				seen[p.Key()] = true
				pats = append(pats, p)
			}
		}
	}
	i := 0
	read := func(g kg.Graph) func() {
		return func() { g.MatchList(pats[i%len(pats)]); i++ }
	}
	v["kg.matchlist_ns"] = float64(perOp(200000, read(src)))
	v["kg.matchlist_allocs"] = allocsPerOp(20000, read(src))

	// The copy shares the dictionary, so the heap it adds is triples and
	// posting arenas only.
	heap0 := liveHeapMiB()
	st := kg.NewStore(src.Dict())
	for i := 0; i < src.Len(); i++ {
		if err := st.Add(src.Triple(int32(i))); err != nil {
			return err
		}
	}
	t0 := time.Now()
	st.Freeze()
	v["kg.freeze_ms"] = ms(time.Since(t0))
	v["kg.bytes_per_triple"] = (liveHeapMiB() - heap0) * (1 << 20) / float64(st.Len())

	// Tiered scheme: heads fold into an L1 tier that never reaches its limit
	// here, so every automatic merge is a tiered one. The inserts re-use the
	// predicate and object of triples matching a workload pattern, so that
	// pattern's match list really has head and L1 entries in front of it.
	st.SetHeadLimit(512)
	st.SetL1Limit(1 << 30)
	like := src.MatchList(pats[0])
	const inserts = 2000
	n := 0
	v["kg.insert_us"] = us(perOp(inserts, func() {
		t := src.Triple(like[n%len(like)])
		t.S = src.Dict().Encode(fmt.Sprintf("bench:probe:s%d", n))
		st.Insert(t)
		n++
	}))
	if st.HeadLen() == 0 || st.L1Len() == 0 {
		return fmt.Errorf("tiered set-up left head=%d l1=%d", st.HeadLen(), st.L1Len())
	}
	_, tiered, _, tieredNS := st.CompactionStats()
	v["kg.compact_tiered_ms"] = ratio(float64(tieredNS), float64(tiered)) / 1e6
	v["kg.matchlist_l1_ns"] = float64(perOp(20000, read(st)))
	v["kg.pin_us"] = us(perOp(2000, func() { st.Pin() }))

	// Deletes leave tombstones until a full compaction; automatic merges are
	// off so they pile up to the target.
	st.SetHeadLimit(-1)
	next := int32(0)
	del := func() {
		t := src.Triple(next)
		st.Delete(t.S, t.P, t.O)
		next++
	}
	target := min(tombstoneTarget, src.Len()/4)
	v["kg.delete_us"] = us(perOp(target/10, del))
	for st.Tombstones() < target && int(next) < src.Len()/2 {
		del()
	}
	v["kg.delete_at_10k_tombstones_us"] = us(perOp(200, del))

	t0 = time.Now()
	st.Compact()
	v["kg.compact_full_ms"] = ms(time.Since(t0))
	if st.Tombstones() != 0 {
		return fmt.Errorf("full compaction left %d tombstones", st.Tombstones())
	}

	var w countingWriter
	t0 = time.Now()
	if _, _, err := kg.WriteGraphSnapshot(&w, st); err != nil {
		return err
	}
	v["kg.snapshot_mb_per_s"] = float64(w) / (1 << 20) / time.Since(t0).Seconds()
	return nil
}

// countingWriter discards what it is given and counts it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
