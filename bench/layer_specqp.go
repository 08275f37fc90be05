package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"specqp"
)

// probeSpecqp measures the root engine around the layers below it: answer
// decoding, the batch and sharded paths against sequential flat execution
// (answers compared), tracing overhead, and WAL-tail replay on recovery.
func probeSpecqp(e *probeEnv, v map[string]float64) error {
	qs := e.corp.queries
	ctx := context.Background()
	sequential := func(eng *specqp.Engine) ([]specqp.Result, time.Duration, error) {
		out := make([]specqp.Result, len(qs))
		t0 := time.Now()
		for i, q := range qs {
			var err error
			if out[i], err = eng.Query(q, queryK, specqp.ModeSpecQP); err != nil {
				return nil, 0, err
			}
		}
		return out, time.Since(t0), nil
	}
	flat, flatTime, err := sequential(e.eng)
	if err != nil {
		return err
	}

	answers, decode := 0, time.Duration(0)
	for i, r := range flat {
		t0 := time.Now()
		for _, a := range r.Answers {
			e.eng.DecodeAnswer(qs[i], a)
		}
		decode += time.Since(t0)
		answers += len(r.Answers)
	}
	v["specqp.decode_us_per_answer"] = us(decode) / float64(max(answers, 1))

	t0 := time.Now()
	batch, err := e.eng.QueryBatch(ctx, qs, queryK, specqp.ModeSpecQP)
	batchTime := time.Since(t0)
	if err != nil {
		return err
	}
	for i, b := range batch {
		if b.Err != nil || !sameRaw(b.Result.Answers, flat[i].Answers) {
			return fmt.Errorf("QueryBatch: query %d differs from sequential Query (err %v)", i, b.Err)
		}
	}
	v["specqp.batch_speedup"] = ratio(float64(flatTime), float64(batchTime))

	sharded := specqp.NewEngineWith(e.corp.ds.Store, e.corp.ds.Rules, specqp.Options{Shards: max(e.c.procs, 2)})
	if _, _, err := sequential(sharded); err != nil { // warm
		return err
	}
	got, shardedTime, err := sequential(sharded)
	if err != nil {
		return err
	}
	for i := range got {
		if !sameRaw(got[i].Answers, flat[i].Answers) {
			return fmt.Errorf("sharded engine: query %d differs from the flat engine", i)
		}
	}
	v["specqp.sharded_speedup"] = ratio(float64(flatTime), float64(shardedTime))

	t0 = time.Now()
	for i, q := range qs {
		r, err := e.eng.QueryTraced(ctx, q, queryK, specqp.ModeSpecQP)
		if err != nil || !sameRaw(r.Answers, flat[i].Answers) {
			return fmt.Errorf("QueryTraced: query %d differs from Query (err %v)", i, err)
		}
	}
	v["specqp.traced_overhead_frac"] = ratio(float64(time.Since(t0)-flatTime), float64(flatTime))

	return probeReplay(e, v)
}

// replayRecords is the log tail the recovery probe replays.
const replayRecords = 4000

// probeReplay closes a durable engine with a log tail of replayRecords
// inserts and no checkpoint covering them, and times the reopen.
func probeReplay(e *probeEnv, v map[string]float64) error {
	all := e.corp.quads()
	n := min(replayRecords, len(all)/2)
	opts := specqp.Options{SyncPolicy: specqp.SyncNone, CheckpointBytes: -1}
	eng, dir, err := openDurable(e.c, e.corp, all[n:], opts)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, q := range all[:n] {
		if err := eng.InsertSPO(q.S, q.P, q.O, q.Score); err != nil {
			eng.Close()
			return err
		}
	}
	if err := eng.Close(); err != nil {
		return err
	}
	reopened, took, err := reopen(dir, e.corp, opts)
	if err != nil {
		return err
	}
	v["specqp.recovery_replay_records_per_s"] = float64(n) / took.Seconds()
	return reopened.Close()
}
