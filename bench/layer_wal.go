package main

import (
	"fmt"
	"os"

	"specqp/internal/wal"
)

// probeWAL appends to a bare log under each sync policy: the cost a mutation
// pays before the store is touched.
func probeWAL(e *probeEnv, v map[string]float64) error {
	const appends = 1500
	for _, p := range []struct {
		name   string
		policy wal.SyncPolicy
	}{{"always", wal.SyncAlways}, {"interval", wal.SyncInterval}, {"none", wal.SyncNone}} {
		dir, err := os.MkdirTemp(e.c.tmp, "walprobe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		fsys, err := wal.DirFS(dir)
		if err != nil {
			return err
		}
		log, _, err := wal.Open(fsys, wal.Options{Policy: p.policy})
		if err != nil {
			return err
		}
		n := 0
		var appendErr error
		v["wal.append_us."+p.name] = us(perOp(appends, func() {
			n++
			r := wal.Record{Kind: wal.KindInsert, S: fmt.Sprintf("tweet:%d", n), P: "hasTag", O: "term:probe", Score: float64(n)}
			if err := log.Append(r); err != nil {
				appendErr = err
			}
		}))
		if err := log.Close(); err != nil {
			return err
		}
		if appendErr != nil {
			return appendErr
		}
	}
	return nil
}
