package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"specqp"
	"specqp/internal/repl"
)

// shipRecords is the log tail the cold follower pulls.
const shipRecords = 4000

// probeRepl starts a cold follower against a primary that already holds a
// checkpoint and a log tail: the first round trip installs the snapshot
// (bootstrap), the rest pull the tail (shipping rate), all over loopback TCP.
func probeRepl(e *probeEnv, v map[string]float64) error {
	all := e.corp.quads()
	n := min(shipRecords, len(all)/2)
	eng, dir, err := openDurable(e.c, e.corp, all[n:], specqp.Options{SyncPolicy: specqp.SyncNone, CheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer eng.Close()
	for _, q := range all[:n] {
		if err := eng.InsertSPO(q.S, q.P, q.O, q.Score); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	primary := repl.NewPrimary(eng.WALFeed(), repl.PrimaryOptions{PollWait: -1})
	go primary.Serve(ln)
	defer primary.Close()
	client := repl.NewNetClient(ln.Addr().String(), repl.NetClientOptions{})
	defer client.Close()
	replica := newReplica(e.corp)
	fol := repl.NewFollower(client, replica, repl.FollowerOptions{})

	t0 := time.Now()
	if _, err := fol.Step(); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	v["repl.bootstrap_ms"] = ms(time.Since(t0))
	from, tip := replica.AppliedSeq(), eng.Stats().WALLastSeq
	t0 = time.Now()
	for replica.AppliedSeq() < tip {
		if progressed, err := fol.Step(); err != nil {
			return fmt.Errorf("pull: %w", err)
		} else if !progressed {
			return fmt.Errorf("follower stalled at seq %d of %d", replica.AppliedSeq(), tip)
		}
	}
	v["repl.ship_records_per_s"] = float64(tip-from) / time.Since(t0).Seconds()
	return nil
}
