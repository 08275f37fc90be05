package specqp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"specqp/internal/kg"
	"specqp/internal/wal"
)

// This file is the read-replica side of WAL log shipping: a Replica is the
// store a follower applies shipped deliveries to, behind the exact replay
// discipline crash recovery uses (see loadDurableState). A snapshot delivery
// rebuilds the whole store from the v2 binary format — the restart rule: the
// checkpoint is the only self-contained state, because the opening
// checkpoint's base triples exist in no WAL record — and record deliveries
// replay through the same by-kind paths: inserts re-encode term strings
// (subject-hash routing re-derives shard placement under any shard count) and
// tombstones delete by unconditionally encoded IDs, never DeleteSPO, whose
// unknown-term short-circuit would break the ops↔seq lockstep.
//
// A Replica is also a server.Backend (asserted where the server is wired, to
// keep this package free of internal/server): queries serve from the last
// applied state, mutations fail fast with ErrWedged — the same typed error a
// wedged primary surfaces, so the serving layer's read-only discipline (503
// mutations, "read-only" health) covers followers with zero new code paths.

// ErrNotBootstrapped is returned by Replica queries before the first snapshot
// installs: a follower has no state at all until its bootstrap delivery.
var ErrNotBootstrapped = fmt.Errorf("specqp: replica not yet bootstrapped (no snapshot installed)")

// Replica is a read-only engine fed by WAL log shipping. InstallSnapshot and
// Apply implement the follower's applier surface (repl.Applier, structurally);
// everything else is the query surface the HTTP server drives. Queries are
// safe concurrently with Apply — they run against live engine state exactly
// like queries on a primary race live inserts — and concurrently with
// InstallSnapshot, which builds the new engine aside and swaps one pointer:
// an in-flight query finishes on the state it started with.
type Replica struct {
	rules *RuleSet
	opts  Options

	// mu serialises the applier side (InstallSnapshot/Apply) — the follower
	// drives it from one loop, but the lock makes the contract local.
	mu        sync.Mutex
	loadRules func(*kg.Dict) (*RuleSet, error)
	eng       atomic.Pointer[Engine]
	applied   atomic.Uint64
}

// NewReplica returns an empty replica that will serve queries with the given
// rules and options once bootstrapped. Options.Shards selects the follower's
// own storage layout — it need not match the primary's, because records ship
// term strings and snapshots route by subject hash, so answers are
// bit-identical at every shard count. Options.WALDir must be empty: a replica
// owns no log; its durability is the primary's.
func NewReplica(rules *RuleSet, opts Options) *Replica {
	if opts.WALDir != "" {
		panic("specqp: a Replica has no WAL of its own; Options.WALDir must be empty")
	}
	if rules == nil {
		rules = NewRuleSet()
	}
	return &Replica{rules: rules, opts: opts}
}

// SetRulesLoader installs a loader that re-encodes relaxation rules against
// each installed snapshot's dictionary. Rule patterns hold dictionary IDs, and
// every snapshot install rebuilds the dictionary from the primary's term
// table — so rules sourced outside that table (a local rules TSV on a
// follower) must be re-encoded per install; a RuleSet passed to NewReplica is
// only valid when its IDs are the primary's own (it was built against a
// dictionary the snapshots reproduce). Call before the follower starts; a
// loader error fails the install, which the follower retries.
func (r *Replica) SetRulesLoader(load func(d *kg.Dict) (*RuleSet, error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.loadRules = load
}

// InstallSnapshot replaces the replica's entire state with the snapshot (v2
// binary format) covering WAL position seq. The build mirrors recovery: a
// fresh store in the configured layout (ReadBinaryInto requires a fresh
// dictionary — the snapshot's dense term table reproduces the primary's IDs
// exactly), loaded and frozen aside, then swapped in atomically.
func (r *Replica) InstallSnapshot(seq uint64, src io.Reader) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	shards := r.opts.Shards
	if shards < 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	type stage interface {
		kg.LiveGraph
		Add(kg.Triple) error
	}
	var g stage
	if shards > 1 {
		g = kg.NewShardedStore(nil, shards)
	} else {
		g = kg.NewStore(nil)
	}
	if err := kg.ReadBinaryInto(src, g.Dict(), g.Add); err != nil {
		return fmt.Errorf("specqp: installing replica snapshot: %w", err)
	}
	rules := r.rules
	if r.loadRules != nil {
		rs, err := r.loadRules(g.Dict())
		if err != nil {
			return fmt.Errorf("specqp: encoding replica rules against snapshot dictionary: %w", err)
		}
		rules = rs
	}
	r.eng.Store(NewEngineOver(g, rules, r.opts)) // NewEngineOver freezes
	r.applied.Store(seq)
	return nil
}

// Apply replays one shipped WAL record against the live engine — the
// post-freeze half of recovery's replay-by-kind, verbatim: the caller (the
// follower) guarantees rec.Seq == AppliedSeq()+1.
func (r *Replica) Apply(rec wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng := r.eng.Load()
	if eng == nil {
		return ErrNotBootstrapped
	}
	switch rec.Kind {
	case wal.KindInsert:
		if err := eng.InsertSPO(rec.S, rec.P, rec.O, rec.Score); err != nil {
			return fmt.Errorf("specqp: applying shipped record %d: %w", rec.Seq, err)
		}
	case wal.KindTombstone:
		// Delete by encoded ID, not DeleteSPO: the short-circuit on unknown
		// terms would desynchronise the applied position from the sequence
		// number this record consumed (see loadDurableState).
		d := eng.graph.Dict()
		if _, err := eng.Delete(d.Encode(rec.S), d.Encode(rec.P), d.Encode(rec.O)); err != nil {
			return fmt.Errorf("specqp: applying shipped tombstone %d: %w", rec.Seq, err)
		}
	default:
		return fmt.Errorf("specqp: unsupported shipped record kind %d at seq %d", rec.Kind, rec.Seq)
	}
	r.applied.Store(rec.Seq)
	return nil
}

// AppliedSeq returns the WAL position of the replica's state: the snapshot
// seq of the last install plus every record applied since. It is the
// follower's pull cursor and the replication-lag numerator.
func (r *Replica) AppliedSeq() uint64 { return r.applied.Load() }

// Engine returns the current engine (nil before bootstrap) — the seam the
// oracle harnesses compare through.
func (r *Replica) Engine() *Engine { return r.eng.Load() }

// engine returns the current engine or the bootstrap error.
func (r *Replica) engine() (*Engine, error) {
	if eng := r.eng.Load(); eng != nil {
		return eng, nil
	}
	return nil, ErrNotBootstrapped
}

// ParseSPARQL parses a SPARQL-subset query against the replica's dictionary.
func (r *Replica) ParseSPARQL(src string) (Query, error) {
	eng, err := r.engine()
	if err != nil {
		return Query{}, err
	}
	return eng.ParseSPARQL(src)
}

// QueryTraced executes q traced against the last applied state.
func (r *Replica) QueryTraced(ctx context.Context, q Query, k int, mode Mode) (Result, error) {
	eng, err := r.engine()
	if err != nil {
		return Result{}, err
	}
	return eng.QueryTraced(ctx, q, k, mode)
}

// Stats reports the replica engine's internals; the zero snapshot before
// bootstrap (there is no state to describe yet).
func (r *Replica) Stats() EngineStats {
	eng, err := r.engine()
	if err != nil {
		return EngineStats{}
	}
	return eng.Stats()
}

// QueryStream executes q against the last applied state, streaming answers
// to emit (nil buffers them, as QueryContext does).
func (r *Replica) QueryStream(ctx context.Context, q Query, k int, mode Mode, emit AnswerEmitter) (Result, error) {
	eng, err := r.engine()
	if err != nil {
		return Result{}, err
	}
	return eng.QueryStream(ctx, q, k, mode, emit)
}

// QueryBatchStream executes a query batch against the last applied state,
// streaming answers to emit (nil buffers them, as QueryBatch does).
func (r *Replica) QueryBatchStream(ctx context.Context, queries []Query, k int, mode Mode, emit func(int, Answer) bool) ([]BatchResult, error) {
	eng, err := r.engine()
	if err != nil {
		return nil, err
	}
	return eng.QueryBatchStream(ctx, queries, k, mode, emit)
}

// DecodeAnswer renders an answer's bindings against the replica's dictionary.
// Before bootstrap there is no dictionary; the empty map mirrors an answer
// with no bindings.
func (r *Replica) DecodeAnswer(q Query, a Answer) map[string]string {
	eng := r.eng.Load()
	if eng == nil {
		return map[string]string{}
	}
	return eng.DecodeAnswer(q, a)
}

// readOnlyErr is the mutation refusal: it matches errors.Is(err, ErrWedged),
// so the serving layer's wedged-log discipline (fast 503, read-only health)
// covers replicas without a second code path.
func readOnlyErr(op string) error {
	return fmt.Errorf("specqp: %s on read-only replica: %w", op, ErrWedged)
}

// InsertSPO fails: replicas are read-only; write to the primary.
func (r *Replica) InsertSPO(s, p, o string, score float64) error { return readOnlyErr("insert") }

// DeleteSPO fails: replicas are read-only; write to the primary.
func (r *Replica) DeleteSPO(s, p, o string) (int, error) { return 0, readOnlyErr("delete") }

// UpdateSPO fails: replicas are read-only; write to the primary.
func (r *Replica) UpdateSPO(s, p, o string, score float64) error { return readOnlyErr("update") }

// Sync is a no-op: a replica has nothing of its own to make durable.
func (r *Replica) Sync() error { return nil }

// Checkpoint is a no-op: the primary owns the checkpoint cadence.
func (r *Replica) Checkpoint() error { return nil }

// Wedged reports true always: a replica is permanently read-only, which is
// exactly the state the serving layer renders as "read-only" and answers
// mutations with 503 for.
func (r *Replica) Wedged() bool { return true }

// WALFeed exposes a durable engine's log and checkpoints as a shipping feed
// for a replication primary (see internal/repl). It returns nil on
// non-durable engines — there is no log to ship.
func (e *Engine) WALFeed() *wal.Feed {
	if e.wal == nil {
		return nil
	}
	return wal.NewFeed(e.wal.fs, e.wal.log)
}
