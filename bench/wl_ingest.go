package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"time"

	"specqp"
	"specqp/internal/kg"
	"specqp/internal/relax"
	"specqp/internal/repl"
)

const (
	// ingestHeldShare of the triples is held out as twitter_ingest's inserts:
	// at 70 % inserts half the dataset feeds about 59k mutations, more than a
	// run applies on the reference box.
	ingestHeldShare = 0.50
	probeEvery      = 256
	// opBlock mutations make one latency sample of twitter_ingest: the mean
	// over the block. A single mutation here is one fsync, whose cost on the
	// sandbox's disk moves by a quarter from one ten-minute window to the
	// next; over a block that jitter averages out. The raw per-mutation
	// quantiles — the p99 that compaction and checkpoint stalls set — stay in
	// client.*.
	opBlock = 32
	// ingestSegment samples make one segment of twitter_ingest (there are no
	// passes to align it with): 3200 mutations, most of a second.
	ingestSegment = 100
)

// ingestOptions checkpoints every 256 KiB of log, so that even a
// quarter-length run sees several. The segment size is set below that on
// purpose: a checkpoint can only drop whole segments, so with the default
// 64 MiB segment the log never shrinks under the threshold again and the
// engine checkpoints back to back for the rest of the run (about 500
// checkpoints in 40k inserts at 1 MiB, measured). With 64 KiB segments a
// checkpoint frees what it covers, as it does at the default sizes of both.
var ingestOptions = specqp.Options{SyncPolicy: specqp.SyncAlways, CheckpointBytes: 256 << 10, WALSegmentSize: 64 << 10}

// ingestInstance is twitter_ingest: one writer straight into a durable
// engine, with one follower tailing its log over loopback.
type ingestInstance struct {
	seed       int64
	corp       *corpus
	eng        *specqp.Engine
	queries    []specqp.Query
	dir        string
	base, held []quad
	follow     *follower
}

func setupIngest(c *config) (_ instance, err error) {
	corp, err := generate("twitter", c.scale)
	if err != nil {
		return nil, err
	}
	in := &ingestInstance{seed: c.seed, corp: corp}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	in.base, in.held = split(corp.quads(), ingestHeldShare)
	if in.eng, in.dir, err = openDurable(c, corp, in.base, ingestOptions); err != nil {
		return nil, err
	}
	if in.queries, err = parseAll(in.eng, corp.sparql); err != nil {
		return nil, err
	}
	for _, q := range in.queries {
		if _, err := in.eng.Query(q, queryK, specqp.ModeSpecQP); err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
	}
	if in.follow, err = startFollower(in.eng, corp); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *ingestInstance) corpus() *corpus { return in.corp }

func (in *ingestInstance) close() {
	if in.follow != nil {
		in.follow.stop()
	}
	if in.eng != nil {
		in.eng.Close()
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

func (in *ingestInstance) run(d time.Duration, rec *recorder, tail bool) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}, per: opBlock, segment: ingestSegment}
	muts := mutationStream(rand.New(rand.NewSource(in.seed+1)), in.base, in.held, int(float64(len(in.held))/0.70))
	if tail {
		// Before the first mutation, so the paper metrics do not depend on
		// how far this run gets.
		if err := quality(in.eng, in.queries, pairsOf(len(in.queries), queryK), specqp.ModeSpecQP, nil, out); err != nil {
			return nil, err
		}
	}
	acc := newQueryAcc(in.eng)
	stats0 := in.eng.Stats()
	lag := in.follow.sampleLag(in.eng)

	applied := 0
	var each []time.Duration // every mutation's own latency
	var block time.Duration
	start := time.Now()
	for applied < len(muts) && time.Since(start) < d {
		m := muts[applied]
		t0 := time.Now()
		var err error
		switch m.Op {
		case 'i':
			err = in.eng.InsertSPO(m.S, m.P, m.O, m.Score)
		case 'u':
			err = in.eng.UpdateSPO(m.S, m.P, m.O, m.Score)
		case 'd':
			_, err = in.eng.DeleteSPO(m.S, m.P, m.O)
		}
		t1 := time.Now()
		applied++
		out.attempted++
		each = append(each, t1.Sub(t0))
		if block += t1.Sub(t0); applied%opBlock == 0 {
			out.ops = append(out.ops, block/opBlock)
			out.ends = append(out.ends, t1.Sub(start))
			block = 0
		}
		if err != nil {
			out.fail("mutation %d (%c): %v", applied-1, m.Op, err)
		}
		if rec != nil {
			rec.add("specqp.mutate", 0, rec.request(), t0, t1)
		}
		if applied%probeEvery == 0 {
			q := in.queries[applied/probeEvery%len(in.queries)]
			acc.seeVersion(in.eng)
			p0 := time.Now()
			res, err := in.eng.Query(q, queryK, specqp.ModeSpecQP)
			p1 := time.Now()
			out.attempted++
			if err != nil {
				out.fail("probe query after mutation %d: %v", applied, err)
				continue
			}
			acc.add(p1.Sub(p0), res.PlanTime, res.ExecTime, len(res.Answers), res.MemoryObjects)
			if rec != nil {
				req := rec.request()
				id := rec.add("specqp.query", 0, req, p0, p1)
				rec.derive(id, req, p0, namedDur{"planner.plan", res.PlanTime}, namedDur{"exec.run", res.ExecTime})
			}
		}
	}
	out.wall = time.Since(start)
	lags := lag.stop()
	caught, err := in.follow.waitFor(in.eng.Stats().WALLastSeq, 30*time.Second)
	if err != nil {
		return nil, err
	}

	acc.into(out.layer, in.eng)
	ms := sortedMS(each)
	out.layer["client.mutation_p50_ms"] = quantile(ms, 0.5)
	out.layer["client.mutation_p99_ms"] = quantile(ms, 0.99)
	out.layer["client.mutation_per_s"] = ratio(float64(len(ms)), out.wall.Seconds())
	out.layer["repl.lag_records_p99"] = quantile(lags, 0.99)
	out.layer["repl.catchup_ms"] = float64(caught) / float64(time.Millisecond)
	durableLayer(out.layer, stats0, in.eng.Stats(), muts[:applied])

	// Output checks: the follower, then the engine after a clean close and
	// recovery, against a flat store rebuilt from the surviving triples.
	model := newSurvivors(in.base)
	for _, m := range muts[:applied] {
		model.apply(m)
	}
	oracle, err := in.corp.flatEngine(model.live())
	if err != nil {
		return nil, err
	}
	sameAsOracle("follower", in.follow.replica.Engine(), oracle, in.corp, out)
	in.follow.stop()
	in.follow = nil
	if err := in.eng.Close(); err != nil {
		return nil, fmt.Errorf("closing durable engine: %w", err)
	}
	reopened, took, err := reopen(in.dir, in.corp, ingestOptions)
	if err != nil {
		return nil, err
	}
	in.eng = reopened
	out.layer["client.recovery_s"] = took.Seconds()
	sameAsOracle("recovered engine", in.eng, oracle, in.corp, out)
	return out, nil
}

// ---------------------------------------------------------------------------

// follower is a read replica of eng fed by WAL log shipping over a loopback
// TCP link, all inside this process.
type follower struct {
	primary *repl.Primary
	client  *repl.NetClient
	replica *specqp.Replica
	halt    chan struct{}
	done    chan struct{}
}

// startFollower ships eng's log to a fresh replica and returns once the
// replica has installed its bootstrap snapshot.
func startFollower(eng *specqp.Engine, corp *corpus) (*follower, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &follower{
		primary: repl.NewPrimary(eng.WALFeed(), repl.PrimaryOptions{}),
		client:  repl.NewNetClient(ln.Addr().String(), repl.NetClientOptions{}),
		replica: newReplica(corp),
		halt:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go f.primary.Serve(ln)
	fol := repl.NewFollower(f.client, f.replica, repl.FollowerOptions{})
	go func() { defer close(f.done); fol.Run(f.halt) }()
	for deadline := time.Now().Add(30 * time.Second); f.replica.Engine() == nil; {
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("follower never bootstrapped")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// newReplica returns an empty replica that re-encodes the corpus's rules
// against each snapshot it installs.
func newReplica(corp *corpus) *specqp.Replica {
	r := specqp.NewReplica(nil, specqp.Options{})
	r.SetRulesLoader(func(d *kg.Dict) (*specqp.RuleSet, error) {
		return relax.ReadTSV(bytes.NewReader(corp.rulesTSV), d)
	})
	return r
}

func (f *follower) stop() {
	close(f.halt)
	<-f.done
	f.client.Close()
	f.primary.Close()
}

// waitFor blocks until the replica has applied seq and reports how long that
// took from the call: the catch-up after the last acknowledgement.
func (f *follower) waitFor(seq uint64, limit time.Duration) (time.Duration, error) {
	t0 := time.Now()
	for f.replica.AppliedSeq() < seq {
		if time.Since(t0) > limit {
			return 0, fmt.Errorf("follower stuck at seq %d, primary at %d", f.replica.AppliedSeq(), seq)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(t0), nil
}

// lagSampler reads, once a millisecond, how many records the follower trails
// the primary by.
type lagSampler struct {
	halt    chan struct{}
	samples chan []float64
}

func (f *follower) sampleLag(eng *specqp.Engine) *lagSampler {
	s := &lagSampler{halt: make(chan struct{}), samples: make(chan []float64, 1)}
	go func() {
		var lags []float64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.halt:
				sort.Float64s(lags)
				s.samples <- lags
				return
			case <-tick.C:
				tip, at := eng.Stats().WALLastSeq, f.replica.AppliedSeq()
				lags = append(lags, float64(tip-min(at, tip)))
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the sorted lags.
func (s *lagSampler) stop() []float64 {
	close(s.halt)
	return <-s.samples
}
