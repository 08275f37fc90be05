package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// metricDef is one row of BENCHMARK.json: the tables below are the single
// source of the names, units, directions and bounds (a test holds the JSON
// file to them).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a caller of the system sees. Every workload prints every
// row, so each is defined on all six: "op" is the workload's own operation —
// one top-k query on the five query workloads, one acknowledged mutation on
// twitter_ingest (sampled as the mean over blocks of opBlock). The three op_*
// rows are medians over the segments of a run (see segmentMedians).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"op_p90_ms", "ms", lower, 0.25},
	{"op_per_s", "1/s", higher, 0.25},
	{"precision_at_k", "ratio", higher, 0.02},
	{"memory_objects", "count", lower, 0.02},
	{"heap_live_mb", "MiB", lower, 0.05},
}

// perLayer is emitted by the traced run. A row is 0 on a workload that does
// not cross the layer (wal.fsyncs on a read-only workload, server.* on a
// library workload).
var perLayer = []metricDef{
	// client: caller-visible numbers only some workloads have, so the
	// end-to-end table (printed by all six) cannot carry them.
	{Name: "client.op_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.ttfa_p50_ms", Unit: "ms", Better: lower},
	{Name: "client.mutation_p50_ms", Unit: "ms", Better: lower},
	{Name: "client.mutation_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.mutation_per_s", Unit: "1/s", Better: higher},
	{Name: "client.recovery_s", Unit: "s", Better: lower},

	{Name: "sparql.parse_us", Unit: "us", Better: lower},

	{Name: "stats.pattern_dist_us", Unit: "us", Better: lower},
	{Name: "stats.exact_count_us", Unit: "us", Better: lower},
	{Name: "stats.convolve_us", Unit: "us", Better: lower},
	{Name: "stats.cold_frac", Unit: "ratio", Better: lower},

	{Name: "planner.plan_cold_us", Unit: "us", Better: lower},
	{Name: "planner.plan_warm_us", Unit: "us", Better: lower},
	{Name: "planner.plan_share", Unit: "ratio", Better: lower},
	{Name: "planner.cache_hit_frac", Unit: "ratio", Better: higher},
	{Name: "planner.relaxed_per_query", Unit: "count", Better: lower},
	{Name: "planner.prediction_exact_frac", Unit: "ratio", Better: higher},
	{Name: "planner.score_error", Unit: "score", Better: lower},

	{Name: "relax.legs_per_query.specqp", Unit: "count", Better: lower},
	{Name: "relax.legs_per_query.trinit", Unit: "count", Better: lower},

	{Name: "kg.matchlist_ns", Unit: "ns", Better: lower},
	{Name: "kg.matchlist_allocs", Unit: "count", Better: lower},
	{Name: "kg.matchlist_l1_ns", Unit: "ns", Better: lower},
	{Name: "kg.pin_us", Unit: "us", Better: lower},
	{Name: "kg.freeze_ms", Unit: "ms", Better: lower},
	{Name: "kg.bytes_per_triple", Unit: "B", Better: lower},
	{Name: "kg.insert_us", Unit: "us", Better: lower},
	{Name: "kg.delete_us", Unit: "us", Better: lower},
	{Name: "kg.delete_at_10k_tombstones_us", Unit: "us", Better: lower},
	{Name: "kg.compact_full_ms", Unit: "ms", Better: lower},
	{Name: "kg.compact_tiered_ms", Unit: "ms", Better: lower},
	{Name: "kg.compactions", Unit: "count", Better: lower},
	{Name: "kg.snapshot_mb_per_s", Unit: "MiB/s", Better: higher},

	{Name: "operators.listscan_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "operators.shardedscan_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "operators.incmerge_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "operators.rankjoin_ns_per_answer", Unit: "ns", Better: lower},
	{Name: "operators.nrjn_ns_per_answer", Unit: "ns", Better: lower},
	{Name: "operators.allocs_per_query", Unit: "count", Better: lower},

	{Name: "exec.exec_us", Unit: "us", Better: lower},
	{Name: "exec.exec_share", Unit: "ratio", Better: lower},
	{Name: "exec.objects_per_answer", Unit: "count", Better: lower},

	{Name: "specqp.self_us", Unit: "us", Better: lower},
	{Name: "specqp.decode_us_per_answer", Unit: "us", Better: lower},
	{Name: "specqp.batch_speedup", Unit: "ratio", Better: higher},
	{Name: "specqp.sharded_speedup", Unit: "ratio", Better: higher},
	{Name: "specqp.traced_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "specqp.checkpoint_ms", Unit: "ms", Better: lower},
	{Name: "specqp.checkpoints", Unit: "count", Better: lower},
	{Name: "specqp.recovery_replay_records_per_s", Unit: "1/s", Better: higher},

	{Name: "wal.append_us.always", Unit: "us", Better: lower},
	{Name: "wal.append_us.interval", Unit: "us", Better: lower},
	{Name: "wal.append_us.none", Unit: "us", Better: lower},
	{Name: "wal.fsyncs", Unit: "count", Better: lower},
	{Name: "wal.fsync_us", Unit: "us", Better: lower},
	{Name: "wal.group_commit_size", Unit: "count", Better: higher},
	{Name: "wal.bytes_per_mutation", Unit: "B", Better: lower},

	{Name: "repl.ship_records_per_s", Unit: "1/s", Better: higher},
	{Name: "repl.bootstrap_ms", Unit: "ms", Better: lower},
	{Name: "repl.lag_records_p99", Unit: "count", Better: lower},
	{Name: "repl.catchup_ms", Unit: "ms", Better: lower},

	{Name: "server.self_us", Unit: "us", Better: lower},
	{Name: "server.queue_wait_us", Unit: "us", Better: lower},
	{Name: "server.ttfa_gap_us", Unit: "us", Better: lower},
	{Name: "server.bytes_per_response", Unit: "B", Better: lower},
	{Name: "server.shed_frac", Unit: "ratio", Better: lower},
	{Name: "server.degraded_frac", Unit: "ratio", Better: lower},

	{Name: "bench.http_transport_us", Unit: "us", Better: lower},
	{Name: "bench.loadgen_late_p99_ms", Unit: "ms", Better: lower},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "bench.unattributed_frac", Unit: "ratio", Better: lower},
	{Name: "bench.gc_pause_ms", Unit: "ms", Better: lower},
}

// quantile returns the exact q-quantile of sorted samples by the
// nearest-rank rule: the smallest sample with at least q of the samples at or
// below it. No interpolation, no buckets.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// samplesBeyond is how many of n samples lie strictly above the q-quantile.
// A tail percentile is only trusted with at least ten: the named tail is
// always p90 of a segment (a definition that moved with the sample count
// could not be compared across runs), and a run whose segments give it fewer
// says so on stderr.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// tailQ is the tail the end-to-end table reports: the highest percentile that
// leaves ten samples beyond it in a segment of a hundred.
const tailQ = 0.90

// segmentMedians cuts a run's latency samples, in the order they were issued,
// into segments of segment samples, takes each segment's median, tail and
// completion rate (per ops a sample, over the time from the previous segment's
// last completion to its own; ends are offsets from the start of the window),
// and returns the medians of the three over the segments.
//
// The host this runs on is shared: for a second or four at a time everything
// is half as fast again. A whole-run p99 is by construction the slowest
// hundredth of the run, so it reports those bursts and little else (30 %
// spread between ten runs of the same code, measured); a burst moves only the
// segments it hits, and the median over segments leaves them out.
//
// A trailing part-segment is dropped. A run shorter than one segment is one
// segment, rated over wall.
func segmentMedians(ops, ends []time.Duration, segment, per int, wall time.Duration) (p50, tail, rate float64) {
	if segment <= 0 || segment > len(ops) {
		segment = len(ops)
	}
	if segment == 0 {
		return 0, 0, 0
	}
	var p50s, tails, rates []float64
	var prev time.Duration
	for lo := 0; lo+segment <= len(ops); lo += segment {
		ms := sortedMS(ops[lo : lo+segment])
		p50s = append(p50s, quantile(ms, 0.50))
		tails = append(tails, quantile(ms, tailQ))
		last := slices.Max(ends[lo : lo+segment])
		if segment == len(ops) {
			last = wall
		}
		rates = append(rates, ratio(float64(segment*per), (last-prev).Seconds()))
		prev = last
	}
	return median(p50s), median(tails), median(rates)
}

func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the driver computes spreads with.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func meanDur(sum time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
