package repl

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"specqp/internal/metrics"
	"specqp/internal/wal"
)

// Applier is the store side of a follower: the same replay-by-kind surface
// crash recovery drives, behind an interface so the root package can
// implement it over a live engine. AppliedSeq is the follower's durable
// cursor — every record with Seq <= AppliedSeq() has been applied exactly
// once, and Apply is only ever called with Seq == AppliedSeq()+1.
type Applier interface {
	// InstallSnapshot replaces the entire local state with the snapshot
	// (v2 binary format) covering WAL position seq.
	InstallSnapshot(seq uint64, r io.Reader) error
	// Apply applies one WAL record (insert, tombstone or update) at position
	// AppliedSeq()+1.
	Apply(rec wal.Record) error
	// AppliedSeq returns the last applied WAL position.
	AppliedSeq() uint64
}

// Client is a follower's transport to the primary: whole deliveries in, as
// byte slices — the seam the network fault injector wraps, mirroring how
// wal.MemFS seams the durability layer's filesystem.
type Client interface {
	// Pull requests records after the given position. The primary may answer
	// with a snapshot delivery instead when the position was truncated.
	Pull(afterSeq uint64) ([]byte, error)
	// Bootstrap requests the current checkpoint snapshot.
	Bootstrap() ([]byte, error)
	Close() error
}

// NetClientOptions tunes the TCP transport.
type NetClientOptions struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// IOTimeout bounds each request/response round trip; it must exceed the
	// primary's PollWait or every caught-up long poll looks like a hang
	// (default 10s).
	IOTimeout time.Duration
	// MaxDeliveryBytes bounds a delivery's claimed body length (default
	// 1 GiB). The body buffer still grows only with bytes actually read.
	MaxDeliveryBytes uint64
	// Metrics counts redials when set.
	Metrics *metrics.ReplicationMetrics
}

func (o NetClientOptions) withDefaults() NetClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 10 * time.Second
	}
	if o.MaxDeliveryBytes == 0 {
		o.MaxDeliveryBytes = 1 << 30
	}
	return o
}

// NetClient is the TCP Client: one persistent connection, redialed on demand
// after any failure. Every read is bounded — the header frame is fixed-size
// and CRC-checked before its body length is believed, and the body is read
// in chunks so allocation tracks delivery, not claims.
type NetClient struct {
	addr string
	opts NetClientOptions

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	dialed bool
}

// NewNetClient returns a client for the primary listening at addr. No
// connection is made until the first request.
func NewNetClient(addr string, opts NetClientOptions) *NetClient {
	return &NetClient{addr: addr, opts: opts.withDefaults()}
}

// Pull implements Client.
func (c *NetClient) Pull(afterSeq uint64) ([]byte, error) { return c.roundTrip(opPull, afterSeq) }

// Bootstrap implements Client.
func (c *NetClient) Bootstrap() ([]byte, error) { return c.roundTrip(opSnapshot, 0) }

// Close drops the connection.
func (c *NetClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn, c.br = nil, nil
		return err
	}
	return nil
}

// roundTrip sends one request and reads one delivery. Any failure tears the
// connection down; the next call redials — which is exactly the resume-after-
// disconnect path, since the follower re-sends its position every pull.
func (c *NetClient) roundTrip(op byte, afterSeq uint64) (data []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		conn, derr := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
		if derr != nil {
			return nil, derr
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 1<<16)
		if c.dialed && c.opts.Metrics != nil {
			c.opts.Metrics.Redials.Add(1)
		}
		c.dialed = true
	}
	defer func() {
		if err != nil && c.conn != nil {
			c.conn.Close()
			c.conn, c.br = nil, nil
		}
	}()
	if err := c.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout)); err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(AppendRequest(nil, op, afterSeq)); err != nil {
		return nil, err
	}
	head := make([]byte, HeaderFrameLen)
	if _, err := io.ReadFull(c.br, head); err != nil {
		return nil, err
	}
	h, err := ParseHeader(head)
	if err != nil {
		return nil, err
	}
	if h.BodyLen > c.opts.MaxDeliveryBytes {
		return nil, corruptf("delivery body claims %d bytes (bound %d)", h.BodyLen, c.opts.MaxDeliveryBytes)
	}
	data = head
	const chunk = 1 << 20
	for read := uint64(0); read < h.BodyLen; {
		step := h.BodyLen - read
		if step > chunk {
			step = chunk
		}
		start := len(data)
		data = append(data, make([]byte, step)...)
		if _, err := io.ReadFull(c.br, data[start:]); err != nil {
			return nil, err
		}
		read += step
	}
	return data, nil
}

// FollowerOptions tunes the tailing loop.
type FollowerOptions struct {
	// RetryDelay is the pause after a failed round trip before redialing
	// (default 50ms).
	RetryDelay time.Duration
	// IdleDelay is the pause after a successful but empty round trip — only
	// relevant on transports without a server-side long poll (default 2ms).
	IdleDelay time.Duration
	// Metrics receives position gauges and event counters when set.
	Metrics *metrics.ReplicationMetrics
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.RetryDelay <= 0 {
		o.RetryDelay = 50 * time.Millisecond
	}
	if o.IdleDelay <= 0 {
		o.IdleDelay = 2 * time.Millisecond
	}
	return o
}

// Follower tails a primary through a Client and applies deliveries to an
// Applier with crash-recovery discipline:
//
//   - Bootstrap: the first successful delivery must be a snapshot — the
//     checkpoint is the only self-contained state; records alone never are.
//   - Duplicates and replays: records at or below the applied position are
//     skipped, so a replayed delivery applies nothing twice.
//   - Gaps: a record beyond position+1 stops the batch — the rest chains off
//     a record we do not have, exactly the WAL sequence-break rule.
//   - Truncation fallback: a snapshot delivery ahead of the applied position
//     reinstalls state wholesale; one at or below it is stale and ignored
//     (a follower never rewinds).
type Follower struct {
	client Client
	app    Applier
	opts   FollowerOptions

	mu        sync.Mutex
	installed bool
}

// NewFollower returns a Follower applying deliveries from client to app.
func NewFollower(client Client, app Applier, opts FollowerOptions) *Follower {
	return &Follower{client: client, app: app, opts: opts.withDefaults()}
}

// AppliedSeq returns the applier's position (the follower's pull cursor).
func (f *Follower) AppliedSeq() uint64 { return f.app.AppliedSeq() }

// Step performs one round trip: pull (or bootstrap), parse, apply.
// progressed reports whether any state changed. Errors are retryable —
// transport failures and corrupt deliveries alike leave the applied state
// consistent, and the next Step resumes from the same position.
func (f *Follower) Step() (progressed bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var data []byte
	if !f.installed {
		data, err = f.client.Bootstrap()
	} else {
		data, err = f.client.Pull(f.app.AppliedSeq())
	}
	if err != nil {
		return false, err
	}
	return f.ingest(data)
}

// ingest parses and applies one delivery (caller holds f.mu).
func (f *Follower) ingest(data []byte) (bool, error) {
	m := f.opts.Metrics
	d, err := ParseDelivery(data)
	if err != nil {
		if m != nil {
			m.Corrupt.Add(1)
		}
		return false, err
	}
	if m != nil {
		m.Deliveries.Add(1)
		m.SetPrimary(d.PrimarySeq)
	}
	switch d.Type {
	case DeliverySnapshot:
		if f.installed && d.Seq <= f.app.AppliedSeq() {
			return false, nil // stale or replayed snapshot — never rewind
		}
		if err := f.app.InstallSnapshot(d.Seq, bytes.NewReader(d.Snapshot)); err != nil {
			return false, err
		}
		f.installed = true
		if m != nil {
			m.SnapshotsInstalled.Add(1)
			m.SetApplied(d.Seq)
		}
		return true, nil
	default: // DeliveryRecords, per ParseDelivery
		if !f.installed {
			// Records without a state root are unusable; ask for the
			// snapshot again next Step.
			return false, fmt.Errorf("repl: records delivery before snapshot bootstrap")
		}
		progressed := false
		for _, r := range d.Records {
			applied := f.app.AppliedSeq()
			if r.Seq <= applied {
				continue // duplicate of an applied record
			}
			if r.Seq != applied+1 {
				break // gap: the rest chains off records we do not have
			}
			if err := f.app.Apply(r); err != nil {
				return progressed, err
			}
			progressed = true
			if m != nil {
				m.RecordsApplied.Add(1)
				m.SetApplied(r.Seq)
			}
		}
		return progressed, nil
	}
}

// Run tails until stop closes: Step in a loop, with RetryDelay after
// failures and IdleDelay after empty rounds. The Metrics connected gauge
// tracks the last round trip's outcome.
func (f *Follower) Run(stop <-chan struct{}) {
	m := f.opts.Metrics
	for {
		select {
		case <-stop:
			return
		default:
		}
		progressed, err := f.Step()
		if m != nil {
			m.SetConnected(err == nil)
		}
		var pause time.Duration
		switch {
		case err != nil:
			pause = f.opts.RetryDelay
		case !progressed:
			pause = f.opts.IdleDelay
		default:
			continue
		}
		select {
		case <-stop:
			return
		case <-time.After(pause):
		}
	}
}
