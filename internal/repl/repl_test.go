package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"specqp/internal/wal"
)

// fakeApplier models the follower's store as the literal recovery state:
// the installed snapshot bytes plus the records applied after it. It asserts
// the Applier contract on every call — records arrive exactly once, exactly
// in sequence.
type fakeApplier struct {
	t *testing.T

	mu       sync.Mutex
	snapSeq  uint64
	snapData []byte
	installs int
	recs     []wal.Record
	applied  uint64
}

func (a *fakeApplier) InstallSnapshot(seq uint64, r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if seq < a.applied {
		a.t.Errorf("InstallSnapshot(%d) would rewind applied %d", seq, a.applied)
	}
	a.snapSeq, a.snapData = seq, data
	a.installs++
	a.recs = a.recs[:0]
	a.applied = seq
	return nil
}

func (a *fakeApplier) Apply(r wal.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r.Seq != a.applied+1 {
		a.t.Errorf("Apply(seq %d) at applied %d breaks continuity", r.Seq, a.applied)
	}
	a.recs = append(a.recs, r)
	a.applied = r.Seq
	return nil
}

func (a *fakeApplier) AppliedSeq() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

func (a *fakeApplier) state() (uint64, []byte, []wal.Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snapSeq, a.snapData, append([]wal.Record(nil), a.recs...)
}

// plantCheckpoint writes a snapshot file with recognizable content and
// commits it through the manifest — what the engine's checkpoint does, minus
// the real store payload.
func plantCheckpoint(t *testing.T, fs wal.FS, seq uint64) []byte {
	t.Helper()
	content := []byte(fmt.Sprintf("snapshot@%d", seq))
	name := wal.SnapshotName(seq)
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := wal.WriteManifest(fs, wal.Manifest{Snapshot: name, SnapshotSeq: seq}); err != nil {
		t.Fatal(err)
	}
	return content
}

func shipRec(i int) wal.Record {
	if i%5 == 4 {
		return wal.Record{Kind: wal.KindTombstone, S: fmt.Sprintf("s%d", i-1), P: "p", O: fmt.Sprintf("o%d", i-1)}
	}
	return wal.Record{Kind: wal.KindInsert, S: fmt.Sprintf("s%d", i), P: "p", O: fmt.Sprintf("o%d", i), Score: float64(i%7) + 0.25}
}

// shipFixture builds a primary over a MemFS log with n appended records.
func shipFixture(t *testing.T, n int) (wal.FS, *wal.Log, *Primary) {
	t.Helper()
	fs := wal.NewMemFS()
	plantCheckpoint(t, fs, 0)
	l, _, err := wal.Open(fs, wal.Options{Policy: wal.SyncAlways, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for i := 0; i < n; i++ {
		if err := l.Append(shipRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	return fs, l, NewPrimary(wal.NewFeed(fs, l), PrimaryOptions{MaxBatchBytes: 256, PollWait: -1})
}

// driveTo steps the follower until the applier reaches the target position,
// tolerating injected faults and the torn deliveries they produce (both are
// retryable by design — only a real failure is fatal).
func driveTo(t *testing.T, f *Follower, a *fakeApplier, target uint64, maxSteps int) {
	t.Helper()
	for steps := 1; steps <= maxSteps; steps++ {
		if a.AppliedSeq() >= target {
			return
		}
		if _, err := f.Step(); err != nil && !errors.Is(err, ErrInjected) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("step %d: %v", steps, err)
		}
	}
	t.Fatalf("follower stuck at %d of %d after %d steps", a.AppliedSeq(), target, maxSteps)
}

func assertCaughtUp(t *testing.T, a *fakeApplier, snapContent []byte, snapSeq uint64, n int) {
	t.Helper()
	gotSnapSeq, gotSnap, recs := a.state()
	if gotSnapSeq != snapSeq {
		t.Fatalf("snapshot seq = %d, want %d", gotSnapSeq, snapSeq)
	}
	if string(gotSnap) != string(snapContent) {
		t.Fatalf("snapshot content = %q, want %q", gotSnap, snapContent)
	}
	if a.AppliedSeq() != uint64(n) {
		t.Fatalf("applied = %d, want %d", a.AppliedSeq(), n)
	}
	for i, r := range recs {
		wantSeq := snapSeq + uint64(i) + 1
		want := shipRec(int(wantSeq) - 1)
		want.Seq = wantSeq
		if r != want {
			t.Fatalf("applied record %d = %+v, want %+v", i, r, want)
		}
	}
}

func TestFollowerCatchesUpLocal(t *testing.T) {
	const n = 40
	fs, _, p := shipFixture(t, n)
	snap := plantCheckpoint(t, fs, 0) // rewrite so content is deterministic
	a := &fakeApplier{t: t}
	f := NewFollower(&LocalClient{Primary: p}, a, FollowerOptions{})
	driveTo(t, f, a, n, 200)
	assertCaughtUp(t, a, snap, 0, n)
	if a.installs != 1 {
		t.Fatalf("installs = %d, want exactly one bootstrap snapshot", a.installs)
	}
}

func TestFollowerJoinsMidStreamAfterTruncation(t *testing.T) {
	const n = 60
	fs, l, p := shipFixture(t, n)
	// Checkpoint at 45 and truncate: a fresh follower must bootstrap from the
	// snapshot and replay only 46..60.
	snap := plantCheckpoint(t, fs, 45)
	if err := l.TruncateThrough(45); err != nil {
		t.Fatal(err)
	}
	a := &fakeApplier{t: t}
	f := NewFollower(&LocalClient{Primary: p}, a, FollowerOptions{})
	driveTo(t, f, a, n, 200)
	assertCaughtUp(t, a, snap, 45, n)
}

func TestFollowerFallsBackToSnapshotWhenLagTruncated(t *testing.T) {
	const n = 30
	fs, l, p := shipFixture(t, n)
	plantCheckpoint(t, fs, 0)
	a := &fakeApplier{t: t}
	f := NewFollower(&LocalClient{Primary: p}, a, FollowerOptions{})
	// Apply a short prefix only.
	if _, err := f.Step(); err != nil { // bootstrap
		t.Fatal(err)
	}
	if _, err := f.Step(); err != nil { // first batch
		t.Fatal(err)
	}
	lagged := a.AppliedSeq()
	if lagged == 0 || lagged == n {
		t.Fatalf("fixture produced no lag window (applied %d)", lagged)
	}
	// The primary checkpoints beyond the follower's position and truncates.
	cpSeq := lagged + 10
	snap := plantCheckpoint(t, fs, cpSeq)
	if err := l.TruncateThrough(cpSeq); err != nil {
		t.Fatal(err)
	}
	driveTo(t, f, a, n, 200)
	if a.installs != 2 {
		t.Fatalf("installs = %d, want bootstrap + truncation fallback", a.installs)
	}
	assertCaughtUp(t, a, snap, cpSeq, n)
}

func TestFollowerTailsLiveAppends(t *testing.T) {
	fs, l, p := shipFixture(t, 10)
	snap := plantCheckpoint(t, fs, 0)
	a := &fakeApplier{t: t}
	f := NewFollower(&LocalClient{Primary: p}, a, FollowerOptions{})
	driveTo(t, f, a, 10, 100)
	for i := 10; i < 25; i++ {
		if err := l.Append(shipRec(i)); err != nil {
			t.Fatal(err)
		}
		driveTo(t, f, a, uint64(i)+1, 100)
	}
	assertCaughtUp(t, a, snap, 0, 25)
}

func TestNetClientOverTCP(t *testing.T) {
	const n = 35
	fs, l, p := shipFixture(t, n)
	snap := plantCheckpoint(t, fs, 0)
	p.opts.PollWait = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	defer p.Close()

	c := NewNetClient(ln.Addr().String(), NetClientOptions{IOTimeout: 2 * time.Second})
	defer c.Close()
	a := &fakeApplier{t: t}
	f := NewFollower(c, a, FollowerOptions{})
	driveTo(t, f, a, n, 200)
	assertCaughtUp(t, a, snap, 0, n)

	// Disconnect mid-stream: the next pull redials and resumes from the
	// applied position — nothing re-applies, nothing is skipped.
	c.Close()
	for i := n; i < n+12; i++ {
		if err := l.Append(shipRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	driveTo(t, f, a, n+12, 200)
	assertCaughtUp(t, a, snap, 0, n+12)
}

func TestFaultClientConvergesUnderAllFaults(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234, 99991} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const n = 80
			fs, l, p := shipFixture(t, n)
			snap := plantCheckpoint(t, fs, 0)
			fc := NewFaultClient(&LocalClient{Primary: p}, FaultOptions{
				Seed:       seed,
				Drop:       0.15,
				Duplicate:  0.15,
				Delay:      0.15,
				Truncate:   0.2,
				ByteBudget: 4096,
			})
			a := &fakeApplier{t: t}
			f := NewFollower(fc, a, FollowerOptions{})
			driveTo(t, f, a, n, 5000)
			// Live appends while the link keeps misbehaving.
			for i := n; i < n+20; i++ {
				if err := l.Append(shipRec(i)); err != nil {
					t.Fatal(err)
				}
			}
			driveTo(t, f, a, n+20, 5000)
			assertCaughtUp(t, a, snap, 0, n+20)
			c := fc.Counts()
			if c.Drops == 0 || c.Duplicates == 0 || c.Delays == 0 || c.Truncations == 0 || c.Kills == 0 {
				t.Fatalf("fault schedule did not exercise every hazard: %+v", c)
			}
		})
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, op := range []byte{opPull, opSnapshot} {
		buf := AppendRequest(nil, op, 7777)
		gotOp, after, err := ParseRequest(buf)
		if err != nil || gotOp != op || after != 7777 {
			t.Fatalf("round trip op=%d: got (%d, %d, %v)", op, gotOp, after, err)
		}
	}
	if _, _, err := ParseRequest([]byte("short")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short request = %v, want ErrCorrupt", err)
	}
	buf := AppendRequest(nil, opPull, 1)
	buf[9]++ // flip a payload byte under the CRC
	if _, _, err := ParseRequest(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt request = %v, want ErrCorrupt", err)
	}
}

func TestParseDeliveryRejectsTornSnapshot(t *testing.T) {
	fs, _, p := shipFixture(t, 3)
	plantCheckpoint(t, fs, 0)
	data, _, err := p.DeliverSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDelivery(data[:len(data)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn snapshot = %v, want ErrCorrupt", err)
	}
	if _, err := ParseDelivery(data); err != nil {
		t.Fatalf("whole snapshot rejected: %v", err)
	}
}

func TestParseDeliveryTornRecordsYieldPrefix(t *testing.T) {
	_, _, p := shipFixture(t, 10)
	data, n, err := p.DeliverRecords(0)
	if err != nil || n == 0 {
		t.Fatalf("DeliverRecords: n=%d err=%v", n, err)
	}
	whole, err := ParseDelivery(data)
	if err != nil {
		t.Fatal(err)
	}
	for cut := HeaderFrameLen; cut < len(data); cut += 7 {
		d, err := ParseDelivery(data[:cut])
		if err != nil {
			t.Fatalf("torn records at %d rejected: %v", cut, err)
		}
		if len(d.Records) > len(whole.Records) {
			t.Fatalf("torn delivery yields more records than the whole one")
		}
		for i, r := range d.Records {
			if r != whole.Records[i] {
				t.Fatalf("torn prefix record %d differs", i)
			}
		}
	}
}

// ParseDelivery walks the body it was handed: parsing allocates what the
// returned records need, not a read buffer.
func TestParseDeliveryAllocs(t *testing.T) {
	fs, l, _ := shipFixture(t, 200)
	p := NewPrimary(wal.NewFeed(fs, l), PrimaryOptions{MaxBatchBytes: 1 << 20, PollWait: -1})
	data, n, err := p.DeliverRecords(0)
	if err != nil || n != 200 {
		t.Fatalf("DeliverRecords: n=%d err=%v", n, err)
	}
	parse := func() {
		if d, err := ParseDelivery(data); err != nil || len(d.Records) != n {
			t.Fatalf("ParseDelivery = %d records, %v; want %d", len(d.Records), err, n)
		}
	}
	parse()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(n)
	if per > 512 {
		t.Errorf("ParseDelivery allocates %.0f B per record, want at most 512", per)
	}
}
