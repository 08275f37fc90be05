package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// On-disk record framing (all integers little-endian):
//
//	u32 payloadLen
//	u32 crc32c(payload)
//	payload:
//	  u64 seq
//	  u8  kind
//	  u32 len(S) | S bytes
//	  u32 len(P) | P bytes
//	  u32 len(O) | O bytes
//	  u64 scoreBits (IEEE-754)
//
// The CRC covers the payload only; a corrupt length field fails either the
// sanity bound or the CRC of whatever bytes it frames. Sequence numbers are
// assigned densely starting at 1 and never reused, so recovery can verify
// continuity across segment boundaries and a snapshot's position in the log
// is just "the last sequence number it covers".

// Kind identifiers. The reader fails loudly on kinds it does not understand
// rather than skipping records whose semantics it would silently drop.
const (
	// KindInsert logs one triple insertion; Score carries the triple score.
	KindInsert = byte(1)
	// KindTombstone logs a retraction of every live copy of the (S,P,O)
	// key; Score is ignored and written as 0.
	KindTombstone = byte(2)
	// KindUpdate logs a latest-wins re-score of the (S,P,O) key to Score:
	// every live copy retracted and one copy inserted, as one record and one
	// sequence number. Logs written before this kind existed carry an update
	// as a KindTombstone followed by a KindInsert, which replays to the same
	// state.
	KindUpdate = byte(3)
)

// Record is one logged operation. S, P, O are the triple's term strings —
// not dictionary IDs — so replay is deterministic under any shard count and
// any dictionary history: terms re-encode in log order, and subject-hash
// routing re-derives the same global insertion order the acked inserts had.
type Record struct {
	Seq   uint64
	Kind  byte
	S     string
	P     string
	O     string
	Score float64
}

// MaxTermLen mirrors the binary snapshot reader's per-term sanity bound
// (kg.MaxTermLen — the durability layer asserts the two are equal at compile
// time, so they cannot drift apart silently).
const MaxTermLen = 1 << 24

// maxPayload bounds a record's payload: three maximal terms plus the fixed
// fields. Anything larger in a length field is treated as corruption.
const maxPayload = 3*(4+MaxTermLen) + 8 + 1 + 8

// castagnoli is the CRC32C table (the polynomial used by ext4, iSCSI and
// most storage formats, with hardware support on current CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordSize returns the framed size of r.
func recordSize(r Record) int {
	return 8 + 8 + 1 + 4 + len(r.S) + 4 + len(r.P) + 4 + len(r.O) + 8
}

// appendRecord frames r onto buf.
func appendRecord(buf []byte, r Record) []byte {
	payloadLen := recordSize(r) - 8
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC patched below
	pstart := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = append(buf, r.Kind)
	for _, s := range [3]string{r.S, r.P, r.O} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Score))
	crc := crc32.Checksum(buf[pstart:], castagnoli)
	binary.LittleEndian.PutUint32(buf[start+4:], crc)
	return buf
}

// validRecord checks the invariants a writer enforces before framing, so a
// record that passes CRC at replay but violates them is reported as
// corruption rather than applied.
func validRecord(r Record) error {
	if r.Kind < KindInsert || r.Kind > KindUpdate {
		return fmt.Errorf("wal: unsupported record kind %d", r.Kind)
	}
	if len(r.S) > MaxTermLen || len(r.P) > MaxTermLen || len(r.O) > MaxTermLen {
		return fmt.Errorf("wal: term exceeds %d bytes", MaxTermLen)
	}
	if r.Score < 0 || math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
		return fmt.Errorf("wal: invalid score %v", r.Score)
	}
	return nil
}

// parsePayload decodes a CRC-verified payload into a Record. Structural
// errors (short fields, oversized terms, unknown kinds, invalid scores) are
// corruption from the reader's point of view.
func parsePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 8+1 {
		return r, fmt.Errorf("wal: payload truncated (%d bytes)", len(p))
	}
	r.Seq = binary.LittleEndian.Uint64(p)
	r.Kind = p[8]
	p = p[9:]
	for _, dst := range [3]*string{&r.S, &r.P, &r.O} {
		if len(p) < 4 {
			return r, fmt.Errorf("wal: term length truncated")
		}
		l := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if l > MaxTermLen {
			return r, fmt.Errorf("wal: term length %d exceeds bound", l)
		}
		if uint32(len(p)) < l {
			return r, fmt.Errorf("wal: term bytes truncated")
		}
		*dst = string(p[:l])
		p = p[l:]
	}
	if len(p) != 8 {
		return r, fmt.Errorf("wal: payload tail is %d bytes, want 8", len(p))
	}
	r.Score = math.Float64frombits(binary.LittleEndian.Uint64(p))
	if err := validRecord(r); err != nil {
		return r, err
	}
	return r, nil
}
