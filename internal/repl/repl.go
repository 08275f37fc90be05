// Package repl is WAL log shipping: a primary serves its write-ahead log and
// checkpoints to followers over a length-prefixed, CRC-framed protocol, and a
// follower applies what it receives exactly like crash recovery would — the
// snapshot restart rule when its position has been truncated away, torn-tail
// truncation of partial deliveries, and strict sequence-continuity chaining,
// so a replayed, reordered or torn delivery can never apply a record twice or
// out of order.
//
// The wire format reuses the WAL's own record framing (a shipped record and a
// logged record are the same bytes — see wal.FrameRecord) and the v2 binary
// snapshot format, so the follower's ingest path is the recovery path with a
// socket where the directory used to be.
//
// Layout (all integers little-endian):
//
//	request  := u32 payloadLen | u32 crc32c(payload) | payload
//	payload  := u8 version | u8 op | u64 afterSeq
//	             op 1 (pull): records with Seq > afterSeq
//	             op 2 (snapshot): the current checkpoint, for bootstrap
//
//	delivery := header | body
//	header   := u32 payloadLen | u32 crc32c(payload) | payload
//	payload  := u8 version | u8 type | u64 bodyLen | u32 bodyCRC |
//	            u64 seq | u64 primarySeq
//	body     := type 1 (records): concatenated WAL record frames
//	            type 2 (snapshot): v2 binary snapshot, crc32c == bodyCRC
//
// A records body is self-verifying per record (each frame carries its own
// CRC), so a mid-frame truncation yields a shorter valid prefix — the WAL's
// torn-tail rule on the wire. A snapshot body is all-or-nothing: bodyCRC must
// cover it exactly or the delivery is rejected. seq is the position of the
// last record in the body (type 1) or the position the snapshot covers
// (type 2); primarySeq is the primary's newest position at build time, which
// is what the follower derives its lag gauge from.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"specqp/internal/wal"
)

const (
	// protoVersion is the only wire version this package speaks. Bumped on
	// any layout change; both ends reject versions they do not know.
	protoVersion = byte(1)

	// Request operations.
	opPull     = byte(1)
	opSnapshot = byte(2)

	// Delivery body types.
	DeliveryRecords  = byte(1)
	DeliverySnapshot = byte(2)

	reqPayloadLen = 1 + 1 + 8
	hdrPayloadLen = 1 + 1 + 8 + 4 + 8 + 8

	// HeaderFrameLen is the fixed byte length of a delivery header frame
	// (and, with reqPayloadLen, of a request frame).
	HeaderFrameLen = 8 + hdrPayloadLen
)

// castagnoli matches the WAL's CRC32C polynomial — one checksum discipline
// end to end.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a delivery or request that failed structural or CRC
// validation. Torn frames, hostile lengths and replay residue all land here;
// the receiver drops the delivery and re-pulls.
var ErrCorrupt = errors.New("repl: corrupt frame")

// corruptf wraps a detail message so errors.Is(err, ErrCorrupt) holds.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// AppendRequest frames one request onto buf.
func AppendRequest(buf []byte, op byte, afterSeq uint64) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, reqPayloadLen)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC patched below
	pstart := len(buf)
	buf = append(buf, protoVersion, op)
	buf = binary.LittleEndian.AppendUint64(buf, afterSeq)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[pstart:], castagnoli))
	return buf
}

// ParseRequest decodes one request frame.
func ParseRequest(data []byte) (op byte, afterSeq uint64, err error) {
	if len(data) < 8 {
		return 0, 0, corruptf("request truncated (%d bytes)", len(data))
	}
	plen := binary.LittleEndian.Uint32(data[:4])
	crc := binary.LittleEndian.Uint32(data[4:8])
	if plen != reqPayloadLen {
		return 0, 0, corruptf("request payload length %d, want %d", plen, reqPayloadLen)
	}
	if len(data) < 8+reqPayloadLen {
		return 0, 0, corruptf("request truncated (%d bytes)", len(data))
	}
	p := data[8 : 8+reqPayloadLen]
	if crc32.Checksum(p, castagnoli) != crc {
		return 0, 0, corruptf("request crc mismatch")
	}
	if p[0] != protoVersion {
		return 0, 0, corruptf("unsupported protocol version %d", p[0])
	}
	op = p[1]
	if op != opPull && op != opSnapshot {
		return 0, 0, corruptf("unknown request op %d", op)
	}
	return op, binary.LittleEndian.Uint64(p[2:]), nil
}

// appendDeliveryHeader frames a delivery header onto buf.
func appendDeliveryHeader(buf []byte, typ byte, bodyLen uint64, bodyCRC uint32, seq, primarySeq uint64) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, hdrPayloadLen)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC patched below
	pstart := len(buf)
	buf = append(buf, protoVersion, typ)
	buf = binary.LittleEndian.AppendUint64(buf, bodyLen)
	buf = binary.LittleEndian.AppendUint32(buf, bodyCRC)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, primarySeq)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[pstart:], castagnoli))
	return buf
}

// Header is a delivery's parsed header.
type Header struct {
	Type       byte
	BodyLen    uint64
	BodyCRC    uint32
	Seq        uint64
	PrimarySeq uint64
}

// ParseHeader decodes the fixed-size delivery header at the front of data.
// It is the transport's gatekeeper: a client must validate the header (and
// with it the claimed body length) before allocating anything for the body.
func ParseHeader(data []byte) (Header, error) {
	var h Header
	if len(data) < 8 {
		return h, corruptf("delivery header truncated (%d bytes)", len(data))
	}
	plen := binary.LittleEndian.Uint32(data[:4])
	crc := binary.LittleEndian.Uint32(data[4:8])
	if plen != hdrPayloadLen {
		return h, corruptf("delivery header payload length %d, want %d", plen, hdrPayloadLen)
	}
	if len(data) < HeaderFrameLen {
		return h, corruptf("delivery header truncated (%d bytes)", len(data))
	}
	p := data[8:HeaderFrameLen]
	if crc32.Checksum(p, castagnoli) != crc {
		return h, corruptf("delivery header crc mismatch")
	}
	if p[0] != protoVersion {
		return h, corruptf("unsupported protocol version %d", p[0])
	}
	h.Type = p[1]
	if h.Type != DeliveryRecords && h.Type != DeliverySnapshot {
		return h, corruptf("unknown delivery type %d", h.Type)
	}
	h.BodyLen = binary.LittleEndian.Uint64(p[2:])
	h.BodyCRC = binary.LittleEndian.Uint32(p[10:])
	h.Seq = binary.LittleEndian.Uint64(p[14:])
	h.PrimarySeq = binary.LittleEndian.Uint64(p[22:])
	return h, nil
}

// Delivery is one parsed shipment from the primary.
type Delivery struct {
	Type       byte
	Seq        uint64 // last record position (records) or covered position (snapshot)
	PrimarySeq uint64 // primary's newest position at build time
	Records    []wal.Record
	Snapshot   []byte // v2 binary snapshot bytes, CRC-verified
}

// ParseDelivery is the follower's single, paranoid ingest point: every byte
// of a delivery — header CRC, version, type, body bounds — is re-verified
// here before anything is applied. Length fields are attacker-ish data (a
// torn transport can produce anything), so allocations grow only with bytes
// actually present, never with a claimed length.
//
// A records body parses to its valid record prefix (per-record CRC plus
// framing, the WAL torn-tail rule), so a mid-frame truncation shortens the
// delivery instead of corrupting it; the parsed records always re-frame to a
// byte prefix of the body. A snapshot body must match its CRC in full or the
// whole delivery is rejected — half a snapshot is not a smaller snapshot.
func ParseDelivery(data []byte) (Delivery, error) {
	var d Delivery
	h, err := ParseHeader(data)
	if err != nil {
		return d, err
	}
	d.Type = h.Type
	d.Seq = h.Seq
	d.PrimarySeq = h.PrimarySeq
	body := data[HeaderFrameLen:]
	switch h.Type {
	case DeliverySnapshot:
		if uint64(len(body)) < h.BodyLen {
			return d, corruptf("snapshot body truncated (%d of %d bytes)", len(body), h.BodyLen)
		}
		body = body[:h.BodyLen]
		if crc32.Checksum(body, castagnoli) != h.BodyCRC {
			return d, corruptf("snapshot body crc mismatch")
		}
		d.Snapshot = body
		return d, nil
	default: // DeliveryRecords, per ParseHeader
		if uint64(len(body)) > h.BodyLen {
			body = body[:h.BodyLen]
		}
		// first=0 skips the reader's continuity check: batch continuity is
		// the applier's concern (it must also hold across deliveries), and a
		// replayed delivery legitimately starts below the current position.
		// The body is already in memory, so the walk parses it in place.
		_, rerr := wal.ParseRecords(body, 0, func(r wal.Record) error {
			d.Records = append(d.Records, r)
			return nil
		})
		if rerr != nil {
			return d, rerr // unreachable: the callback never fails
		}
		return d, nil
	}
}
