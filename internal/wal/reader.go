package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"
	"sync"
)

// ReadRecords streams the valid record prefix of one segment's bytes:
// records are decoded in order and handed to fn until the first partial,
// corrupt, or out-of-sequence record, where reading stops — the torn-tail
// truncation rule. first is the sequence number the segment's first record
// must carry (0 skips the continuity check, for tools reading a lone
// segment). The returned count is the number of valid records delivered.
//
// The reader is deliberately paranoid: length fields are attacker-ish data
// (a torn write can produce anything), so allocations grow with bytes
// actually read, never with a claimed length, and every structural rule the
// writer enforces is re-checked after the CRC. It never returns an error for
// bad bytes — bad bytes are the expected crash residue — only fn's error is
// propagated. Its read buffer comes from a pool shared by every scan, so a
// call allocates only the records it delivers.
func ReadRecords(r io.Reader, first uint64, fn func(Record) error) (int, error) {
	fr := frameReaders.Get().(*frameReader)
	fr.br.Reset(r)
	defer fr.release()
	return walkFrames(fr.next, first, 0, fn)
}

// ParseRecords is ReadRecords over bytes already in memory: it walks data in
// place, with no read buffer and no payload copy, under the same torn-tail
// and validation rules.
func ParseRecords(data []byte, first uint64, fn func(Record) error) (int, error) {
	return walkFrames(func() ([]byte, uint32, bool) {
		if len(data) < 8 {
			return nil, 0, false // clean end or torn header
		}
		plen := binary.LittleEndian.Uint32(data[:4])
		crc := binary.LittleEndian.Uint32(data[4:8])
		if plen < 8+1 || plen > maxPayload || uint64(len(data)-8) < uint64(plen) {
			return nil, 0, false // implausible or torn frame
		}
		p := data[8 : 8+plen]
		data = data[8+plen:]
		return p, crc, true
	}, first, 0, fn)
}

// walkFrames applies the torn-tail rule to the frames next yields: each
// payload must match its CRC, parse, and carry the expected sequence number,
// or the walk stops there. next reports ok=false at a torn or implausible
// frame (and at the clean end). Records below sequence number from are
// checked the same way but neither decoded into a Record nor delivered, so
// a reader positioned deep into a segment pays no allocation for the records
// it skips.
func walkFrames(next func() (payload []byte, crc uint32, ok bool), first, from uint64, fn func(Record) error) (int, error) {
	n := 0
	expect := first
	for {
		payload, crc, ok := next()
		if !ok || crc32.Checksum(payload, castagnoli) != crc {
			return n, nil // end, torn frame or corrupt payload
		}
		f, err := splitPayload(payload)
		if err != nil {
			return n, nil // CRC-valid but structurally wrong — treat as corrupt
		}
		if expect != 0 && f.seq != expect {
			return n, nil // sequence break — the rest is unreachable
		}
		if expect != 0 {
			expect++
		}
		if f.seq < from {
			continue
		}
		if err := fn(f.record()); err != nil {
			return n, err
		}
		n++
	}
}

const (
	// readBufSize is a pooled frame reader's read-ahead.
	readBufSize = 64 << 10
	// readChunk caps each step by which a payload buffer grows while a frame
	// is read, so a torn length field claiming maxPayload costs only the
	// bytes actually present.
	readChunk = 64 << 10
)

// frameReader reads record frames from a stream into a reused payload
// buffer. Scans borrow one from frameReaders, so neither the read buffer
// nor the payload buffer is allocated per call.
type frameReader struct {
	br      *bufio.Reader
	head    [8]byte
	payload []byte
}

var frameReaders = sync.Pool{New: func() any {
	return &frameReader{br: bufio.NewReaderSize(nil, readBufSize)}
}}

// release drops the stream and returns fr to the pool; a payload buffer a
// large record grew past readChunk is let go rather than pinned.
func (fr *frameReader) release() {
	fr.br.Reset(nil)
	if cap(fr.payload) > readChunk {
		fr.payload = nil
	}
	frameReaders.Put(fr)
}

// next reads one frame, returning its payload (valid until the next call)
// and its CRC; ok is false at the end of the stream or a torn or
// implausible frame.
func (fr *frameReader) next() ([]byte, uint32, bool) {
	if _, err := io.ReadFull(fr.br, fr.head[:]); err != nil {
		return nil, 0, false // clean EOF or torn header — stop either way
	}
	plen := binary.LittleEndian.Uint32(fr.head[:4])
	crc := binary.LittleEndian.Uint32(fr.head[4:])
	if plen < 8+1 || plen > maxPayload {
		return nil, 0, false // implausible frame — corrupt
	}
	p := fr.payload[:0]
	for read := uint32(0); read < plen; {
		step := min(plen-read, readChunk)
		start := len(p)
		p = slices.Grow(p, int(step))[:start+int(step)]
		fr.payload = p
		if _, err := io.ReadFull(fr.br, p[start:]); err != nil {
			return nil, 0, false // torn payload
		}
		read += step
	}
	return p, crc, true
}

// errStopScan ends a segment scan whose caller has what it needs.
var errStopScan = errors.New("wal: scan stopped")

// scanSegment reads one segment file, calling fn per valid record from
// sequence number from on (0 for every record) until fn returns false;
// records before from are validated but not decoded. It returns the
// sequence number of the last record delivered (0 if none) and the byte size
// of the records delivered — the valid prefix when from is 0 and fn never
// stops the scan.
func scanSegment(fsys FS, name string, first, from uint64, fn func(Record) bool) (last uint64, size int64, err error) {
	f, err := fsys.Open(name)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fr := frameReaders.Get().(*frameReader)
	fr.br.Reset(f)
	defer fr.release()
	_, err = walkFrames(fr.next, first, from, func(r Record) error {
		last = r.Seq
		size += int64(recordSize(r))
		if !fn(r) {
			return errStopScan
		}
		return nil
	})
	if err == errStopScan {
		err = nil
	}
	return last, size, err
}
