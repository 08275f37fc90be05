package kg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Binary snapshot format for fast store persistence (TSV parsing dominates
// load time for multi-million-triple stores; the binary path avoids it).
//
// Layout (all integers little-endian):
//
//	magic     [8]byte  "SPECQPKG"
//	version   uint32   (currently 2)
//	nTerms    uint32
//	nTriples  uint64
//	headerCRC uint32   crc32c over the 12 count bytes            (v2 only)
//	terms:    nTerms × { len uint32, bytes }
//	termsCRC  uint32   crc32c over the whole term section        (v2 only)
//	triples:  nTriples × { s uint32, p uint32, o uint32, score float64 }
//	triplesCRC uint32  crc32c over the whole triple section      (v2 only)
//
// The snapshot freezes dictionary IDs, so WriteBinary→ReadBinary reproduces
// the store bit-for-bit (including duplicate triples and their order). The
// writer captures one pinned view and persists only live (non-retracted)
// triples — a snapshot never carries a deleted fact or a tombstone. The
// reader accepts v1 (the same layout without the three CRC words) for
// snapshots written before checksums existed; every CRC mismatch is
// corruption, reported before any triple from the damaged section is
// applied beyond the add callback.

var binaryMagic = [8]byte{'S', 'P', 'E', 'C', 'Q', 'P', 'K', 'G'}

const binaryVersion = 2

// binaryCastagnoli is the CRC32C table for snapshot section checksums — the
// same polynomial the WAL uses for record payloads, so the whole durability
// path fails loudly on bit rot.
var binaryCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// MaxTermLen is the per-term byte bound every persistence surface enforces
// (binary snapshots here, WAL records in internal/wal — a compile-time check
// in the durability layer keeps the two in lockstep): a term length beyond
// it is treated as corruption, never allocated.
const MaxTermLen = 1 << 24

// WriteBinary serialises the store in the binary snapshot format.
func (st *Store) WriteBinary(w io.Writer) error {
	_, err := WriteGraphBinary(w, st)
	return err
}

// WriteGraphBinary serialises any Graph — flat or sharded, quiescent or live —
// in the binary snapshot format (see WriteGraphSnapshot), returning the
// number of triples captured.
func WriteGraphBinary(w io.Writer, g Graph) (int, error) {
	n, _, err := WriteGraphSnapshot(w, g)
	return n, err
}

// WriteGraphSnapshot serialises one pinned view of g in the binary snapshot
// format, writing live triples in global insertion order so a reload into
// any layout (ReadBinary, ReadBinarySharded) reproduces the store's answers
// bit-for-bit. Retracted triples are skipped — the snapshot is the
// post-resolution store, no tombstones needed. It returns the number of
// triples written and the pinned view's operation count (see LiveGraph.Ops);
// the durability layer derives the snapshot's log position from the latter,
// which keeps counting deletes that the survivor count cannot see.
func WriteGraphSnapshot(w io.Writer, g Graph) (n int, ops uint64, err error) {
	// Capture the view first, the term table after: the dictionary is
	// append-only, so terms snapshotted later always cover every ID the
	// captured triples reference even under concurrent mutation.
	var emit func(yield func(Triple) error) error
	if !g.Frozen() {
		// Pre-freeze staging area: append-only, every triple live.
		total := g.Len()
		n, ops = total, uint64(total)
		emit = func(yield func(Triple) error) error {
			for i := 0; i < total; i++ {
				if err := yield(g.Triple(int32(i))); err != nil {
					return err
				}
			}
			return nil
		}
	} else {
		switch p := g.Pin().(type) {
		case *pinnedStore:
			live := p.s.liveFn()
			total := len(p.s.triples)
			for i := 0; i < total; i++ {
				if live(int32(i)) {
					n++
				}
			}
			ops = p.s.ops
			emit = func(yield func(Triple) error) error {
				for i := 0; i < total; i++ {
					if live(int32(i)) {
						if err := yield(p.s.triples[i].triple()); err != nil {
							return err
						}
					}
				}
				return nil
			}
		case *pinnedSharded:
			lives := make([]func(int32) bool, len(p.shards))
			for i, sh := range p.shards {
				lives[i] = sh.s.liveFn()
			}
			total := len(p.dir.locShard)
			for i := 0; i < total; i++ {
				if lives[p.dir.locShard[i]](p.dir.locIdx[i]) {
					n++
				}
			}
			ops = p.dir.ops
			emit = func(yield func(Triple) error) error {
				for i := 0; i < total; i++ {
					si, li := p.dir.locShard[i], p.dir.locIdx[i]
					if lives[si](li) {
						if err := yield(p.shards[si].s.triples[li].triple()); err != nil {
							return err
						}
					}
				}
				return nil
			}
		default:
			// A pinned (or otherwise immutable) graph passed in directly:
			// every visible triple is live.
			total := p.Len()
			n, ops = total, uint64(total)
			emit = func(yield func(Triple) error) error {
				for i := 0; i < total; i++ {
					if err := yield(p.Triple(int32(i))); err != nil {
						return err
					}
				}
				return nil
			}
		}
	}
	terms := g.Dict().Strings()

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return 0, 0, err
	}
	var scratch [8]byte
	crc := uint32(0)
	putU32 := func(v uint32, sum bool) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		if sum {
			crc = crc32.Update(crc, binaryCastagnoli, scratch[:4])
		}
		_, err := bw.Write(scratch[:4])
		return err
	}
	putU64 := func(v uint64, sum bool) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		if sum {
			crc = crc32.Update(crc, binaryCastagnoli, scratch[:8])
		}
		_, err := bw.Write(scratch[:8])
		return err
	}
	if err := putU32(binaryVersion, false); err != nil {
		return 0, 0, err
	}
	// Header section: the two counts, sealed by their CRC.
	if err := putU32(uint32(len(terms)), true); err != nil {
		return 0, 0, err
	}
	if err := putU64(uint64(n), true); err != nil {
		return 0, 0, err
	}
	if err := putU32(crc, false); err != nil {
		return 0, 0, err
	}
	// Term section.
	crc = 0
	for _, t := range terms {
		if err := putU32(uint32(len(t)), true); err != nil {
			return 0, 0, err
		}
		crc = crc32.Update(crc, binaryCastagnoli, []byte(t))
		if _, err := bw.WriteString(t); err != nil {
			return 0, 0, err
		}
	}
	if err := putU32(crc, false); err != nil {
		return 0, 0, err
	}
	// Triple section.
	crc = 0
	err = emit(func(tr Triple) error {
		if err := putU32(uint32(tr.S), true); err != nil {
			return err
		}
		if err := putU32(uint32(tr.P), true); err != nil {
			return err
		}
		if err := putU32(uint32(tr.O), true); err != nil {
			return err
		}
		return putU64(math.Float64bits(tr.Score), true)
	})
	if err != nil {
		return 0, 0, err
	}
	if err := putU32(crc, false); err != nil {
		return 0, 0, err
	}
	return n, ops, bw.Flush()
}

// liveFn returns a predicate reporting whether the triple at a local index
// is live (not retracted) in snapshot s. Frozen indexes consult the latest
// segment's cumulative dead bitmap plus the pending tombstones' killedSet;
// head indexes are live exactly when the overlay still lists them (deletes
// drop head entries physically).
func (s *storeState) liveFn() func(int32) bool {
	po := s.post
	if s.l1 != nil {
		po = s.l1
	}
	fl := int32(s.frozenLen())
	killed := s.killedSet()
	var head map[int32]struct{}
	if len(s.headSorted) > 0 {
		head = make(map[int32]struct{}, len(s.headSorted))
		for _, hi := range s.headSorted {
			head[hi] = struct{}{}
		}
	}
	return func(i int32) bool {
		if i < fl {
			return !po.isDead(i) && (killed == nil || killed[i>>6]&(1<<(i&63)) == 0)
		}
		_, ok := head[i]
		return ok
	}
}

// ReadBinary loads a binary snapshot into a fresh, frozen store.
func ReadBinary(r io.Reader) (*Store, error) {
	st := NewStore(nil)
	if err := ReadBinaryInto(r, st.dict, st.Add); err != nil {
		return nil, err
	}
	st.Freeze()
	return st, nil
}

// ReadBinarySharded loads a binary snapshot into a fresh, frozen sharded
// store with n segments. Triples are routed by subject in insertion order, so
// answers are bit-identical to ReadBinary's flat layout at every shard count.
func ReadBinarySharded(r io.Reader, n int) (*ShardedStore, error) {
	ss := NewShardedStore(nil, n)
	if err := ReadBinaryInto(r, ss.dict, ss.Add); err != nil {
		return nil, err
	}
	ss.Freeze()
	return ss, nil
}

// ReadBinaryInto parses a binary snapshot, interning every term into dict (in
// snapshot order, so IDs are reproduced exactly) and calling add with every
// triple in insertion order. dict must be fresh (no interned terms): the
// snapshot's dense term table fixes the IDs, and a pre-populated dictionary
// would shift them. The durability layer uses this to load a snapshot into an
// unfrozen store and replay the WAL tail with plain Adds before one Freeze.
// Version-2 snapshots carry per-section CRC32C checksums, verified as each
// section completes; v1 snapshots load without checksum protection.
func ReadBinaryInto(r io.Reader, dict *Dict, add func(Triple) error) error {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("kg: reading snapshot magic: %v", err)
	}
	if magic != binaryMagic {
		return fmt.Errorf("kg: not a specqp snapshot (magic %q)", magic[:])
	}
	var buf [8]byte
	crc := uint32(0)
	sum := false
	getU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return 0, err
		}
		if sum {
			crc = crc32.Update(crc, binaryCastagnoli, buf[:4])
		}
		return binary.LittleEndian.Uint32(buf[:4]), nil
	}
	getU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, buf[:8]); err != nil {
			return 0, err
		}
		if sum {
			crc = crc32.Update(crc, binaryCastagnoli, buf[:8])
		}
		return binary.LittleEndian.Uint64(buf[:8]), nil
	}
	version, err := getU32()
	if err != nil {
		return err
	}
	if version != 1 && version != binaryVersion {
		return fmt.Errorf("kg: unsupported snapshot version %d", version)
	}
	// checkSection reads a section's stored CRC and compares it with the
	// accumulated one; v1 snapshots carry no section checksums.
	checkSection := func(name string) error {
		if version < 2 {
			return nil
		}
		got := crc
		sum = false
		stored, err := getU32()
		if err != nil {
			return fmt.Errorf("kg: %s checksum: %v", name, err)
		}
		if got != stored {
			return fmt.Errorf("kg: snapshot %s section corrupt (crc %08x, want %08x)", name, got, stored)
		}
		return nil
	}
	sum = version >= 2
	crc = 0
	nTerms, err := getU32()
	if err != nil {
		return err
	}
	nTriples, err := getU64()
	if err != nil {
		return err
	}
	if err := checkSection("header"); err != nil {
		return err
	}

	if dict.Len() != 0 {
		return fmt.Errorf("kg: snapshot load needs a fresh dictionary (%d terms already interned)", dict.Len())
	}
	// Counts are attacker-controlled: never allocate proportionally to a
	// claimed length before the bytes actually arrive. Terms are read in
	// bounded steps directly into termBuf's tail — append's geometric growth
	// keeps the buffer within a small factor of the bytes actually
	// delivered, so a snapshot claiming a huge term costs at most one step
	// of over-allocation; the triple loop below likewise grows with data
	// read, not with the declared nTriples.
	sum = version >= 2
	crc = 0
	const termChunk = 64 << 10
	var zeroChunk [termChunk]byte
	termBuf := make([]byte, 0, 64)
	for i := uint32(0); i < nTerms; i++ {
		l, err := getU32()
		if err != nil {
			return fmt.Errorf("kg: term %d length: %v", i, err)
		}
		if l > MaxTermLen {
			return fmt.Errorf("kg: term %d implausibly long (%d bytes)", i, l)
		}
		termBuf = termBuf[:0]
		for read := uint32(0); read < l; {
			n := l - read
			if n > termChunk {
				n = termChunk
			}
			start := len(termBuf)
			termBuf = append(termBuf, zeroChunk[:n]...)
			if _, err := io.ReadFull(br, termBuf[start:]); err != nil {
				return fmt.Errorf("kg: term %d bytes: %v", i, err)
			}
			if sum {
				crc = crc32.Update(crc, binaryCastagnoli, termBuf[start:])
			}
			read += n
		}
		// Encode copies what it interns, so a view of the reused buffer
		// spares a second copy of every term.
		if got := dict.Encode(unsafe.String(unsafe.SliceData(termBuf), len(termBuf))); got != ID(i) {
			return fmt.Errorf("kg: snapshot contains duplicate term %q", termBuf)
		}
	}
	if err := checkSection("term"); err != nil {
		return err
	}
	sum = version >= 2
	crc = 0
	for i := uint64(0); i < nTriples; i++ {
		s, err := getU32()
		if err != nil {
			return fmt.Errorf("kg: triple %d: %v", i, err)
		}
		p, err := getU32()
		if err != nil {
			return fmt.Errorf("kg: triple %d: %v", i, err)
		}
		o, err := getU32()
		if err != nil {
			return fmt.Errorf("kg: triple %d: %v", i, err)
		}
		bits, err := getU64()
		if err != nil {
			return fmt.Errorf("kg: triple %d: %v", i, err)
		}
		if s >= nTerms || p >= nTerms || o >= nTerms {
			return fmt.Errorf("kg: triple %d references unknown term", i)
		}
		score := math.Float64frombits(bits)
		if score < 0 || math.IsNaN(score) || math.IsInf(score, 0) {
			return fmt.Errorf("kg: triple %d has invalid score %v", i, score)
		}
		if err := add(Triple{S: ID(s), P: ID(p), O: ID(o), Score: score}); err != nil {
			return err
		}
	}
	if err := checkSection("triple"); err != nil {
		return err
	}
	return nil
}
