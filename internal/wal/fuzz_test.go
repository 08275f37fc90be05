package wal

import (
	"bytes"
	"testing"
)

// FuzzWALReplay feeds hostile bytes to the torn-tail-tolerant record reader.
// The reader must never panic, never allocate proportionally to a claimed
// length, and — the round-trip half — always recover an exact prefix of
// whatever valid records the input starts with.
func FuzzWALReplay(f *testing.F) {
	// Seeds: a clean two-record log, a truncated one, pure garbage, and a
	// delete-bearing log — insert, tombstone, re-insert, plus a legacy
	// update's tombstone+insert pair and a one-record update — whole and cut
	// mid-record.
	var clean []byte
	clean = appendRecord(clean, Record{Seq: 1, Kind: KindInsert, S: "alice", P: "knows", O: "bob", Score: 0.75})
	clean = appendRecord(clean, Record{Seq: 2, Kind: KindInsert, S: "bob", P: "type", O: "person", Score: 2})
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	f.Add([]byte("\xff\xff\xff\x7fgarbage"))
	f.Add([]byte{})
	var mutated []byte
	mutated = appendRecord(mutated, Record{Seq: 1, Kind: KindInsert, S: "alice", P: "knows", O: "bob", Score: 0.75})
	mutated = appendRecord(mutated, Record{Seq: 2, Kind: KindTombstone, S: "alice", P: "knows", O: "bob"})
	mutated = appendRecord(mutated, Record{Seq: 3, Kind: KindInsert, S: "alice", P: "knows", O: "bob", Score: 1.5})
	mutated = appendRecord(mutated, Record{Seq: 4, Kind: KindTombstone, S: "bob", P: "type", O: "person"})
	mutated = appendRecord(mutated, Record{Seq: 5, Kind: KindInsert, S: "bob", P: "type", O: "person", Score: 9})
	mutated = appendRecord(mutated, Record{Seq: 6, Kind: KindUpdate, S: "bob", P: "type", O: "person", Score: 4.25})
	f.Add(mutated)
	f.Add(mutated[:len(mutated)-30])

	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Record
		n, err := ReadRecords(bytes.NewReader(data), 0, func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("ReadRecords returned error for raw bytes: %v", err)
		}
		if n != len(got) {
			t.Fatalf("count %d != delivered %d", n, len(got))
		}
		// Every delivered record must satisfy the writer's invariants (the
		// reader re-checks them post-CRC).
		for i, r := range got {
			if err := validRecord(r); err != nil {
				t.Fatalf("record %d violates invariants: %v", i, err)
			}
		}
		// Re-framing the delivered records must reproduce a byte prefix of
		// the input: the reader accepts exactly the valid prefix, nothing
		// reordered, nothing invented.
		var reframed []byte
		for _, r := range got {
			reframed = appendRecord(reframed, r)
		}
		if !bytes.HasPrefix(data, reframed) {
			t.Fatalf("recovered records do not re-frame to an input prefix")
		}
	})
}
