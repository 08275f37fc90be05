package kg

import (
	"fmt"
	"testing"
)

// FuzzLiveStore fuzzes the live-ingest layer with mutation schedules decoded
// from the input bytes: interleaved inserts, per-shard compactions, whole
// store compactions and checkpoints, run against a sharded live store and
// checked — at every checkpoint and at the end — against a flat store
// rebuilt from scratch over the same triple prefix. The property is the
// tentpole contract itself: a mutable head plus merge-on-threshold must be
// observationally identical to a full re-freeze, for every schedule the
// fuzzer can dream up.
//
// Byte stream layout: data[0] picks the shard count, data[1] the head limit
// (0 = manual compaction only, so the fuzzer controls merge points), then
// each 3-byte chunk is one operation:
//
//	op := b[0] % 16
//	 0..10: insert 〈s p o〉 with s/p/o drawn from b[1..2], score = b[0]
//	 11:    compact shard b[1] % shards
//	 12:    compact all shards
//	 13..15: checkpoint (full comparison against the flat rebuild)
func FuzzLiveStore(f *testing.F) {
	// Seeds covering: plain inserts, insert+checkpoint, insert+compact
	// interleavings, per-shard compactions, duplicate-heavy streams.
	f.Add([]byte{2, 0, 3, 1, 2, 7, 9, 4, 13, 0, 0})
	f.Add([]byte{4, 3, 5, 200, 11, 6, 10, 2, 11, 1, 0, 14, 0, 0, 5, 200, 11, 12, 0, 0, 15, 0, 0})
	f.Add([]byte{1, 1, 8, 8, 8, 8, 8, 8, 13, 0, 0, 12, 0, 0, 13, 0, 0})
	f.Add([]byte{7, 2, 0, 255, 255, 1, 255, 255, 2, 255, 255, 11, 3, 0, 13, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		shards := 1 + int(data[0])%7
		headLimit := int(data[1]) % 8
		if headLimit == 0 {
			headLimit = -1 // manual only: the schedule's compact ops decide
		}

		dict := NewDict()
		for dict.Len() < 12 {
			dict.Encode(fmt.Sprintf("term%d", dict.Len()))
		}
		ss := NewShardedStore(dict, shards)
		ss.Freeze() // empty frozen segments: the whole store arrives live
		ss.SetHeadLimit(headLimit)

		var log []Triple
		checkpoints := 0
		check := func(label string) {
			flat := NewStore(dict)
			for _, tr := range log {
				if err := flat.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			flat.Freeze()
			assertGraphsAgree(t, label, ss, flat)
		}

		ops := data[2:]
		for i := 0; i+3 <= len(ops) && len(log) < 200; i += 3 {
			b := ops[i : i+3]
			switch op := b[0] % 16; {
			case op <= 10:
				tr := Triple{
					S:     ID(b[1] % 8),
					P:     ID(b[2] % 3),
					O:     ID(b[2] / 3 % 8),
					Score: float64(b[0]),
				}
				if err := liveInsert(ss, tr); err != nil {
					t.Fatalf("insert %v: %v", tr, err)
				}
				log = append(log, tr)
			case op == 11:
				ss.CompactShard(int(b[1]) % shards)
			case op == 12:
				ss.Compact()
			default:
				if checkpoints < 6 {
					checkpoints++
					check(fmt.Sprintf("checkpoint %d (%d triples, head %d)", checkpoints, len(log), ss.HeadLen()))
				}
			}
		}
		check(fmt.Sprintf("final (%d triples, head %d, %d compactions)", len(log), ss.HeadLen(), ss.Compactions()))
	})
}

// FuzzMutableStore is FuzzLiveStore's delete-bearing sibling: the fuzzer
// drives interleaved inserts, deletes, latest-wins updates, per-shard and
// whole-store compactions — with and without the L1 tier — against a sharded
// live store, checked at every checkpoint against a flat store rebuilt from
// the *surviving* facts (retraction-of-every-copy semantics replayed by
// mutModel). Physical indexes diverge under deletes (dead slots stay), so
// the comparison is the resolved-triple one from assertMutatedAgree.
//
// Byte stream layout: data[0] picks the shard count, data[1] the head limit,
// data[2] the L1 limit (0 = single-level), then each 3-byte chunk is one op:
//
//	op := b[0] % 16
//	 0..8:  insert 〈s p o〉 drawn from b[1..2], score = b[0]
//	 9..10: delete key drawn from b[1..2]
//	 11:    update key drawn from b[1..2], score = b[0]
//	 12:    compact shard b[1] % shards
//	 13:    compact all shards
//	 14..15: checkpoint (full comparison against the survivor rebuild)
func FuzzMutableStore(f *testing.F) {
	// Seeds: insert/delete/checkpoint, delete-then-reinsert, update-heavy,
	// tiered with per-shard compactions, delete of an absent key.
	f.Add([]byte{2, 0, 0, 3, 1, 2, 7, 4, 13, 9, 1, 2, 14, 0, 0})
	f.Add([]byte{4, 3, 7, 5, 200, 11, 9, 200, 11, 6, 200, 11, 14, 0, 0, 12, 1, 0, 15, 0, 0})
	f.Add([]byte{1, 1, 0, 8, 8, 8, 11, 8, 8, 11, 8, 8, 14, 0, 0, 13, 0, 0, 15, 0, 0})
	f.Add([]byte{7, 2, 5, 0, 255, 255, 9, 255, 255, 10, 1, 1, 12, 3, 0, 14, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		shards := 1 + int(data[0])%7
		headLimit := int(data[1]) % 8
		if headLimit == 0 {
			headLimit = -1 // manual only: the schedule's compact ops decide
		}
		l1Limit := int(data[2]) % 32

		dict := NewDict()
		for dict.Len() < 12 {
			dict.Encode(fmt.Sprintf("term%d", dict.Len()))
		}
		ss := NewShardedStore(dict, shards)
		ss.Freeze() // empty frozen segments: the whole store arrives live
		ss.SetHeadLimit(headLimit)
		ss.SetL1Limit(l1Limit)

		model := &mutModel{}
		ops := 0
		checkpoints := 0
		check := func(label string) {
			flat := NewStore(dict)
			for _, tr := range model.survivors {
				if err := flat.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			flat.Freeze()
			assertMutatedAgree(t, label, ss, flat)
		}

		stream := data[3:]
		for i := 0; i+3 <= len(stream) && ops < 200; i += 3 {
			b := stream[i : i+3]
			key := func() (ID, ID, ID) {
				return ID(b[1] % 8), ID(b[2] % 3), ID(b[2] / 3 % 8)
			}
			switch op := b[0] % 16; {
			case op <= 8:
				s, p, o := key()
				tr := Triple{S: s, P: p, O: o, Score: float64(b[0])}
				if err := liveInsert(ss, tr); err != nil {
					t.Fatalf("insert %v: %v", tr, err)
				}
				model.insert(tr)
				ops++
			case op <= 10:
				s, p, o := key()
				removed, err := liveDelete(ss, s, p, o)
				if err != nil {
					t.Fatalf("delete: %v", err)
				}
				if want := model.delete(s, p, o); removed != want {
					t.Fatalf("delete removed %d copies, model says %d", removed, want)
				}
				ops++
			case op == 11:
				s, p, o := key()
				tr := Triple{S: s, P: p, O: o, Score: float64(b[0])}
				if err := liveUpdate(ss, tr); err != nil {
					t.Fatalf("update %v: %v", tr, err)
				}
				model.update(tr)
				ops++
			case op == 12:
				ss.CompactShard(int(b[1]) % shards)
			case op == 13:
				ss.Compact()
			default:
				if checkpoints < 6 {
					checkpoints++
					check(fmt.Sprintf("checkpoint %d (%d survivors, head %d, tombs %d)",
						checkpoints, len(model.survivors), ss.HeadLen(), ss.Tombstones()))
				}
			}
		}
		check(fmt.Sprintf("final (%d survivors, head %d, tombs %d)", len(model.survivors), ss.HeadLen(), ss.Tombstones()))
		ss.Compact()
		if ss.Tombstones() != 0 {
			t.Fatalf("full Compact left %d tombstones", ss.Tombstones())
		}
		check("after full compact")
	})
}
