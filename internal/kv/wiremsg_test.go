package kv

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/wire"
)

// roundTrip marshals payload as a frame, reads it back and decodes it.
func roundTrip(t *testing.T, from, to netsim.NodeID, payload any) any {
	t.Helper()
	buf, ok := MarshalMessage(nil, from, to, payload)
	if !ok {
		t.Fatalf("MarshalMessage(%T): no wire form", payload)
	}
	kind, body, n, err := wire.ReadFrame(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("ReadFrame: n=%d err=%v", n, err)
	}
	gotFrom, gotTo, decoded, err := UnmarshalMessage(kind, body)
	if err != nil {
		t.Fatalf("UnmarshalMessage: %v", err)
	}
	if gotFrom != from || gotTo != to {
		t.Fatalf("addresses %d->%d, want %d->%d", gotFrom, gotTo, from, to)
	}
	return decoded
}

func testCell(ts int64, val string) storage.Cell {
	c := storage.Cell{Version: storage.Version{Timestamp: time.Duration(ts), Seq: 7}}
	if val == "" {
		c.Tombstone = true
	} else {
		c.Value = []byte(val)
	}
	return c
}

func TestWireMessageRoundTrips(t *testing.T) {
	cell := testCell(12345, "value-bytes")
	tomb := testCell(999, "")
	cases := []struct {
		name    string
		payload any
		want    any // value to compare against (marshal consumes pooled boxes)
	}{
		{"replicaRead", &replicaRead{ID: 42, Key: "k1", Digest: true, Coord: 3, RingSeq: 9},
			replicaRead{ID: 42, Key: "k1", Digest: true, Coord: 3, RingSeq: 9}},
		{"replicaReadResp", &replicaReadResp{ID: 42, Key: "k1", Cell: cell, Exists: true, Digest: false, From: 2},
			replicaReadResp{ID: 42, Key: "k1", Cell: cell, Exists: true, From: 2}},
		{"replicaWrite", &replicaWrite{ID: 7, Key: "k2", Cell: tomb, Coord: 1, Repair: true, Hint: true, RingSeq: 4},
			replicaWrite{ID: 7, Key: "k2", Cell: tomb, Coord: 1, Repair: true, Hint: true, RingSeq: 4}},
		{"replicaWriteAck", &replicaWriteAck{ID: 7, Key: "k2", Version: cell.Version, From: 5},
			replicaWriteAck{ID: 7, Key: "k2", Version: cell.Version, From: 5}},
		{"replicaBatchRead", &replicaBatchRead{ID: 8, Idxs: []int{0, 2}, Keys: []string{"a", "b"}, Coord: 0, RingSeq: 2},
			replicaBatchRead{ID: 8, Idxs: []int{0, 2}, Keys: []string{"a", "b"}, RingSeq: 2}},
		{"replicaBatchReadResp", &replicaBatchReadResp{ID: 8, Items: []batchReadItem{{Idx: 0, Cell: cell, Exists: true}, {Idx: 2}}, From: 1},
			replicaBatchReadResp{ID: 8, Items: []batchReadItem{{Idx: 0, Cell: cell, Exists: true}, {Idx: 2}}, From: 1}},
		{"replicaBatchWrite", &replicaBatchWrite{ID: 9, Idxs: []int{1}, Keys: []string{"c"}, Cells: []storage.Cell{cell}, Coord: 2, RingSeq: 3},
			replicaBatchWrite{ID: 9, Idxs: []int{1}, Keys: []string{"c"}, Cells: []storage.Cell{cell}, Coord: 2, RingSeq: 3}},
		{"replicaBatchWriteAck", &replicaBatchWriteAck{ID: 9, Idxs: []int{1, 5}, From: 4},
			replicaBatchWriteAck{ID: 9, Idxs: []int{1, 5}, From: 4}},
		{"aeOffer", aeOffer{Keys: []string{"x", "y"}, Versions: []storage.Version{cell.Version, tomb.Version}, From: 2},
			aeOffer{Keys: []string{"x", "y"}, Versions: []storage.Version{cell.Version, tomb.Version}, From: 2}},
		{"aeReply", aeReply{Updates: []aeCell{{Key: "x", Cell: cell}}, Want: []string{"y"}, From: 3},
			aeReply{Updates: []aeCell{{Key: "x", Cell: cell}}, Want: []string{"y"}, From: 3}},
		{"aePush", aePush{Updates: []aeCell{{Key: "z", Cell: tomb}}},
			aePush{Updates: []aeCell{{Key: "z", Cell: tomb}}}},
		{"streamRequest",
			&streamRequest{Joiner: 6, Ranges: []ring.Range{{Start: ^ring.Token(0) - 9, End: 40}, {Start: 40, End: 99}}},
			streamRequest{Joiner: 6, Ranges: []ring.Range{{Start: ^ring.Token(0) - 9, End: 40}, {Start: 40, End: 99}}}},
		{"streamChunk", &streamChunk{From: 1, Data: []byte{1, 2, 3}, Count: 3},
			streamChunk{From: 1, Data: []byte{1, 2, 3}, Count: 3}},
		{"streamDone", &streamDone{From: 1, Chunks: 2, Cells: 30, Bytes: 4096, NeedAck: true},
			streamDone{From: 1, Chunks: 2, Cells: 30, Bytes: 4096, NeedAck: true}},
		{"streamAck", &streamAck{From: 6}, streamAck{From: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			decoded := roundTrip(t, 3, 11, tc.payload)
			if got := wireValue(decoded); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decoded %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestWireMessageNoForm(t *testing.T) {
	// Client and gossip messages never cross processes: coordinator
	// selection is pinned to local nodes, and multi-process gossip is an
	// explicit follow-on. The codec must refuse them, not mis-frame them.
	for _, payload := range []any{
		&clientRead{}, &clientWrite{}, gossipTick{}, aeTick{}, hintTick{}, &workDone{},
	} {
		if _, ok := MarshalMessage(nil, 0, 1, payload); ok {
			t.Fatalf("MarshalMessage(%T) claimed a wire form", payload)
		}
	}
}

func TestWireMessageCorrupt(t *testing.T) {
	buf, ok := MarshalMessage(nil, 0, 1, &replicaRead{ID: 1, Key: "k", Coord: 2})
	if !ok {
		t.Fatal("no wire form")
	}
	kind, body, _, err := wire.ReadFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated bodies must decode to an error, never panic.
	for cut := 0; cut < len(body); cut++ {
		if _, _, _, err := UnmarshalMessage(kind, append([]byte(nil), body[:cut]...)); err == nil {
			t.Fatalf("truncated body (%d of %d bytes) decoded cleanly", cut, len(body))
		}
	}
	if _, _, _, err := UnmarshalMessage(200, body); err == nil {
		t.Fatal("unknown kind decoded cleanly")
	}
}

// BenchmarkWireRoundTripLoopback measures the full inter-process codec
// path: marshal a replica write into a frame, read the frame back and
// decode it — the per-message cost of the TCP mesh.
func BenchmarkWireRoundTripLoopback(b *testing.B) {
	value := make([]byte, 64)
	for i := range value {
		value[i] = 'x'
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := newReplicaWrite(replicaWrite{
			ID: reqID(i), Key: "key:12345678",
			Cell:  storage.Cell{Version: storage.Version{Timestamp: time.Duration(i), Seq: 1}, Value: value},
			Coord: 1, RingSeq: 3,
		})
		var ok bool
		buf, ok = MarshalMessage(buf[:0], 1, 2, w)
		if !ok {
			b.Fatal("no wire form")
		}
		kind, body, _, err := wire.ReadFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		_, _, payload, err := UnmarshalMessage(kind, body)
		if err != nil {
			b.Fatal(err)
		}
		rw := payload.(*replicaWrite)
		*rw = replicaWrite{}
		replicaWritePool.Put(rw)
	}
}
