package kv

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Cross-process marshal hooks for the replica-facing message set. A
// multi-process deployment runs the full cluster actor set in every
// process but serves only its local nodes; messages addressed to a node
// owned by a peer process are encoded here, framed by internal/wire and
// shipped over a TCP mesh (internal/live). Client messages (they carry
// callbacks), self-messages (they carry engine-internal pointers) and
// gossip messages (multi-process membership is static for now) never
// cross a process boundary, so they have no wire form — MarshalMessage
// reports them unencodable and the mesh treats sending one as a
// programming error.

// Wire kinds of the cross-process message set. Values are part of the
// peer protocol: append new kinds, never renumber.
const (
	wireReplicaRead byte = iota + 1
	wireReplicaReadResp
	wireReplicaWrite
	wireReplicaWriteAck
	wireReplicaBatchRead
	wireReplicaBatchReadResp
	wireReplicaBatchWrite
	wireReplicaBatchWriteAck
	wireAeOffer
	wireAeReply
	wireAePush
	wireStreamRequest
	wireStreamChunk
	wireStreamDone
	wireStreamAck
)

// MarshalMessage appends one framed message to buf and reports whether
// payload has a wire form. Encodable pooled message boxes are consumed:
// the box returns to its pool once its fields are on the wire, exactly
// as a local delivery recycles it in Handle.
func MarshalMessage(buf []byte, from, to netsim.NodeID, payload any) ([]byte, bool) {
	kind := wireKindOf(payload)
	if kind == 0 {
		return buf, false
	}
	start := len(buf)
	buf = wire.BeginFrame(buf, kind)
	buf = wire.AppendVarint(buf, int64(from))
	buf = wire.AppendVarint(buf, int64(to))
	switch m := payload.(type) {
	case *replicaRead:
		buf = wire.AppendUvarint(buf, uint64(m.ID))
		buf = wire.AppendString(buf, m.Key)
		buf = wire.AppendBool(buf, m.Digest)
		buf = wire.AppendVarint(buf, int64(m.Coord))
		buf = wire.AppendUvarint(buf, m.RingSeq)
		*m = replicaRead{}
		replicaReadPool.Put(m)
	case *replicaReadResp:
		buf = wire.AppendUvarint(buf, uint64(m.ID))
		buf = wire.AppendString(buf, m.Key)
		buf = appendWireCell(buf, m.Cell)
		buf = wire.AppendBool(buf, m.Exists)
		buf = wire.AppendBool(buf, m.Digest)
		buf = wire.AppendVarint(buf, int64(m.From))
		*m = replicaReadResp{}
		replicaReadRespPool.Put(m)
	case *replicaWrite:
		buf = wire.AppendUvarint(buf, uint64(m.ID))
		buf = wire.AppendString(buf, m.Key)
		buf = appendWireCell(buf, m.Cell)
		buf = wire.AppendVarint(buf, int64(m.Coord))
		buf = wire.AppendBool(buf, m.Repair)
		buf = wire.AppendBool(buf, m.Hint)
		buf = wire.AppendUvarint(buf, m.RingSeq)
		*m = replicaWrite{}
		replicaWritePool.Put(m)
	case *replicaWriteAck:
		buf = wire.AppendUvarint(buf, uint64(m.ID))
		buf = wire.AppendString(buf, m.Key)
		buf = appendWireVersion(buf, m.Version)
		buf = wire.AppendVarint(buf, int64(m.From))
		*m = replicaWriteAck{}
		replicaWriteAckPool.Put(m)
	case *replicaBatchRead:
		buf = wire.AppendUvarint(buf, uint64(m.ID))
		buf = appendWireInts(buf, m.Idxs)
		buf = appendWireStrings(buf, m.Keys)
		buf = wire.AppendVarint(buf, int64(m.Coord))
		buf = wire.AppendUvarint(buf, m.RingSeq)
	case *replicaBatchReadResp:
		buf = wire.AppendUvarint(buf, uint64(m.ID))
		buf = wire.AppendUvarint(buf, uint64(len(m.Items)))
		for _, it := range m.Items {
			buf = wire.AppendVarint(buf, int64(it.Idx))
			buf = appendWireCell(buf, it.Cell)
			buf = wire.AppendBool(buf, it.Exists)
		}
		buf = wire.AppendVarint(buf, int64(m.From))
	case *replicaBatchWrite:
		buf = wire.AppendUvarint(buf, uint64(m.ID))
		buf = appendWireInts(buf, m.Idxs)
		buf = appendWireStrings(buf, m.Keys)
		buf = wire.AppendUvarint(buf, uint64(len(m.Cells)))
		for _, cell := range m.Cells {
			buf = appendWireCell(buf, cell)
		}
		buf = wire.AppendVarint(buf, int64(m.Coord))
		buf = wire.AppendUvarint(buf, m.RingSeq)
	case *replicaBatchWriteAck:
		buf = wire.AppendUvarint(buf, uint64(m.ID))
		buf = appendWireInts(buf, m.Idxs)
		buf = wire.AppendVarint(buf, int64(m.From))
	case aeOffer:
		buf = appendWireStrings(buf, m.Keys)
		buf = wire.AppendUvarint(buf, uint64(len(m.Versions)))
		for _, v := range m.Versions {
			buf = appendWireVersion(buf, v)
		}
		buf = wire.AppendVarint(buf, int64(m.From))
	case aeReply:
		buf = appendWireAECells(buf, m.Updates)
		buf = appendWireStrings(buf, m.Want)
		buf = wire.AppendVarint(buf, int64(m.From))
	case aePush:
		buf = appendWireAECells(buf, m.Updates)
	case *streamRequest:
		buf = wire.AppendVarint(buf, int64(m.Joiner))
		buf = appendWireRanges(buf, m.Ranges)
		*m = streamRequest{}
		streamRequestPool.Put(m)
	case *streamChunk:
		buf = wire.AppendVarint(buf, int64(m.From))
		buf = wire.AppendBytes(buf, m.Data)
		buf = wire.AppendVarint(buf, int64(m.Count))
		*m = streamChunk{}
		streamChunkPool.Put(m)
	case *streamDone:
		buf = wire.AppendVarint(buf, int64(m.From))
		buf = wire.AppendVarint(buf, int64(m.Chunks))
		buf = wire.AppendVarint(buf, int64(m.Cells))
		buf = wire.AppendVarint(buf, int64(m.Bytes))
		buf = wire.AppendBool(buf, m.NeedAck)
		*m = streamDone{}
		streamDonePool.Put(m)
	case *streamAck:
		buf = wire.AppendVarint(buf, int64(m.From))
		*m = streamAck{}
		streamAckPool.Put(m)
	}
	return wire.EndFrame(buf, start), true
}

// wireKindOf maps an encodable payload to its wire kind (0 for messages
// with no wire form).
func wireKindOf(payload any) byte {
	switch payload.(type) {
	case *replicaRead:
		return wireReplicaRead
	case *replicaReadResp:
		return wireReplicaReadResp
	case *replicaWrite:
		return wireReplicaWrite
	case *replicaWriteAck:
		return wireReplicaWriteAck
	case *replicaBatchRead:
		return wireReplicaBatchRead
	case *replicaBatchReadResp:
		return wireReplicaBatchReadResp
	case *replicaBatchWrite:
		return wireReplicaBatchWrite
	case *replicaBatchWriteAck:
		return wireReplicaBatchWriteAck
	case aeOffer:
		return wireAeOffer
	case aeReply:
		return wireAeReply
	case aePush:
		return wireAePush
	case *streamRequest:
		return wireStreamRequest
	case *streamChunk:
		return wireStreamChunk
	case *streamDone:
		return wireStreamDone
	case *streamAck:
		return wireStreamAck
	}
	return 0
}

// UnmarshalMessage decodes one frame body produced by MarshalMessage
// into the pooled box (or value) Node.Handle dispatches on. Keys and
// values are copied out of body — the caller may reuse its read buffer
// as soon as UnmarshalMessage returns.
func UnmarshalMessage(kind byte, body []byte) (from, to netsim.NodeID, payload any, err error) {
	c := wireCursor{data: body}
	from = netsim.NodeID(c.varint())
	to = netsim.NodeID(c.varint())
	switch kind {
	case wireReplicaRead:
		payload = newReplicaRead(replicaRead{
			ID:      reqID(c.uvarint()),
			Key:     c.str(),
			Digest:  c.boolv(),
			Coord:   netsim.NodeID(c.varint()),
			RingSeq: c.uvarint(),
		})
	case wireReplicaReadResp:
		payload = newReplicaReadResp(replicaReadResp{
			ID:     reqID(c.uvarint()),
			Key:    c.str(),
			Cell:   c.cell(),
			Exists: c.boolv(),
			Digest: c.boolv(),
			From:   netsim.NodeID(c.varint()),
		})
	case wireReplicaWrite:
		payload = newReplicaWrite(replicaWrite{
			ID:      reqID(c.uvarint()),
			Key:     c.str(),
			Cell:    c.cell(),
			Coord:   netsim.NodeID(c.varint()),
			Repair:  c.boolv(),
			Hint:    c.boolv(),
			RingSeq: c.uvarint(),
		})
	case wireReplicaWriteAck:
		payload = newReplicaWriteAck(replicaWriteAck{
			ID:      reqID(c.uvarint()),
			Key:     c.str(),
			Version: c.version(),
			From:    netsim.NodeID(c.varint()),
		})
	case wireReplicaBatchRead:
		payload = &replicaBatchRead{
			ID:      reqID(c.uvarint()),
			Idxs:    c.ints(),
			Keys:    c.strings(),
			Coord:   netsim.NodeID(c.varint()),
			RingSeq: c.uvarint(),
		}
	case wireReplicaBatchReadResp:
		m := &replicaBatchReadResp{ID: reqID(c.uvarint())}
		n := c.count()
		if n > 0 && !c.err {
			m.Items = make([]batchReadItem, 0, n)
			for i := 0; i < n && !c.err; i++ {
				m.Items = append(m.Items, batchReadItem{
					Idx:    int(c.varint()),
					Cell:   c.cell(),
					Exists: c.boolv(),
				})
			}
		}
		m.From = netsim.NodeID(c.varint())
		payload = m
	case wireReplicaBatchWrite:
		m := &replicaBatchWrite{
			ID:   reqID(c.uvarint()),
			Idxs: c.ints(),
			Keys: c.strings(),
		}
		n := c.count()
		if n > 0 && !c.err {
			m.Cells = make([]storage.Cell, 0, n)
			for i := 0; i < n && !c.err; i++ {
				m.Cells = append(m.Cells, c.cell())
			}
		}
		m.Coord = netsim.NodeID(c.varint())
		m.RingSeq = c.uvarint()
		payload = m
	case wireReplicaBatchWriteAck:
		payload = &replicaBatchWriteAck{
			ID:   reqID(c.uvarint()),
			Idxs: c.ints(),
			From: netsim.NodeID(c.varint()),
		}
	case wireAeOffer:
		m := aeOffer{Keys: c.strings()}
		n := c.count()
		if n > 0 && !c.err {
			m.Versions = make([]storage.Version, 0, n)
			for i := 0; i < n && !c.err; i++ {
				m.Versions = append(m.Versions, c.version())
			}
		}
		m.From = netsim.NodeID(c.varint())
		payload = m
	case wireAeReply:
		payload = aeReply{
			Updates: c.aeCells(),
			Want:    c.strings(),
			From:    netsim.NodeID(c.varint()),
		}
	case wireAePush:
		payload = aePush{Updates: c.aeCells()}
	case wireStreamRequest:
		payload = newStreamRequest(streamRequest{
			Joiner: netsim.NodeID(c.varint()),
			Ranges: c.ranges(),
		})
	case wireStreamChunk:
		payload = newStreamChunk(streamChunk{
			From:  netsim.NodeID(c.varint()),
			Data:  append([]byte(nil), c.bytes()...),
			Count: int(c.varint()),
		})
	case wireStreamDone:
		payload = newStreamDone(streamDone{
			From:    netsim.NodeID(c.varint()),
			Chunks:  int(c.varint()),
			Cells:   int(c.varint()),
			Bytes:   int(c.varint()),
			NeedAck: c.boolv(),
		})
	case wireStreamAck:
		payload = newStreamAck(streamAck{From: netsim.NodeID(c.varint())})
	default:
		return 0, 0, nil, fmt.Errorf("kv: unknown wire message kind %d", kind)
	}
	if c.err {
		return 0, 0, nil, fmt.Errorf("kv: truncated wire message kind %d", kind)
	}
	return from, to, payload, nil
}

// appendWireVersion encodes a storage version.
func appendWireVersion(buf []byte, v storage.Version) []byte {
	buf = wire.AppendVarint(buf, int64(v.Timestamp))
	return wire.AppendUvarint(buf, v.Seq)
}

// appendWireCell encodes a storage cell.
func appendWireCell(buf []byte, cell storage.Cell) []byte {
	buf = appendWireVersion(buf, cell.Version)
	buf = wire.AppendBool(buf, cell.Tombstone)
	return wire.AppendBytes(buf, cell.Value)
}

// appendWireInts encodes an int slice.
func appendWireInts(buf []byte, v []int) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = wire.AppendVarint(buf, int64(x))
	}
	return buf
}

// appendWireStrings encodes a string slice.
func appendWireStrings(buf []byte, v []string) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(v)))
	for _, s := range v {
		buf = wire.AppendString(buf, s)
	}
	return buf
}

// appendWireRanges encodes a token-range list (streamRequest).
func appendWireRanges(buf []byte, v []ring.Range) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(v)))
	for _, r := range v {
		buf = wire.AppendUvarint(buf, uint64(r.Start))
		buf = wire.AppendUvarint(buf, uint64(r.End))
	}
	return buf
}

// appendWireAECells encodes an anti-entropy cell list.
func appendWireAECells(buf []byte, v []aeCell) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(v)))
	for _, u := range v {
		buf = wire.AppendString(buf, u.Key)
		buf = appendWireCell(buf, u.Cell)
	}
	return buf
}

// wireCursor walks a frame body; the first failed read latches err and
// every later read returns zero values, so decoders check once at the
// end instead of after every field.
type wireCursor struct {
	data []byte
	err  bool
}

func (c *wireCursor) uvarint() uint64 {
	v, n := wire.Uvarint(c.data)
	if n == 0 {
		c.err = true
		return 0
	}
	c.data = c.data[n:]
	return v
}

func (c *wireCursor) varint() int64 {
	v, n := wire.Varint(c.data)
	if n == 0 {
		c.err = true
		return 0
	}
	c.data = c.data[n:]
	return v
}

func (c *wireCursor) boolv() bool {
	v, n := wire.Bool(c.data)
	if n == 0 {
		c.err = true
		return false
	}
	c.data = c.data[n:]
	return v
}

// bytes returns a view into the frame body (valid only while it is).
func (c *wireCursor) bytes() []byte {
	v, n := wire.Bytes(c.data)
	if n == 0 {
		c.err = true
		return nil
	}
	c.data = c.data[n:]
	return v
}

// count reads an element count. Every counted element takes at least
// one body byte, so a count beyond the bytes left is corrupt; latching
// it here keeps a hostile prefix from sizing a huge allocation.
func (c *wireCursor) count() int {
	n := c.uvarint()
	if n > uint64(len(c.data)) {
		c.err = true
		return 0
	}
	return int(n)
}

// str copies a length-prefixed string out of the body.
func (c *wireCursor) str() string { return string(c.bytes()) }

func (c *wireCursor) version() storage.Version {
	return storage.Version{Timestamp: time.Duration(c.varint()), Seq: c.uvarint()}
}

func (c *wireCursor) cell() storage.Cell {
	cell := storage.Cell{Version: c.version(), Tombstone: c.boolv()}
	if v := c.bytes(); len(v) > 0 {
		cell.Value = append([]byte(nil), v...)
	}
	return cell
}

func (c *wireCursor) ints() []int {
	n := c.count()
	if n == 0 || c.err {
		return nil
	}
	v := make([]int, 0, n)
	for i := 0; i < n && !c.err; i++ {
		v = append(v, int(c.varint()))
	}
	return v
}

func (c *wireCursor) strings() []string {
	n := c.count()
	if n == 0 || c.err {
		return nil
	}
	v := make([]string, 0, n)
	for i := 0; i < n && !c.err; i++ {
		v = append(v, c.str())
	}
	return v
}

func (c *wireCursor) ranges() []ring.Range {
	n := c.count()
	if n == 0 || c.err {
		return nil
	}
	v := make([]ring.Range, 0, n)
	for i := 0; i < n && !c.err; i++ {
		v = append(v, ring.Range{
			Start: ring.Token(c.uvarint()),
			End:   ring.Token(c.uvarint()),
		})
	}
	return v
}

func (c *wireCursor) aeCells() []aeCell {
	n := c.count()
	if n == 0 || c.err {
		return nil
	}
	v := make([]aeCell, 0, n)
	for i := 0; i < n && !c.err; i++ {
		v = append(v, aeCell{Key: c.str(), Cell: c.cell()})
	}
	return v
}
