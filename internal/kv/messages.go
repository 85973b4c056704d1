package kv

import (
	"time"

	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/storage"
)

// reqID identifies one client operation across the cluster.
type reqID uint64

// msgOverhead approximates the wire framing of every message in bytes.
const msgOverhead = 64

// digestSize approximates a read digest (version + checksum) in bytes.
const digestSize = 16

// readRoute says how a read result finds its way back to the issuing
// client: a slot in the cluster's pooled op slab (clientop.go), with
// opGen catching replies that outlive a timed-out, recycled slot.
type readRoute struct {
	op    uint32
	opGen uint32
}

// writeRoute is the write counterpart of readRoute.
type writeRoute struct {
	op    uint32
	opGen uint32
}

// clientRead enters the cluster from a client and is handled by the
// coordinator node it is addressed to.
type clientRead struct {
	ID    reqID
	Key   string
	Level Level
	rt    readRoute
}

// clientWrite is the write counterpart of clientRead; with tombstone set
// it deletes the key instead of storing a value.
type clientWrite struct {
	ID        reqID
	Key       string
	Value     []byte
	Level     Level
	tombstone bool
	rt        writeRoute
}

// clientReadReply carries the result back to the client endpoint.
type clientReadReply struct {
	rt  readRoute
	res ReadResult
}

// clientWriteReply carries the result back to the client endpoint.
type clientWriteReply struct {
	rt  writeRoute
	res WriteResult
}

// BatchOp is one item of a multi-key batch mutation. Delete issues a
// tombstone for Key instead of storing Value.
type BatchOp struct {
	Key    string
	Value  []byte
	Delete bool
}

// clientBatchRead admits a multi-key read on one coordinator: one
// admission for the whole batch, results delivered together in key
// order.
type clientBatchRead struct {
	ID    reqID
	Keys  []string
	Level Level
	cb    func([]ReadResult)
}

// clientBatchWrite is the write counterpart of clientBatchRead.
type clientBatchWrite struct {
	ID    reqID
	Ops   []BatchOp
	Level Level
	cb    func([]WriteResult)
}

// clientBatchReadReply carries a whole batch's results back to the
// client endpoint in one message.
type clientBatchReadReply struct {
	cb  func([]ReadResult)
	res []ReadResult
}

// clientBatchWriteReply is the write counterpart.
type clientBatchWriteReply struct {
	cb  func([]WriteResult)
	res []WriteResult
}

// replicaBatchRead asks one replica for every batch item it serves — at
// most one request message per replica per batch. Batched reads always
// carry full data (no digests): the batch already amortizes transfer,
// and per-item digest refetches would reintroduce per-key messages.
type replicaBatchRead struct {
	ID    reqID
	Idxs  []int // batch positions, parallel to Keys
	Keys  []string
	Coord netsim.NodeID
	// RingSeq is the coordinator's ring knowledge (gossip mode only);
	// a replica with a strictly newer ring refuses items it no longer
	// owns (notOwner) instead of serving them.
	RingSeq uint64
}

// batchReadItem is one replica's answer for one batch position.
type batchReadItem struct {
	Idx    int
	Cell   storage.Cell
	Exists bool
}

// replicaBatchReadResp answers a replicaBatchRead in one message.
type replicaBatchReadResp struct {
	ID    reqID
	Items []batchReadItem
	From  netsim.NodeID
}

// replicaBatchWrite carries every batch mutation a replica owns in one
// message.
type replicaBatchWrite struct {
	ID      reqID
	Idxs    []int // batch positions, parallel to Keys/Cells
	Keys    []string
	Cells   []storage.Cell
	Coord   netsim.NodeID
	RingSeq uint64 // see replicaBatchRead.RingSeq
}

// replicaBatchWriteAck acknowledges all items of a replicaBatchWrite.
type replicaBatchWriteAck struct {
	ID   reqID
	Idxs []int
	From netsim.NodeID
}

// replicaWrite asks a replica to apply a cell. Repair and hint replays
// reuse it with Repair/Hint set, which keeps replica application uniform.
type replicaWrite struct {
	ID      reqID
	Key     string
	Cell    storage.Cell
	Coord   netsim.NodeID
	Repair  bool   // read-repair or anti-entropy write: no ack expected
	Hint    bool   // replayed hint: ack expected by nobody, but applied
	RingSeq uint64 // see replicaBatchRead.RingSeq (coordinated writes only)
}

// replicaWriteAck acknowledges a replicaWrite to its coordinator.
type replicaWriteAck struct {
	ID      reqID
	Key     string
	Version storage.Version
	From    netsim.NodeID
}

// replicaRead asks a replica for its resident cell; when Digest is set
// only the version travels back.
type replicaRead struct {
	ID      reqID
	Key     string
	Digest  bool
	Coord   netsim.NodeID
	RingSeq uint64 // see replicaBatchRead.RingSeq
}

// replicaReadResp answers a replicaRead.
type replicaReadResp struct {
	ID     reqID
	Key    string
	Cell   storage.Cell
	Exists bool
	Digest bool
	From   netsim.NodeID
}

// coordTimeout fires on the coordinator when a request exceeded the
// cluster timeout.
type coordTimeout struct {
	ID    reqID
	Write bool
}

// aeTick triggers one anti-entropy round on a node. epoch ties the tick
// chain to a node incarnation: ticks scheduled before a crash do not
// duplicate the chain the restart starts.
type aeTick struct{ epoch uint32 }

// hintTick triggers hint replay attempts on a node (same epoch contract
// as aeTick).
type hintTick struct{ epoch uint32 }

// aeOffer opens an anti-entropy exchange: the initiator offers the
// versions of a sample of its keys.
type aeOffer struct {
	Keys     []string
	Versions []storage.Version
	From     netsim.NodeID
}

// aeReply answers an offer with cells newer on the responder and the list
// of keys where the initiator was newer.
type aeReply struct {
	Updates []aeCell
	Want    []string
	From    netsim.NodeID
}

// aePush closes the exchange: the initiator pushes the requested cells.
type aePush struct {
	Updates []aeCell
}

// aeCell pairs a key with its cell for anti-entropy transfer.
type aeCell struct {
	Key  string
	Cell storage.Cell
}

// streamRequest asks a current member to snapshot-stream the ranges the
// joiner will own under the pending post-join placement. Ranges are the
// ring.Diff movements the joiner enters, in ring's sorted order; every
// peer receives the same list and serves the subset it sources (the
// per-range single-source rule), so the sender walks only the moved
// arcs instead of filtering a full store snapshot per key.
type streamRequest struct {
	Joiner netsim.NodeID
	Ranges []ring.Range
}

// streamChunk carries framed cells (storage.EncodeCell records) of a
// snapshot stream; Count is the number of cells in Data.
type streamChunk struct {
	From  netsim.NodeID
	Data  []byte
	Count int
}

// streamDone closes one snapshot stream, announcing its totals so the
// receiver can detect chunks still in flight. NeedAck marks decommission
// handoffs: the receiver acknowledges completion with a streamAck.
type streamDone struct {
	From    netsim.NodeID
	Chunks  int
	Cells   int
	Bytes   int
	NeedAck bool
}

// streamAck confirms a decommission handoff stream fully applied on the
// new owner.
type streamAck struct {
	From netsim.NodeID
}

// Gossip protocol messages (Config.Gossip only). All are value types —
// each carries freshly built slices owned by the in-flight message, so
// none need pooling or dropWhileCrashed handling.

// gossipTick triggers one gossip round on a node: probe the next peer
// with piggybacked rumors. epoch has the same crash-invalidaton
// contract as aeTick.
type gossipTick struct{ epoch uint32 }

// gossipPing probes one peer, carrying the sender's ring knowledge and
// a bounded batch of liveness rumors. TargetStatus/TargetInc state the
// prober's current claim about the pingee: a pingee held suspect or
// dead refutes on receipt (incarnation bump), which is what heals a
// view after a partition even when the original rumor's piggyback
// budget is long spent.
type gossipPing struct {
	From    netsim.NodeID
	FromInc uint64 // sender's self-incarnation: the ping proves it alive
	Seq     uint64 // probe sequence on the sender; the ack echoes it
	RingSeq uint64
	// The prober's claim about the pingee (the refutation handshake).
	TargetStatus gossip.Status
	TargetInc    uint64
	Updates      []gossip.Update
}

// gossipAck answers a ping. Events bridges the sender forward when the
// responder's ring is newer; when the responder is the stale side, its
// RingSeq tells the ping sender to bridge it with a gossipEvents.
// TargetStatus/TargetInc mirror the ping's refutation handshake in the
// other direction (the responder's claim about the prober).
type gossipAck struct {
	From         netsim.NodeID
	FromInc      uint64
	Seq          uint64
	RingSeq      uint64
	TargetStatus gossip.Status
	TargetInc    uint64
	Updates      []gossip.Update
	Events       []gossip.RingEvent
}

// gossipEvents ships a missing ring-event suffix to a stale peer.
type gossipEvents struct {
	From   netsim.NodeID
	Events []gossip.RingEvent
}

// gossipProbeTimeout fires when a ping went unanswered for half the
// gossip interval: the prober suspects the target.
type gossipProbeTimeout struct {
	Seq    uint64
	Target netsim.NodeID
	epoch  uint32
}

// gossipSuspicionTimeout fires when a suspicion aged out unrefuted: the
// suspector declares the target dead (View.Confirm checks that the
// exact suspicion, by incarnation, still stands).
type gossipSuspicionTimeout struct {
	Target netsim.NodeID
	Inc    uint64
	epoch  uint32
}

// notOwner is a replica's refusal of a coordinated request for a range
// it no longer owns under its strictly newer ring. Events carries the
// ring-event suffix the coordinator is missing, so every refusal
// advances the coordinator's ring — the retry loop terminates even
// without the retry budget.
type notOwner struct {
	ID    reqID
	From  netsim.NodeID
	Write bool
	// Batch marks batched requests; Idxs/Keys list the refused items
	// (single-key refusals leave them nil and use Key).
	Batch  bool
	Idxs   []int
	Keys   []string
	Key    string
	Events []gossip.RingEvent
}

// ReadResult reports the outcome of a read operation.
type ReadResult struct {
	Err     error
	Key     string
	Value   []byte
	Version storage.Version
	Exists  bool
	// Stale is the staleness oracle's ground-truth verdict: the value
	// returned was older than the latest write issued before the read
	// started. It is measurement infrastructure, not something a real
	// client could observe.
	Stale    bool
	Level    Level
	Latency  time.Duration
	Replicas int // replicas contacted
	// Cached marks a read served from the coordinator's hot-key cache
	// (Config.HotCache): no replica was contacted. The monitor uses it
	// to report the effective post-cache load to the autoscaler.
	Cached bool
}

// WriteResult reports the outcome of a write operation.
type WriteResult struct {
	Err     error
	Key     string
	Version storage.Version
	Level   Level
	Latency time.Duration
	Acked   int // replica acks received by completion time
}

// Error values the store reports. They mirror Cassandra's exceptions.
type storeError string

func (e storeError) Error() string { return string(e) }

// Store-level failures.
const (
	// ErrTimeout: the coordinator did not assemble the required
	// acknowledgements within the request timeout.
	ErrTimeout = storeError("kv: operation timed out")
	// ErrUnavailable: fewer live replicas than the level requires.
	ErrUnavailable = storeError("kv: not enough live replicas for level")
	// ErrDeadline: the client-side per-operation deadline expired before
	// the result arrived.
	ErrDeadline = storeError("kv: operation deadline exceeded")
	// ErrCanceled: the operation's context was canceled before issue.
	ErrCanceled = storeError("kv: operation canceled")
)
