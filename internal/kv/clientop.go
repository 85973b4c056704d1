package kv

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// This file holds the pooled client-operation state, the one path every
// single-key Read, Write and Delete takes. Ops live in a slab on the
// Cluster, message boxes carry a slab index + generation instead of a
// callback closure, and the guard timer is armed through the network's
// pre-bound-callback surface — so the steady-state client path
// allocates nothing beyond the pooled message boxes.

// callStopper is the zero-allocation guard surface a Network must
// have: arm cb(arg) after d with a value-typed cancelable handle.
// netsim.Transport and live.Engine both implement it over a sim engine
// heap; kv.New panics on a network without it.
type callStopper interface {
	ScheduleStopCall(d time.Duration, cb func(uint32), arg uint32) sim.Timer
}

// Op kinds for guard timeouts.
const (
	opKindRead uint8 = iota
	opKindWrite
)

const noOp = int32(-1)

// clientOp is one in-flight client operation: the result callback, the
// guard timer, and enough of the request to synthesize a timeout result.
// gen is bumped when the slot is recycled so a reply that lost the race
// against the guard is dropped instead of completing a stranger's op.
type clientOp struct {
	gen      uint32
	kind     uint8
	lvl      Level
	key      string
	rcb      func(ReadResult)
	wcb      func(WriteResult)
	guard    sim.Timer
	nextFree int32
}

// allocOp takes a slot from the free list or grows the slab.
func (c *Cluster) allocOp() uint32 {
	if c.opFree != noOp {
		idx := c.opFree
		c.opFree = c.ops[idx].nextFree
		return uint32(idx)
	}
	c.ops = append(c.ops, clientOp{})
	return uint32(len(c.ops) - 1)
}

// releaseOp recycles a slot; the generation bump invalidates any reply
// or guard reference still in flight.
func (c *Cluster) releaseOp(idx uint32) {
	op := &c.ops[idx]
	op.gen++
	op.key = ""
	op.rcb = nil
	op.wcb = nil
	op.guard = sim.Timer{}
	op.nextFree = c.opFree
	c.opFree = int32(idx)
}

// opCompleteRead finishes a slab-routed read: cancel the guard, recycle
// the slot, then run the callback (which may immediately issue a new op
// into the slot just freed — hence release-before-callback).
func (c *Cluster) opCompleteRead(idx, gen uint32, res ReadResult) {
	op := &c.ops[idx]
	if op.gen != gen {
		return // the guard already timed this op out and recycled the slot
	}
	op.guard.Stop()
	cb := op.rcb
	c.releaseOp(idx)
	cb(res)
}

// opCompleteWrite is the write counterpart of opCompleteRead.
func (c *Cluster) opCompleteWrite(idx, gen uint32, res WriteResult) {
	op := &c.ops[idx]
	if op.gen != gen {
		return
	}
	op.guard.Stop()
	cb := op.wcb
	c.releaseOp(idx)
	cb(res)
}

// guardFired is the pre-bound guard callback: completion always cancels
// the guard first, so firing means the op is still in flight — fail it
// with the client-side timeout.
func (c *Cluster) guardFired(idx uint32) {
	op := &c.ops[idx]
	key, lvl := op.key, op.lvl
	if op.kind == opKindRead {
		cb := op.rcb
		c.releaseOp(idx)
		cb(ReadResult{Err: ErrTimeout, Key: key, Level: lvl, Latency: 2 * c.cfg.Timeout})
		return
	}
	cb := op.wcb
	c.releaseOp(idx)
	cb(WriteResult{Err: ErrTimeout, Key: key, Level: lvl, Latency: 2 * c.cfg.Timeout})
}

// sendOpRead issues a slab-routed read to coord.
func (c *Cluster) sendOpRead(id reqID, coord netsim.NodeID, key string, lvl Level, cb func(ReadResult)) {
	idx := c.allocOp()
	op := &c.ops[idx]
	op.kind = opKindRead
	op.key = key
	op.lvl = lvl
	op.rcb = cb
	c.net.Send(netsim.ClientID, coord,
		newClientRead(clientRead{ID: id, Key: key, Level: lvl, rt: readRoute{op: idx, opGen: op.gen}}),
		msgOverhead+len(key))
	op.guard = c.callStop.ScheduleStopCall(2*c.cfg.Timeout, c.guardCb, idx)
}

// sendOpWrite issues a slab-routed write (or tombstone) to coord.
func (c *Cluster) sendOpWrite(id reqID, coord netsim.NodeID, key string, value []byte, lvl Level, tombstone bool, cb func(WriteResult)) {
	idx := c.allocOp()
	op := &c.ops[idx]
	op.kind = opKindWrite
	op.key = key
	op.lvl = lvl
	op.wcb = cb
	c.net.Send(netsim.ClientID, coord,
		newClientWrite(clientWrite{ID: id, Key: key, Value: value, Level: lvl, tombstone: tombstone,
			rt: writeRoute{op: idx, opGen: op.gen}}),
		msgOverhead+len(key)+len(value))
	op.guard = c.callStop.ScheduleStopCall(2*c.cfg.Timeout, c.guardCb, idx)
}
