package kv

import "repro/internal/sim"

// Coordinator timeouts. Every coordinated operation, single-key or
// batched, arms one cancelable timer for cfg.Timeout through the
// network's callStopper. The context stops it as soon as no further
// reply can reach it, so in the common case nothing fires; when the
// timer does fire, onTimeout fails whatever is still incomplete and
// releases the context. Timer state lives in a per-node slab recycled
// through a free list, and every timer shares the node's pre-bound
// callback, so arming allocates nothing.

const noTimer = int32(-1)

// coordTimer is one slot of a node's timer slab: the request it
// covers and the engine handle that stops it.
type coordTimer struct {
	id       reqID
	write    bool
	timer    sim.Timer
	nextFree int32
}

// armTimeout arms the coordinator timeout of request id and returns
// its slab slot, which the owning context keeps to retire it.
func (n *Node) armTimeout(id reqID, write bool) uint32 {
	s := n.timerFree
	if s != noTimer {
		n.timerFree = n.timers[s].nextFree
	} else {
		n.timers = append(n.timers, coordTimer{})
		s = int32(len(n.timers) - 1)
	}
	t := &n.timers[s]
	t.id, t.write = id, write
	t.timer = n.cluster.callStop.ScheduleStopCall(n.cluster.cfg.Timeout, n.timerCb, uint32(s))
	return uint32(s)
}

// freeTimer returns slot s to the free list.
func (n *Node) freeTimer(s uint32) {
	n.timers[s] = coordTimer{nextFree: n.timerFree}
	n.timerFree = int32(s)
}

// retireTimeout stops the timer in slot s: the context it covers left
// the coordinator's maps before its deadline.
func (n *Node) retireTimeout(s uint32) {
	n.timers[s].timer.Stop()
	n.freeTimer(s)
}

// timeoutFired is the pre-bound timer callback; it recycles the slot
// first. A timer armed before a crash finds nothing: the crash emptied
// the context maps and request ids are never reused. A timer whose
// actor a rejoin replaced is ignored, as its timeout message used to
// reach the new actor and find nothing there.
func (n *Node) timeoutFired(s uint32) {
	t := n.timers[s]
	n.freeTimer(s)
	if n.cluster.nodes[n.id] != n {
		return
	}
	n.onTimeout(t.id, t.write)
}
