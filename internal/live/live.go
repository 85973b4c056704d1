// Package live runs the same store nodes as the discrete-event simulator
// but over wall-clock time and goroutines. A cluster-wide mutex
// serializes handler execution (node logic is written for serialized
// delivery). Zero-delay deliveries go on a FIFO run queue that the lock
// holder drains before releasing the lock. Every delayed event — a
// timer, a delayed self-message, and under New each sampled network
// latency — goes on the simulator's own timer heap (internal/sim),
// driven from the wall clock by one runtime timer. It exists to
// demonstrate — and race-test — that the adaptive middleware is
// engine-agnostic: the monitor, controllers and tuners run unchanged
// against a live cluster.
package live

import (
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Engine implements kv.Transport over real time.
type Engine struct {
	mu       sync.Mutex
	start    time.Time
	topo     *netsim.Topology
	rng      *stats.Source
	handlers map[netsim.NodeID]netsim.Handler
	meter    netsim.TrafficMeter
	down     map[netsim.NodeID]bool
	closed   bool

	// latency delays each in-process Send by a latency sampled from the
	// topology (New). A serving engine (NewMesh) leaves it off: its
	// in-process sends are immediate and its network is the mesh.
	latency bool

	// localSet marks the nodes this process serves (nil: all of them);
	// mesh carries messages addressed to the rest over TCP (NewMesh).
	localSet []bool
	mesh     *mesh

	// runq holds zero-delay deliveries until the lock holder drains it.
	runq []queuedMsg

	// heap holds every delayed event at its absolute deadline on the
	// engine clock. timer, the one runtime timer, runs the due events
	// (fire) and is re-armed at drain end for the earliest deadline
	// (armedAt while armed). Delayed messages wait in the parked slab,
	// whose free slots chain from free; unparkCb is the pre-bound heap
	// callback that releases them to the run queue.
	heap     *sim.Engine
	timer    *time.Timer
	armed    bool
	armedAt  time.Duration
	parked   []parkedMsg
	free     int32
	unparkCb func(uint32)

	// Scale compresses every delay (0.1 runs a WAN topology ten times
	// faster); 0 defaults to 1.
	Scale float64
}

// queuedMsg is one delivery: a run-queue entry or a parked message.
// local marks a self-message (SendLocal), which reaches a failed node.
type queuedMsg struct {
	to, from netsim.NodeID
	payload  any
	local    bool
}

// parkedMsg is a slot of the parked slab; next chains free slots.
type parkedMsg struct {
	queuedMsg
	next int32
}

const noSlot = int32(-1)

// New returns a live engine over topo whose in-process messages take a
// sampled network latency.
func New(topo *netsim.Topology, seed uint64) *Engine {
	e := &Engine{
		start:    time.Now(),
		topo:     topo,
		rng:      stats.NewSource(seed).Stream("live"),
		handlers: make(map[netsim.NodeID]netsim.Handler),
		down:     make(map[netsim.NodeID]bool),
		latency:  true,
		heap:     sim.New(seed),
		free:     noSlot,
		Scale:    1,
	}
	e.unparkCb = e.unpark
	return e
}

// Now reports time since engine start.
func (e *Engine) Now() time.Duration { return time.Since(e.start) }

// Register installs a node handler. It must run under the engine lock:
// cluster construction happens inside Do, so this does not lock itself
// (the mutex is not reentrant). In a multi-process deployment the
// cluster constructs actors for every ring member, but only the nodes
// this process serves are registered: a remote node's idle local twin
// never receives a message (its ticks and any stray deliveries are
// dropped), the peer process serves it instead.
func (e *Engine) Register(id netsim.NodeID, h netsim.Handler) {
	if !e.isLocal(id) {
		return
	}
	e.handlers[id] = h
}

// isLocal reports whether this process serves id (the client endpoint
// and out-of-range ids count as local).
func (e *Engine) isLocal(id netsim.NodeID) bool {
	return e.localSet == nil || id < 0 || int(id) >= len(e.localSet) || e.localSet[id]
}

// Do runs fn holding the engine lock; external drivers (workloads, tests)
// use it to interact with cluster state safely.
func (e *Engine) Do(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn()
	e.drain()
}

// drain runs queued deliveries until the run queue is empty (handlers
// may enqueue more), re-arms the timer for the earliest delayed event,
// then hands any staged peer frames to the mesh writers. Every path
// that takes the engine lock drains before releasing it, so handler
// execution stays serialized and non-reentrant, and no delayed event
// ever fires from inside a handler. As in netsim, a failed node loses
// network traffic that was in flight when it failed but still gets its
// self-messages: its clock is alive, only its network is cut.
func (e *Engine) drain() {
	for i := 0; i < len(e.runq); i++ {
		q := e.runq[i]
		e.runq[i] = queuedMsg{}
		if e.closed || (!q.local && e.down[q.to]) {
			continue
		}
		if h, ok := e.handlers[q.to]; ok {
			h(q.from, q.payload)
		}
	}
	e.runq = e.runq[:0]
	e.rearm()
	if e.mesh != nil {
		e.mesh.flushLocked()
	}
}

// rearm points the runtime timer at the heap's earliest deadline unless
// it is already armed for that deadline or an earlier one.
func (e *Engine) rearm() {
	at, ok := e.heap.Next()
	if !ok || e.closed || (e.armed && e.armedAt <= at) {
		return
	}
	wait := at - e.Now()
	if wait < 0 {
		wait = 0
	}
	if e.timer == nil {
		e.timer = time.AfterFunc(wait, e.fire)
	} else {
		e.timer.Reset(wait)
	}
	e.armed, e.armedAt = true, at
}

// fire is the runtime timer's callback: it runs every event now due
// and drains the cascade they cause.
func (e *Engine) fire() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.armed = false
	if e.closed {
		return
	}
	e.heap.RunUntil(e.Now())
	e.drain()
}

func (e *Engine) scale(d time.Duration) time.Duration {
	s := e.Scale
	if s <= 0 {
		s = 1
	}
	return time.Duration(float64(d) * s)
}

// after converts a delay into the heap's frame: the absolute deadline
// Now()+scale(d), relative to the heap clock, which trails Now().
func (e *Engine) after(d time.Duration) time.Duration {
	rel := e.Now() + e.scale(d) - e.heap.Now()
	if rel < 0 {
		rel = 0 // the wall clock stepped back; fire at the next tick
	}
	return rel
}

// deliver queues a message for to: on the run queue when delay is
// zero, else parked on the heap until its deadline.
func (e *Engine) deliver(to, from netsim.NodeID, payload any, local bool, delay time.Duration) {
	q := queuedMsg{to: to, from: from, payload: payload, local: local}
	if e.scale(delay) <= 0 {
		e.runq = append(e.runq, q)
		return
	}
	s := e.free
	if s == noSlot {
		e.parked = append(e.parked, parkedMsg{})
		s = int32(len(e.parked) - 1)
	} else {
		e.free = e.parked[s].next
	}
	e.parked[s].queuedMsg = q
	e.heap.ScheduleCall(e.after(delay), e.unparkCb, uint32(s))
}

// unpark moves a parked message whose deadline has come to the run
// queue and recycles its slot.
func (e *Engine) unpark(s uint32) {
	p := &e.parked[s]
	e.runq = append(e.runq, p.queuedMsg)
	p.queuedMsg = queuedMsg{}
	p.next = e.free
	e.free = int32(s)
}

// Send delivers payload after the network delay: a sampled latency
// under New, none under NewMesh. The caller must hold the engine lock
// (it always does: sends originate inside handlers or Do blocks).
func (e *Engine) Send(from, to netsim.NodeID, payload any, size int) {
	class := e.topo.Class(from, to)
	e.meter.Count(class, size)
	if e.mesh != nil && !e.isLocal(to) {
		e.mesh.send(from, to, payload)
		return
	}
	if e.down[from] || e.down[to] {
		e.meter.Dropped++
		return
	}
	var delay time.Duration
	if e.latency {
		delay = e.topo.Latency.Law(class).Sample(e.rng)
	}
	e.deliver(to, from, payload, false, delay)
}

// SendLocal schedules a self-message (timer) on id.
func (e *Engine) SendLocal(id netsim.NodeID, payload any, delay time.Duration) {
	e.deliver(id, id, payload, true, delay)
}

// Schedule runs fn under the engine lock after delay.
func (e *Engine) Schedule(d time.Duration, fn func()) {
	e.heap.Schedule(e.after(d), fn)
}

// ScheduleStop schedules fn after d and returns a stop function that
// cancels it (the cancelable-guard contract of the simulated
// transport). Arming and stopping both run under the engine lock.
func (e *Engine) ScheduleStop(d time.Duration, fn func()) func() {
	t := e.heap.Schedule(e.after(d), fn)
	return func() { t.Stop() }
}

// ScheduleStopCall is the allocation-free form of ScheduleStop: it arms
// a pre-bound callback with a slab argument and returns the heap's
// value-typed timer. Same locking contract as ScheduleStop.
func (e *Engine) ScheduleStopCall(d time.Duration, cb func(uint32), arg uint32) sim.Timer {
	return e.heap.ScheduleCall(e.after(d), cb, arg)
}

// Fail drops traffic to and from id (kv.Cluster's failure injection uses
// it through the failer interface). Like all cluster interactions it must
// run under the engine lock (inside Do or a handler).
func (e *Engine) Fail(id netsim.NodeID) { e.down[id] = true }

// Recover reverses Fail; same locking contract as Fail.
func (e *Engine) Recover(id netsim.NodeID) { delete(e.down, id) }

// Meter snapshots the traffic meter.
func (e *Engine) Meter() netsim.TrafficMeter {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.meter.Snapshot()
}

// Close stops delivering: no handler or scheduled function runs once it
// returns. A mesh engine additionally closes its peer connections and
// joins the reader/writer goroutines.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	if e.timer != nil {
		e.timer.Stop()
	}
	e.mu.Unlock()
	if e.mesh != nil {
		e.mesh.shutdown()
	}
}
