// Package sim implements the deterministic discrete-event engine that
// drives all simulated experiments. Virtual time is a time.Duration since
// the start of the simulation; events scheduled at equal times fire in
// scheduling order, so a run is a pure function of the seed and the
// initial event set.
//
// The scheduler is built for throughput: callbacks live in a value-typed
// slab recycled through a free list, ordered by an index-based 4-ary heap
// whose entries carry their own (time, seq) keys, so the steady-state
// Schedule/fire cycle performs zero heap allocations and comparisons
// never touch the slab. Timer handles stay valid across slot reuse via
// generation counters.
package sim

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// event is a callback slot in the engine's slab. Exactly one of fn or cb
// is set: fn is the general closure form, cb+arg the allocation-free form
// used by pooled delivery paths (netsim).
type event struct {
	fn       func()
	cb       func(uint32)
	arg      uint32
	gen      uint32 // bumped on slot release; stale Timers see a mismatch
	nextFree int32
	pos      int32 // index of this slot's entry in the heap while queued
}

// heapEntry is one queued event: the ordering key lives here so heap
// comparisons stay within the (compact, cache-resident) heap array.
type heapEntry struct {
	at   time.Duration
	seq  uint64 // tie-breaker: FIFO among equal times
	slot int32
}

func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const noIndex = int32(-1)

// Timer is a handle to a scheduled event that can be stopped before it
// fires. The zero Timer is inert.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Stop cancels the timer; it reports whether the callback had not yet run
// (and now never will). The event is removed from the heap immediately:
// a canceled guard timer far in the virtual future must not deepen the
// heap every hot-path operation pays to push and pop.
func (t Timer) Stop() bool {
	e := t.eng
	if e == nil {
		return false
	}
	ev := &e.events[t.slot]
	if ev.gen != t.gen {
		return false
	}
	e.removeAt(ev.pos)
	e.release(t.slot)
	return true
}

// Engine is a discrete-event scheduler. It is not safe for concurrent use;
// all interaction happens from event callbacks or from the goroutine
// calling Run.
type Engine struct {
	now      time.Duration
	events   []event     // slab; heap entries index into it
	heap     []heapEntry // 4-ary min-heap ordered by (at, seq)
	freeHead int32
	seq      uint64
	rng      *stats.Source
	stopped  bool
	fired    uint64
}

// New returns an engine whose randomness derives entirely from seed.
func New(seed uint64) *Engine {
	return &Engine{rng: stats.NewSource(seed), freeHead: noIndex}
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// RNG returns the engine's root random source; components should derive
// their own sub-streams from it.
func (e *Engine) RNG() *stats.Source { return e.rng }

// Events reports how many events have fired so far.
func (e *Engine) Events() uint64 { return e.fired }

// Pending reports how many events are queued (stopped timers are
// removed eagerly, so every pending event will fire).
func (e *Engine) Pending() int { return len(e.heap) }

// Next reports the time of the earliest queued event; ok is false when
// nothing is queued.
func (e *Engine) Next() (at time.Duration, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// alloc takes a slot from the free list (or grows the slab) and queues it
// at time t with the next sequence number.
func (e *Engine) alloc(t time.Duration) int32 {
	var slot int32
	if e.freeHead != noIndex {
		slot = e.freeHead
		e.freeHead = e.events[slot].nextFree
	} else {
		e.events = append(e.events, event{})
		slot = int32(len(e.events) - 1)
	}
	e.push(heapEntry{at: t, seq: e.seq, slot: slot})
	e.seq++
	return slot
}

// release returns a popped slot to the free list and invalidates
// outstanding Timer handles to it.
func (e *Engine) release(slot int32) {
	ev := &e.events[slot]
	ev.fn = nil
	ev.cb = nil
	ev.gen++
	ev.nextFree = e.freeHead
	e.freeHead = slot
}

// push inserts an entry into the 4-ary heap.
func (e *Engine) push(en heapEntry) {
	e.heap = append(e.heap, en)
	e.siftUp(int32(len(e.heap)-1), en)
}

// pop removes and returns the minimum entry; the heap must be non-empty.
func (e *Engine) pop() heapEntry {
	h := e.heap
	top := h[0]
	last := h[len(h)-1]
	e.heap = h[:len(h)-1]
	if len(e.heap) > 0 {
		e.siftDown(0, last)
	}
	return top
}

// removeAt deletes the entry at heap index i (an O(log n) unqueue used
// by Timer.Stop), preserving the order of everything else.
func (e *Engine) removeAt(i int32) {
	h := e.heap
	n := int32(len(h) - 1)
	last := h[n]
	e.heap = h[:n]
	if i == n {
		return
	}
	// The displaced last entry may belong above or below slot i.
	if i > 0 && last.before(e.heap[(i-1)>>2]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}

// siftUp places en at index i or above, keeping slot positions current.
func (e *Engine) siftUp(i int32, en heapEntry) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) >> 2
		if !en.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		e.events[h[i].slot].pos = i
		i = parent
	}
	h[i] = en
	e.events[en.slot].pos = i
}

// siftDown places en at index i or below, keeping slot positions current.
func (e *Engine) siftDown(i int32, en heapEntry) {
	h := e.heap
	n := int32(len(h))
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(en) {
			break
		}
		h[i] = h[best]
		e.events[h[i].slot].pos = i
		i = best
	}
	h[i] = en
	e.events[en.slot].pos = i
}

// Schedule runs fn after delay of virtual time and returns a stoppable
// handle. A negative delay panics: the past is immutable in a
// discrete-event world.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: scheduling %v in the past", delay))
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time t.
func (e *Engine) ScheduleAt(t time.Duration, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	slot := e.alloc(t)
	e.events[slot].fn = fn
	return Timer{eng: e, slot: slot, gen: e.events[slot].gen}
}

// ScheduleCall runs cb(arg) after delay of virtual time. It is the
// allocation-free variant of Schedule for hot paths that dispatch through
// a pre-bound callback and a slab index instead of a fresh closure
// (netsim's pooled message delivery).
func (e *Engine) ScheduleCall(delay time.Duration, cb func(uint32), arg uint32) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: scheduling %v in the past", delay))
	}
	slot := e.alloc(e.now + delay)
	ev := &e.events[slot]
	ev.cb = cb
	ev.arg = arg
	return Timer{eng: e, slot: slot, gen: ev.gen}
}

// Step fires the next event; it reports false when the queue is empty or
// the engine is stopped.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 || e.stopped {
		return false
	}
	en := e.pop()
	ev := &e.events[en.slot]
	e.now = en.at
	e.fired++
	fn, cb, arg := ev.fn, ev.cb, ev.arg
	e.release(en.slot)
	if cb != nil {
		cb(arg)
	} else {
		fn()
	}
	return true
}

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time ≤ t, then advances the clock to t.
// Events scheduled for later remain queued.
func (e *Engine) RunUntil(t time.Duration) {
	for len(e.heap) > 0 && !e.stopped && e.heap[0].at <= t {
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// Stop halts the engine; Run and RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
