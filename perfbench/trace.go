package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
)

// The traced run wraps the program's public seams — kv.Transport,
// netsim.Handler, kv.Session, core.Tuner and the monitor's kv.Hooks —
// in decorators that time each call and forward it unchanged. Spans
// are kept in memory (a sampled subset of requests, with every span
// those requests caused) and written out when the run ends; counters
// and histograms cover every call.

// maxSpans caps the spans kept in memory.
const maxSpans = 300_000

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's origin; Parent is the index of the enclosing span
// (-1 for a root) and Req the request (pipeline batch, or top-level
// simulator event) it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer owns the span buffer shared by every decorated layer.
type tracer struct {
	origin time.Time
	sample uint64 // keep the spans of one request in sample

	mu      sync.Mutex
	spans   []span
	dropped uint64

	// The serving run's current pipeline batch (the generator has one
	// batch in flight at a time): its request id and root span index,
	// -1 when the batch is not sampled.
	batchReq  atomic.Uint64
	batchSpan atomic.Int32
}

func newTracer(sample uint64) *tracer {
	t := &tracer{origin: time.Now(), sample: sample}
	t.batchSpan.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open appends a span with no end yet and returns its index, or -1
// once the buffer is full.
func (t *tracer) open(name string, parent int32, req uint64, start int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32, end int64) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// beginBatch opens the root span of a pipeline batch when it is
// sampled; endBatch closes it.
func (t *tracer) beginBatch() {
	req := t.batchReq.Add(1)
	idx := int32(-1)
	if req%t.sample == 0 {
		idx = t.open("server.batch", -1, req, t.now())
	}
	t.batchSpan.Store(idx)
}

func (t *tracer) endBatch() {
	t.close(t.batchSpan.Load(), t.now())
	t.batchSpan.Store(-1)
}

// finished returns the closed spans; callers hold no other reference.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.finished() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes reports, per span name, the summed duration and the summed
// self time: the duration minus the part of the interval its children
// cover.
func selfTimes(spans []span) map[string][2]int64 {
	children := childIntervals(spans)
	out := make(map[string][2]int64)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		self := d - covered(s.Start, s.End, children[int32(i)])
		v := out[s.Name]
		v[0] += d
		v[1] += self
		out[s.Name] = v
	}
	return out
}

// childIntervals groups closed spans' intervals by parent index.
func childIntervals(spans []span) map[int32][][2]int64 {
	m := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			m[s.Parent] = append(m[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	return m
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// layerStats are the per-engine aggregates of one decorated deployment
// (or simulator). Every field is touched only under that engine's lock,
// which serializes handlers, sends, sessions and hooks.
type layerStats struct {
	handlerNs, handlerMsgs int64
	outerNs                int64 // time inside top-level spans (nested ones excluded)
	byType                 map[reflect.Type]*typeStat

	sends, sendBytes int64
	remoteSends      int64
	frames           int64
	frameBytes       int64
	frameNs          int64

	hookNs, hookCalls   int64
	decideNs, decisions int64

	readLat, writeLat stats.Histogram // session call to callback, transport clock
	sessionReads      int64
	sessionWrites     int64
}

type typeStat struct{ ns, n int64 }

// layer is the decorator state of one engine: its aggregates and the
// nesting of the spans open on it.
type layer struct {
	tr    *tracer
	stats layerStats

	// remote reports whether a node is served by another process; nil
	// when every node is local.
	remote func(netsim.NodeID) bool
	frame  []byte

	depth   int
	stack   []int32 // recorded spans open on this engine
	rootReq uint64  // request of the current top-level span
	rootRec bool    // whether the current top-level span is sampled
	seq     uint64  // top-level spans seen (simulator request ids)
	batched bool    // requests are the serving run's pipeline batches
}

func newLayer(tr *tracer, batched bool, remote func(netsim.NodeID) bool) *layer {
	return &layer{tr: tr, batched: batched, remote: remote,
		stats: layerStats{byType: make(map[reflect.Type]*typeStat)}}
}

// enter opens a timed call; exit closes it and returns its duration.
func (l *layer) enter(name string) (int32, int64) {
	t0 := l.tr.now()
	parent := int32(-1)
	if l.depth == 0 {
		if l.batched {
			l.rootReq = l.tr.batchReq.Load()
			parent = l.tr.batchSpan.Load()
			l.rootRec = parent >= 0
		} else {
			l.seq++
			l.rootReq = l.seq
			l.rootRec = l.seq%l.tr.sample == 0
		}
	} else if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.depth++
	idx := int32(-1)
	if l.rootRec {
		idx = l.tr.open(name, parent, l.rootReq, t0)
		if idx >= 0 {
			l.stack = append(l.stack, idx)
		}
	}
	return idx, t0
}

func (l *layer) exit(idx int32, t0 int64) int64 {
	t1 := l.tr.now()
	l.depth--
	if idx >= 0 {
		l.tr.close(idx, t1)
		l.stack = l.stack[:len(l.stack)-1]
	}
	d := t1 - t0
	if l.depth == 0 {
		l.stats.outerNs += d
	}
	return d
}

// parentForAsync is the parent of a span that ends in a later callback
// (a session call): the innermost open span, or the current batch.
func (l *layer) parentForAsync() (int32, uint64, bool) {
	if n := len(l.stack); n > 0 {
		return l.stack[n-1], l.rootReq, true
	}
	if l.batched {
		p := l.tr.batchSpan.Load()
		return p, l.tr.batchReq.Load(), p >= 0
	}
	return -1, 0, false
}

// handler wraps one node's message handler.
func (l *layer) handler(h netsim.Handler) netsim.Handler {
	return func(from netsim.NodeID, payload any) {
		typ := reflect.TypeOf(payload)
		idx, t0 := l.enter("kv.handle")
		h(from, payload)
		d := l.exit(idx, t0)
		l.stats.handlerNs += d
		l.stats.handlerMsgs++
		ts := l.stats.byType[typ]
		if ts == nil {
			ts = &typeStat{}
			l.stats.byType[typ] = ts
		}
		ts.ns += d
		ts.n++
	}
}

// The optional transport surfaces kv probes for with type assertions.
// They mirror kv's unexported interfaces method for method.
type (
	failer interface {
		Fail(id netsim.NodeID)
		Recover(id netsim.NodeID)
	}
	stopper interface {
		ScheduleStop(d time.Duration, fn func()) func()
	}
	callStopper interface {
		ScheduleStopCall(d time.Duration, cb func(uint32), arg uint32) sim.Timer
	}
)

// tracedTransport counts and sizes every Send, wraps every registered
// handler, and forwards everything else unchanged.
type tracedTransport struct {
	inner kv.Transport
	l     *layer
}

func (t *tracedTransport) Now() time.Duration { return t.inner.Now() }

func (t *tracedTransport) Send(from, to netsim.NodeID, payload any, size int) {
	t.l.stats.sends++
	t.l.stats.sendBytes += int64(size)
	if t.l.remote != nil && t.l.remote(to) {
		t.l.stats.remoteSends++
		t.l.encodeFrame(from, to, payload)
	}
	t.inner.Send(from, to, payload, size)
}

func (t *tracedTransport) SendLocal(id netsim.NodeID, payload any, delay time.Duration) {
	t.inner.SendLocal(id, payload, delay)
}

func (t *tracedTransport) Register(id netsim.NodeID, h netsim.Handler) {
	t.inner.Register(id, t.l.handler(h))
}

func (t *tracedTransport) Schedule(d time.Duration, fn func()) { t.inner.Schedule(d, fn) }

// encodeFrame sizes and times the wire frame of a payload bound for
// another process. kv.MarshalMessage recycles a pooled message box
// once it is on the wire, and the real send still needs the box, so
// the frame is encoded from a shallow copy: the copy is the box that
// gets cleared and pooled, the original is untouched.
func (l *layer) encodeFrame(from, to netsim.NodeID, payload any) {
	msg := payload
	if v := reflect.ValueOf(payload); v.Kind() == reflect.Pointer {
		cp := reflect.New(v.Elem().Type())
		cp.Elem().Set(v.Elem())
		msg = cp.Interface()
	}
	t0 := time.Now()
	var ok bool
	l.frame, ok = kv.MarshalMessage(l.frame[:0], from, to, msg)
	d := time.Since(t0)
	if ok {
		l.stats.frames++
		l.stats.frameBytes += int64(len(l.frame))
		l.stats.frameNs += int64(d)
	}
}

type failFwd struct{ f failer }

func (x failFwd) Fail(id netsim.NodeID)    { x.f.Fail(id) }
func (x failFwd) Recover(id netsim.NodeID) { x.f.Recover(id) }

type stopFwd struct{ s stopper }

func (x stopFwd) ScheduleStop(d time.Duration, fn func()) func() { return x.s.ScheduleStop(d, fn) }

type callFwd struct{ c callStopper }

func (x callFwd) ScheduleStopCall(d time.Duration, cb func(uint32), arg uint32) sim.Timer {
	return x.c.ScheduleStopCall(d, cb, arg)
}

// wrapTransport decorates inner. The result implements failer, stopper
// and callStopper exactly when inner does, so kv's type assertions take
// the same branches as on the bare engine. Two transports exist: the
// simulator's has all three surfaces, the live engine failer and
// stopper.
func wrapTransport(inner kv.Transport, l *layer) kv.Transport {
	t := &tracedTransport{inner: inner, l: l}
	f, hasF := inner.(failer)
	s, hasS := inner.(stopper)
	c, hasC := inner.(callStopper)
	switch {
	case hasF && hasS && hasC:
		return struct {
			*tracedTransport
			failFwd
			stopFwd
			callFwd
		}{t, failFwd{f}, stopFwd{s}, callFwd{c}}
	case hasF && hasS:
		return struct {
			*tracedTransport
			failFwd
			stopFwd
		}{t, failFwd{f}, stopFwd{s}}
	case !hasF && !hasS && !hasC:
		return t
	}
	panic(fmt.Sprintf("perfbench: no decorator for transport %T", inner))
}

// tracedSession times every session call until its callback on the
// transport's clock, and records it as a span on the tracer's clock.
type tracedSession struct {
	inner kv.Session
	l     *layer
	clock func() time.Duration
}

func (s tracedSession) start(name string) func() {
	idx := int32(-1)
	// In the simulator a session call completes in virtual time, after
	// the engine has run unrelated events, so a wall-clock span would
	// cover them: only the serving run records session spans.
	if parent, req, rec := s.l.parentForAsync(); rec && s.l.batched {
		idx = s.l.tr.open(name, parent, req, s.l.tr.now())
	}
	h := &s.l.stats.readLat
	if name != "kv.read" {
		h = &s.l.stats.writeLat
	}
	t0 := s.clock()
	return func() {
		h.Record(s.clock() - t0)
		s.l.tr.close(idx, s.l.tr.now())
	}
}

func (s tracedSession) Read(key string, cb func(kv.ReadResult)) {
	s.l.stats.sessionReads++
	done := s.start("kv.read")
	s.inner.Read(key, func(r kv.ReadResult) { done(); cb(r) })
}

func (s tracedSession) Write(key string, value []byte, cb func(kv.WriteResult)) {
	s.l.stats.sessionWrites++
	done := s.start("kv.write")
	s.inner.Write(key, value, func(r kv.WriteResult) { done(); cb(r) })
}

func (s tracedSession) Delete(key string, cb func(kv.WriteResult)) {
	s.l.stats.sessionWrites++
	done := s.start("kv.delete")
	s.inner.Delete(key, func(r kv.WriteResult) { done(); cb(r) })
}

func (s tracedSession) BatchRead(keys []string, cb func([]kv.ReadResult)) {
	s.l.stats.sessionReads++
	done := s.start("kv.read")
	s.inner.BatchRead(keys, func(r []kv.ReadResult) { done(); cb(r) })
}

func (s tracedSession) BatchWrite(ops []kv.BatchOp, cb func([]kv.WriteResult)) {
	s.l.stats.sessionWrites++
	done := s.start("kv.write")
	s.inner.BatchWrite(ops, func(r []kv.WriteResult) { done(); cb(r) })
}

// tracedTuner times Decide.
type tracedTuner struct {
	inner core.Tuner
	l     *layer
}

func (t tracedTuner) Name() string { return t.inner.Name() }

func (t tracedTuner) Decide(snap monitor.Snapshot) core.Decision {
	idx, t0 := t.l.enter("harmony.decide")
	d := t.inner.Decide(snap)
	t.l.stats.decideNs += t.l.exit(idx, t0)
	t.l.stats.decisions++
	return d
}

// wrapHooks times every non-nil monitor callback; nil callbacks stay
// nil so the store skips them exactly as before.
func wrapHooks(h *kv.Hooks, l *layer) *kv.Hooks {
	timed := func() func() {
		idx, t0 := l.enter("monitor.hook")
		return func() {
			l.stats.hookNs += l.exit(idx, t0)
			l.stats.hookCalls++
		}
	}
	w := &kv.Hooks{}
	if f := h.ReadStarted; f != nil {
		w.ReadStarted = func(now time.Duration, key string) { done := timed(); f(now, key); done() }
	}
	if f := h.ReadCompleted; f != nil {
		w.ReadCompleted = func(now time.Duration, res kv.ReadResult) { done := timed(); f(now, res); done() }
	}
	if f := h.WriteStarted; f != nil {
		w.WriteStarted = func(now time.Duration, key string, v storage.Version, n int) {
			done := timed()
			f(now, key, v, n)
			done()
		}
	}
	if f := h.WriteAck; f != nil {
		w.WriteAck = func(now time.Duration, key string, rank int, delay time.Duration) {
			done := timed()
			f(now, key, rank, delay)
			done()
		}
	}
	if f := h.WriteCompleted; f != nil {
		w.WriteCompleted = func(now time.Duration, res kv.WriteResult) { done := timed(); f(now, res); done() }
	}
	if f := h.BatchStarted; f != nil {
		w.BatchStarted = func(now time.Duration, reads, writes int) { done := timed(); f(now, reads, writes); done() }
	}
	return w
}

// typeName shortens a payload type to its bare name ("*kv.replicaRead"
// becomes "replicaRead").
func typeName(t reflect.Type) string {
	s := t.String()
	s = strings.TrimLeft(s, "*")
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		s = s[i+1:]
	}
	return s
}
