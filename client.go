package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/kv"
	"repro/internal/ycsb"
)

// PutOp is one item of a multi-key batch mutation; Delete issues a
// tombstone for Key instead of storing Value.
type PutOp = kv.BatchOp

// Store-level errors surfaced through result Err fields.
var (
	// ErrTimeout: the store did not complete the operation in time.
	ErrTimeout = kv.ErrTimeout
	// ErrUnavailable: fewer live replicas than the level requires.
	ErrUnavailable = kv.ErrUnavailable
	// ErrDeadline: the per-operation deadline (WithDeadline) expired.
	ErrDeadline = kv.ErrDeadline
	// ErrCanceled: the operation's context was canceled before issue.
	ErrCanceled = kv.ErrCanceled
)

// Client is the unified, context-aware surface of both backends: the
// simulated deployment (Sim.Client) and the live deployment
// (Live.Client) serve it through one implementation, so examples,
// tools, workload drivers and embedding services are written once.
// Blocking forms return when the result is in; *Async forms return a
// Future immediately.
// Multi-key Batch operations are coordinated as true batches in the
// store — one coordinator admission and at most one request message per
// replica per batch — not as N independent operations.
//
// Per-operation options override the session's consistency level
// (WithLevel) and bound client-visible completion time (WithDeadline).
// A canceled context fails the operation with ErrCanceled before issue;
// cancellation mid-wait returns a result carrying the context's error
// while the underlying operation completes in the store regardless.
//
// Clients are membership-transparent: operations issued across a
// Join/Decommission (Sim.Join, Live.Join, ...) route by whatever
// placement is current when the coordinator admits them, and in-flight
// operations drain on the old owners — callers never observe a
// membership change except as shifting replica sets.
type Client interface {
	Get(ctx context.Context, key string, opts ...OpOption) ReadResult
	Put(ctx context.Context, key string, value []byte, opts ...OpOption) WriteResult
	Delete(ctx context.Context, key string, opts ...OpOption) WriteResult
	BatchGet(ctx context.Context, keys []string, opts ...OpOption) []ReadResult
	BatchPut(ctx context.Context, ops []PutOp, opts ...OpOption) []WriteResult

	GetAsync(ctx context.Context, key string, opts ...OpOption) *ReadFuture
	PutAsync(ctx context.Context, key string, value []byte, opts ...OpOption) *WriteFuture
	DeleteAsync(ctx context.Context, key string, opts ...OpOption) *WriteFuture
	BatchGetAsync(ctx context.Context, keys []string, opts ...OpOption) *BatchGetFuture
	BatchPutAsync(ctx context.Context, ops []PutOp, opts ...OpOption) *BatchPutFuture

	// Run drives a YCSB-style workload through this client's session to
	// completion and returns its metrics.
	Run(w Workload, o RunOptions) (*Metrics, error)
	// Session exposes the underlying session, the seam for wrappers
	// (freshness enforcement, tracing) that predate the Client API.
	Session() Session
}

// RunOptions parameterizes Client.Run. The zero value runs 10k
// operations on 16 closed-loop threads with the workload's records
// preloaded.
type RunOptions struct {
	Ops          uint64  // operations to run; 0 means 10 000
	Threads      int     // closed-loop client threads; 0 means 16
	BatchSize    int     // >1 dispatches multi-key batches of this size
	WarmupOps    uint64  // completions ignored before measurement starts
	OpenLoopRate float64 // ops/s Poisson arrivals; 0 selects closed loop
	NoPreload    bool    // skip loading the workload's records first
}

// opOptions is the resolved per-operation option set.
type opOptions struct {
	level    *Level
	deadline time.Duration
}

// OpOption customizes one client operation.
type OpOption func(*opOptions)

// WithLevel overrides the session's consistency level for this
// operation (for a batch: for every item of the batch).
func WithLevel(l Level) OpOption { return func(o *opOptions) { o.level = &l } }

// WithDeadline fails the operation with ErrDeadline if the result has
// not arrived within d of issue — virtual time on the simulated
// backend, wall time live. The store may still complete the operation
// afterwards; the deadline bounds the client-visible wait only.
func WithDeadline(d time.Duration) OpOption { return func(o *opOptions) { o.deadline = d } }

func resolveOpts(opts []OpOption) opOptions {
	var o opOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Future is a pending operation result. Wait blocks until the result is
// available (on the simulated backend it advances virtual time on the
// caller's goroutine); Ready polls without blocking.
type Future[T any] struct {
	mu       sync.Mutex //repolint:allow simpure futures resolve from live-engine goroutines; the sim path never contends
	resolved bool
	res      T
	done     chan struct{}
	pump     func() bool   // sim backends: advance virtual time one event
	fail     func(error) T // builds the result for cancellation paths
}

// The future types the Client API returns.
type (
	ReadFuture     = Future[ReadResult]
	WriteFuture    = Future[WriteResult]
	BatchGetFuture = Future[[]ReadResult]
	BatchPutFuture = Future[[]WriteResult]
)

func newFuture[T any](pump func() bool, fail func(error) T) *Future[T] {
	return &Future[T]{done: make(chan struct{}), pump: pump, fail: fail}
}

// resolve publishes the result; the first resolution wins.
func (f *Future[T]) resolve(v T) {
	f.mu.Lock() //repolint:allow simpure guards cross-goroutine resolution under the live engine
	defer f.mu.Unlock()
	if f.resolved {
		return
	}
	f.resolved = true
	f.res = v
	close(f.done)
}

// Ready reports whether Wait would return immediately.
func (f *Future[T]) Ready() bool {
	f.mu.Lock() //repolint:allow simpure guards cross-goroutine resolution under the live engine
	defer f.mu.Unlock()
	return f.resolved
}

// Wait blocks until the result is available or ctx is done; on
// cancellation it returns a result carrying ctx.Err() while the store
// finishes the operation in the background.
func (f *Future[T]) Wait(ctx context.Context) T {
	if f.pump != nil {
		// Simulated backend: single-threaded, so drive the engine here.
		for {
			f.mu.Lock() //repolint:allow simpure guards cross-goroutine resolution under the live engine
			resolved, res := f.resolved, f.res
			f.mu.Unlock() //repolint:allow simpure guards cross-goroutine resolution under the live engine
			if resolved {
				return res
			}
			if err := ctx.Err(); err != nil {
				return f.fail(err)
			}
			if !f.pump() {
				// The engine drained without resolving — impossible while
				// the store's client-side timeout timer is pending, so
				// this is purely a backstop.
				return f.fail(ErrTimeout)
			}
		}
	}
	select {
	case <-f.done:
		return f.res
	case <-ctx.Done():
		return f.fail(ctx.Err())
	}
}

// failedBatchReads builds per-item failure results for a whole batch.
func failedBatchReads(keys []string, err error) []ReadResult {
	out := make([]ReadResult, len(keys))
	for i, k := range keys {
		out[i] = ReadResult{Err: err, Key: k}
	}
	return out
}

func failedBatchWrites(ops []PutOp, err error) []WriteResult {
	out := make([]WriteResult, len(ops))
	for i, op := range ops {
		out[i] = WriteResult{Err: err, Key: op.Key}
	}
	return out
}

// driver adapts one backend to the shared Client implementation: the
// simulated and live clients differ in these three places only.
type driver struct {
	// pump advances the single-threaded simulator by one event and
	// reports false once none is left. It is nil live, where store
	// callbacks resolve futures on engine goroutines.
	pump func() bool
	// do runs fn with exclusive access to the store: inline in the
	// simulator, under the engine lock live.
	do func(fn func())
	// arm runs fail after d, a no-op once the operation's future has
	// resolved: virtual time in the simulator, wall time live.
	arm func(d time.Duration, fail func())
}

// liveRunWatchdog bounds a live Client.Run; a simulated run that cannot
// finish fails as soon as its event queue runs dry instead.
const liveRunWatchdog = 10 * time.Minute

// client implements Client over a driver.
type client struct {
	drv     driver
	cluster *kv.Cluster
	net     kv.Transport // the workload runner's clock and timers
	sess    Session
}

func (c *client) Session() Session { return c.sess }

func (c *client) Get(ctx context.Context, key string, opts ...OpOption) ReadResult {
	return c.GetAsync(ctx, key, opts...).Wait(ctx)
}

func (c *client) Put(ctx context.Context, key string, value []byte, opts ...OpOption) WriteResult {
	return c.PutAsync(ctx, key, value, opts...).Wait(ctx)
}

func (c *client) Delete(ctx context.Context, key string, opts ...OpOption) WriteResult {
	return c.DeleteAsync(ctx, key, opts...).Wait(ctx)
}

func (c *client) BatchGet(ctx context.Context, keys []string, opts ...OpOption) []ReadResult {
	return c.BatchGetAsync(ctx, keys, opts...).Wait(ctx)
}

func (c *client) BatchPut(ctx context.Context, ops []PutOp, opts ...OpOption) []WriteResult {
	return c.BatchPutAsync(ctx, ops, opts...).Wait(ctx)
}

// issue starts one operation: it fails at once on a canceled context,
// otherwise runs start with exclusive store access and arms the
// operation's deadline. start gets the level override (nil: use the
// session) and the future's resolver.
func issue[T any](c *client, ctx context.Context, opts []OpOption, fail func(error) T,
	start func(lvl *Level, done func(T))) *Future[T] {
	o := resolveOpts(opts)
	f := newFuture(c.drv.pump, fail)
	if ctx.Err() != nil {
		f.resolve(fail(ErrCanceled))
		return f
	}
	c.drv.do(func() { start(o.level, f.resolve) })
	if o.deadline > 0 {
		c.drv.arm(o.deadline, func() { f.resolve(fail(ErrDeadline)) })
	}
	return f
}

func (c *client) GetAsync(ctx context.Context, key string, opts ...OpOption) *ReadFuture {
	return issue(c, ctx, opts, func(err error) ReadResult { return ReadResult{Err: err, Key: key} },
		func(lvl *Level, done func(ReadResult)) {
			if lvl != nil {
				c.cluster.Read(key, *lvl, done)
			} else {
				c.sess.Read(key, done)
			}
		})
}

func (c *client) PutAsync(ctx context.Context, key string, value []byte, opts ...OpOption) *WriteFuture {
	return issue(c, ctx, opts, func(err error) WriteResult { return WriteResult{Err: err, Key: key} },
		func(lvl *Level, done func(WriteResult)) {
			if lvl != nil {
				c.cluster.Write(key, value, *lvl, done)
			} else {
				c.sess.Write(key, value, done)
			}
		})
}

func (c *client) DeleteAsync(ctx context.Context, key string, opts ...OpOption) *WriteFuture {
	return issue(c, ctx, opts, func(err error) WriteResult { return WriteResult{Err: err, Key: key} },
		func(lvl *Level, done func(WriteResult)) {
			if lvl != nil {
				c.cluster.Delete(key, *lvl, done)
			} else {
				c.sess.Delete(key, done)
			}
		})
}

func (c *client) BatchGetAsync(ctx context.Context, keys []string, opts ...OpOption) *BatchGetFuture {
	return issue(c, ctx, opts, func(err error) []ReadResult { return failedBatchReads(keys, err) },
		func(lvl *Level, done func([]ReadResult)) {
			if lvl != nil {
				c.cluster.ReadBatch(keys, *lvl, done)
			} else {
				c.sess.BatchRead(keys, done)
			}
		})
}

func (c *client) BatchPutAsync(ctx context.Context, ops []PutOp, opts ...OpOption) *BatchPutFuture {
	return issue(c, ctx, opts, func(err error) []WriteResult { return failedBatchWrites(ops, err) },
		func(lvl *Level, done func([]WriteResult)) {
			if lvl != nil {
				c.cluster.WriteBatch(ops, *lvl, done)
			} else {
				c.sess.BatchWrite(ops, done)
			}
		})
}

// Run drives a workload to completion. The runner issues and accounts
// operations entirely with exclusive store access (Start runs inside
// do; completions run inside engine handlers), so the session is driven
// the same way on both backends. A run that cannot finish fails the
// backend's way: the simulator's event queue runs dry, or the live
// watchdog expires.
func (c *client) Run(w Workload, o RunOptions) (*Metrics, error) {
	var r *ycsb.Runner
	var err error
	done := newFuture(c.drv.pump, func(error) error {
		return errors.New("repro: workload stalled before completion")
	})
	c.drv.do(func() {
		r, err = ycsb.NewRunner(c.sess, w, c.net, c.cluster.Config().Seed)
		if err != nil {
			return
		}
		applyRunOptions(r, o)
		r.OnDone = func() { done.resolve(nil) }
		if !o.NoPreload {
			c.cluster.Preload(w.RecordCount, r.Keys, r.Value())
		}
		r.Start()
	})
	if err != nil {
		return nil, err
	}
	if c.drv.pump == nil {
		c.drv.arm(liveRunWatchdog, func() {
			done.resolve(fmt.Errorf("repro: live workload did not finish within %v", liveRunWatchdog))
		})
	}
	if err := done.Wait(context.Background()); err != nil {
		return nil, err
	}
	var m *Metrics
	c.drv.do(func() { m = r.Metrics() })
	return m, nil
}

// applyRunOptions maps RunOptions onto a runner.
func applyRunOptions(r *ycsb.Runner, o RunOptions) {
	if o.Ops > 0 {
		r.OpCount = o.Ops
	}
	if o.Threads > 0 {
		r.Threads = o.Threads
	}
	r.BatchSize = o.BatchSize
	r.WarmupOps = o.WarmupOps
	r.OpenLoopRate = o.OpenLoopRate
}
