package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
)

// newLiveCluster builds a small live deployment with compressed
// latencies so tests finish quickly.
func newLiveCluster(seed uint64) (*Engine, *kv.Cluster) {
	topo := netsim.SingleDC(4)
	eng := New(topo, seed)
	eng.Scale = 0.2
	cfg := kv.DefaultConfig()
	cfg.Seed = seed
	cfg.HintReplayInterval = 0
	cfg.AntiEntropyInterval = 0
	var cl *kv.Cluster
	eng.Do(func() { cl = kv.New(topo, eng, cfg) })
	return eng, cl
}

func blockingWrite(eng *Engine, cl *kv.Cluster, key string, val []byte, lvl kv.Level) kv.WriteResult {
	ch := make(chan kv.WriteResult, 1)
	eng.Do(func() { cl.Write(key, val, lvl, func(r kv.WriteResult) { ch <- r }) })
	return <-ch
}

func blockingRead(eng *Engine, cl *kv.Cluster, key string, lvl kv.Level) kv.ReadResult {
	ch := make(chan kv.ReadResult, 1)
	eng.Do(func() { cl.Read(key, lvl, func(r kv.ReadResult) { ch <- r }) })
	return <-ch
}

func TestLiveWriteReadRoundtrip(t *testing.T) {
	eng, cl := newLiveCluster(1)
	defer eng.Close()
	w := blockingWrite(eng, cl, "k", []byte("hello"), kv.Quorum)
	if w.Err != nil {
		t.Fatalf("write: %v", w.Err)
	}
	r := blockingRead(eng, cl, "k", kv.Quorum)
	if r.Err != nil || string(r.Value) != "hello" || r.Stale {
		t.Fatalf("read: %+v", r)
	}
}

// TestLiveConcurrentClients exercises the engine with many goroutines;
// run under -race this validates the locking discipline.
func TestLiveConcurrentClients(t *testing.T) {
	eng, cl := newLiveCluster(2)
	defer eng.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("key-%d-%d", g, i%5)
				if w := blockingWrite(eng, cl, key, []byte("v"), kv.One); w.Err != nil {
					errs <- w.Err
					return
				}
				if r := blockingRead(eng, cl, key, kv.All); r.Err != nil {
					errs <- r.Err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client error: %v", err)
	}
}

func TestLiveFailureAndRecovery(t *testing.T) {
	eng, cl := newLiveCluster(3)
	defer eng.Close()
	blockingWrite(eng, cl, "k", []byte("v"), kv.All)
	var reps []netsim.NodeID
	eng.Do(func() { reps = cl.Strategy().Replicas("k") })
	eng.Do(func() { cl.Fail(reps[0]) })
	time.Sleep(300 * time.Millisecond) // detection delay (scaled 0.2 of 1s)
	r := blockingRead(eng, cl, "k", kv.Quorum)
	if r.Err != nil {
		t.Fatalf("quorum read with one replica down: %v", r.Err)
	}
	eng.Do(func() { cl.Recover(reps[0]) })
}

// TestLiveCloseStopsDelivery arms a timer, a delayed self-message and an
// in-flight quorum read, closes the engine before any of them is due,
// and waits past every deadline: nothing may run once Close returns.
func TestLiveCloseStopsDelivery(t *testing.T) {
	eng, cl := newLiveCluster(4)
	var closed, late atomic.Bool
	ran := func() {
		if closed.Load() {
			late.Store(true)
		}
	}
	const probe = netsim.NodeID(100)
	eng.Do(func() {
		eng.Register(probe, func(netsim.NodeID, any) { ran() })
		eng.SendLocal(probe, "tick", 50*time.Millisecond)
		eng.Schedule(50*time.Millisecond, ran)
		cl.Read("k", kv.Quorum, func(kv.ReadResult) { ran() })
	})
	eng.Close()
	closed.Store(true)
	time.Sleep(100 * time.Millisecond) // past every deadline, scaled 0.2
	if late.Load() {
		t.Fatal("a handler or scheduled function ran after Close returned")
	}
}

// TestLiveTimerContract pins the engine's timer heap semantics: a
// ScheduleStop or ScheduleStopCall timer stopped before its deadline
// never runs, timers armed with equal delays fire in scheduling order,
// and a delayed SendLocal is not delivered before its deadline.
func TestLiveTimerContract(t *testing.T) {
	eng := New(netsim.SingleDC(1), 1)
	defer eng.Close()
	const delay = 20 * time.Millisecond
	const probe = netsim.NodeID(0)
	const timers = 6

	// Callbacks run under the engine lock; the test reads what they
	// record inside Do once both channels have closed.
	var order []int
	var canceled bool
	var sentAt, gotAt time.Duration
	fired, delivered := make(chan struct{}), make(chan struct{})
	record := func(i int) {
		if order = append(order, i); len(order) == timers {
			close(fired)
		}
	}
	eng.Do(func() {
		eng.Register(probe, func(netsim.NodeID, any) {
			gotAt = eng.Now()
			close(delivered)
		})
		stop := eng.ScheduleStop(delay/2, func() { canceled = true })
		tm := eng.ScheduleStopCall(delay/2, func(uint32) { canceled = true }, 0)
		for i := 0; i < timers; i++ {
			if i%2 == 0 {
				eng.Schedule(delay, func() { record(i) })
			} else {
				eng.ScheduleStopCall(delay, func(arg uint32) { record(int(arg)) }, uint32(i))
			}
		}
		sentAt = eng.Now()
		eng.SendLocal(probe, "tick", delay)
		stop()
		if !tm.Stop() {
			t.Error("ScheduleStopCall timer could not be stopped before its deadline")
		}
	})
	for _, ch := range []chan struct{}{fired, delivered} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("delayed events never ran")
		}
	}
	eng.Do(func() {
		if canceled {
			t.Error("a stopped timer ran")
		}
		if want := []int{0, 1, 2, 3, 4, 5}; fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("equal-delay timers fired in order %v, want %v", order, want)
		}
		if gotAt-sentAt < delay {
			t.Errorf("delayed SendLocal delivered after %v, before its %v deadline", gotAt-sentAt, delay)
		}
	})
}

func TestLiveMeterCounts(t *testing.T) {
	eng, cl := newLiveCluster(5)
	defer eng.Close()
	blockingWrite(eng, cl, "k", []byte("v"), kv.All)
	m := eng.Meter()
	if m.TotalBytes() == 0 {
		t.Error("no traffic metered")
	}
}
