package kv

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// newTimerHarness builds a quiet three-node RF 3 cluster whose client
// operations are all coordinated by node 0. With no background ticks,
// the engine's queue holds only what operations leave behind.
func newTimerHarness(t *testing.T, seed uint64) (*sim.Engine, *netsim.Transport, *Cluster) {
	t.Helper()
	topo := netsim.SingleDC(3)
	eng := sim.New(seed)
	tr := netsim.NewTransport(eng, topo)
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Coordinators = []netsim.NodeID{0}
	cfg.HintReplayInterval = 0
	cfg.AntiEntropyInterval = 0
	return eng, tr, New(topo, tr, cfg)
}

// armedTimers counts the node's timer slab slots that are not on the
// free list.
func armedTimers(n *Node) int {
	free := 0
	for s := n.timerFree; s != noTimer; s = n.timers[s].nextFree {
		free++
	}
	return len(n.timers) - free
}

// contexts counts the node's tracked coordinator contexts.
func contexts(n *Node) int {
	return len(n.reads) + len(n.writes) + len(n.batchReads) + len(n.batchWrites)
}

// opBurst issues a mix of QUORUM single-key and batched reads, writes
// and deletes, and returns a function reporting how many completed and
// the first error seen.
func opBurst(c *Cluster, tag string, rounds int) func() (int, error) {
	done, issued := 0, 0
	var firstErr error
	note := func(err error) {
		done++
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < rounds; i++ {
		k := fmt.Sprintf("%s-%03d", tag, i)
		c.Write(k, []byte("v"), Quorum, func(r WriteResult) { note(r.Err) })
		c.Read(k, Quorum, func(r ReadResult) { note(r.Err) })
		c.Delete(k+"-gone", Quorum, func(r WriteResult) { note(r.Err) })
		ops := []BatchOp{{Key: k + "-a", Value: []byte("x")}, {Key: k + "-b", Delete: true}}
		c.WriteBatch(ops, Quorum, func(rs []WriteResult) {
			for _, r := range rs {
				note(r.Err)
			}
		})
		c.ReadBatch([]string{k, k + "-a", k + "-b"}, Quorum, func(rs []ReadResult) {
			for _, r := range rs {
				note(r.Err)
			}
		})
		issued += 8
	}
	return func() (int, error) {
		if done != issued && firstErr == nil {
			firstErr = fmt.Errorf("%d of %d results delivered", done, issued)
		}
		return done, firstErr
	}
}

// TestCoordTimerRetiresAtLastReply: with every replica up, a burst of
// completed QUORUM operations leaves no context on any coordinator and
// no timer in the engine — the run ends long before cfg.Timeout instead
// of waiting out one no-op timeout per operation — and a second burst
// reuses the slab slots the first one freed.
func TestCoordTimerRetiresAtLastReply(t *testing.T) {
	eng, _, c := newTimerHarness(t, 3)
	for burst := 0; burst < 2; burst++ {
		start := eng.Now()
		result := opBurst(c, fmt.Sprintf("b%d", burst), 20)
		eng.Run()
		if _, err := result(); err != nil {
			t.Fatalf("burst %d: %v", burst, err)
		}
		if took := eng.Now() - start; took >= c.cfg.Timeout {
			t.Fatalf("burst %d: the queue drained after %v, not before the %v timeout", burst, took, c.cfg.Timeout)
		}
		if eng.Pending() != 0 {
			t.Fatalf("burst %d: %d events left in the engine", burst, eng.Pending())
		}
		for _, id := range c.order {
			n := c.nodes[id]
			if contexts(n) != 0 || armedTimers(n) != 0 {
				t.Fatalf("burst %d: node %d keeps %d contexts and %d armed timers",
					burst, id, contexts(n), armedTimers(n))
			}
		}
	}
	if slab := len(c.nodes[0].timers); slab > 5*20 {
		t.Fatalf("coordinator timer slab grew to %d slots over two bursts of 100 operations", slab)
	}
}

// TestCoordTimerKeepsWriteToFailedReplica: a replica that fails after
// the coordinator shipped it the mutation never acks. The write keeps
// its context past completion and leaves at exactly cfg.Timeout; an ALL
// write, single or batched, fails there with ErrTimeout.
func TestCoordTimerKeepsWriteToFailedReplica(t *testing.T) {
	eng, tr, c := newTimerHarness(t, 5)
	n := c.nodes[0]
	// The transport drops traffic to node 2, but no detector has marked
	// it down, so the coordinator still ships it every mutation.
	tr.Fail(2)

	var quorum, all WriteResult
	var batch []WriteResult
	got := 0
	c.Write("q", []byte("v"), Quorum, func(r WriteResult) { quorum = r; got++ })
	c.Write("a", []byte("v"), All, func(r WriteResult) { all = r; got++ })
	c.WriteBatch([]BatchOp{{Key: "b1", Value: []byte("v")}, {Key: "b2", Value: []byte("v")}}, All,
		func(rs []WriteResult) { batch = rs; got++ })
	for len(n.writes)+len(n.batchWrites) == 0 && eng.Step() {
	}
	firstDeadline := eng.Now() + c.cfg.Timeout
	for got == 0 && eng.Step() {
	}
	if quorum.Err != nil || got != 1 {
		t.Fatalf("QUORUM write with two live replicas: %+v (results %d)", quorum, got)
	}

	eng.RunUntil(firstDeadline - time.Microsecond)
	if len(n.writes) != 2 || len(n.batchWrites) != 1 || armedTimers(n) != 3 {
		t.Fatalf("before the timeout: %d writes, %d batches, %d armed timers; want 2, 1, 3",
			len(n.writes), len(n.batchWrites), armedTimers(n))
	}
	eng.Run()
	if contexts(n) != 0 || armedTimers(n) != 0 {
		t.Fatalf("after the timeout: %d contexts, %d armed timers", contexts(n), armedTimers(n))
	}
	if !errors.Is(all.Err, ErrTimeout) || all.Latency != c.cfg.Timeout {
		t.Fatalf("ALL write: %+v, want ErrTimeout after %v", all, c.cfg.Timeout)
	}
	for _, r := range batch {
		if !errors.Is(r.Err, ErrTimeout) || r.Latency != c.cfg.Timeout {
			t.Fatalf("ALL batch item: %+v, want ErrTimeout after %v", r, c.cfg.Timeout)
		}
	}
}

// TestCoordTimerCrashRecyclesSlab: a coordinator crashes with operations
// in flight and restarts. The dead incarnation's timers stay armed and
// fire as no-ops: they neither fail the restarted node's own operations
// nor leak their slab slots, which later operations reuse.
func TestCoordTimerCrashRecyclesSlab(t *testing.T) {
	eng, tr, c := newTimerHarness(t, 7)
	n := c.nodes[0]
	result := opBurst(c, "pre", 4)
	for n.coordOps < 20 && eng.Step() { // every operation admitted
	}
	staleAt := eng.Now() + c.cfg.Timeout // no stale timer fires later
	stale := armedTimers(n)
	if stale == 0 {
		t.Fatal("no coordinator timers armed before the crash")
	}
	c.Crash(0)
	c.Restart(0)
	if contexts(n) != 0 || armedTimers(n) != stale {
		t.Fatalf("after restart: %d contexts, %d armed timers; want 0, %d", contexts(n), armedTimers(n), stale)
	}

	// Once the detector has the node up again, the new incarnation
	// coordinates an ALL write that node 2 never acks: it must live
	// through the stale timers and time out on its own deadline.
	eng.RunUntil(eng.Now() + c.cfg.DetectionDelay + time.Millisecond)
	tr.Fail(2)
	var fresh WriteResult
	freshDone := false
	c.Write("fresh", []byte("v"), All, func(r WriteResult) { fresh = r; freshDone = true })
	for len(n.writes) == 0 && eng.Step() {
	}
	freshAt := eng.Now()
	if freshAt >= staleAt {
		t.Fatalf("fresh write admitted at %v, after the stale timers (%v)", freshAt, staleAt)
	}
	eng.RunUntil(staleAt)
	if freshDone || len(n.writes) != 1 || armedTimers(n) != 1 {
		t.Fatalf("stale timers touched the new incarnation: done=%v, %d writes, %d armed timers",
			freshDone, len(n.writes), armedTimers(n))
	}
	eng.Run()
	if !errors.Is(fresh.Err, ErrTimeout) || fresh.Latency != c.cfg.Timeout {
		t.Fatalf("fresh ALL write: %+v, want ErrTimeout after %v", fresh, c.cfg.Timeout)
	}
	if done, _ := result(); done != 32 {
		t.Fatalf("%d of 32 pre-crash results delivered (the client guard owes each one)", done)
	}
	if armedTimers(n) != 0 {
		t.Fatalf("%d timers still armed after every deadline", armedTimers(n))
	}

	tr.Recover(2)
	slab := len(n.timers)
	result = opBurst(c, "post", 2)
	eng.Run()
	if _, err := result(); err != nil {
		t.Fatal(err)
	}
	if len(n.timers) != slab || armedTimers(n) != 0 {
		t.Fatalf("slab grew from %d to %d slots (%d armed) instead of reusing freed ones",
			slab, len(n.timers), armedTimers(n))
	}
}
