package live

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
)

// TestMeshDeadPeerDropsFrames pins the dead-peer bound: once a peer's
// writer has exited on a write error, frames addressed to that peer are
// dropped and counted in the traffic meter instead of piling up in its
// out buffer for the life of the process.
func TestMeshDeadPeerDropsFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
		close(accepted)
	}()
	topo := netsim.SingleDC(3)
	addr := ln.Addr().String()
	eng, err := NewMesh(topo, 1, MeshConfig{
		Local: []netsim.NodeID{0},
		Peers: map[netsim.NodeID]string{1: addr, 2: addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	remote := <-accepted
	ln.Close()
	if remote == nil {
		t.Fatal("peer connection never accepted")
	}
	defer remote.Close()

	cfg := kv.DefaultConfig()
	cfg.Seed = 1
	cfg.Coordinators = []netsim.NodeID{0}
	cfg.ReadService = netsim.Constant(0)
	cfg.WriteService = netsim.Constant(0)
	cfg.CoordOverhead = netsim.Constant(0)
	cfg.HintReplayInterval = 0
	cfg.AntiEntropyInterval = 0
	var cl *kv.Cluster
	eng.Do(func() { cl = kv.New(topo, eng, cfg) })

	p := eng.mesh.peers[0]
	p.conn.Close()
	closed := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.closed
	}
	val := make([]byte, 100)
	for deadline := time.Now().Add(5 * time.Second); !closed(); {
		if time.Now().After(deadline) {
			t.Fatal("the peer writer never observed its closed connection")
		}
		// Each write ships frames to the peer, so the writer attempts
		// (and fails) a socket write.
		blockingWrite(eng, cl, "probe", val, kv.One)
		time.Sleep(time.Millisecond)
	}

	before := eng.Meter().Dropped
	const writes = 1000
	for i := 0; i < writes; i++ {
		if w := blockingWrite(eng, cl, fmt.Sprintf("k%04d", i), val, kv.One); w.Err != nil {
			t.Fatalf("write %d: %v", i, w.Err)
		}
	}
	p.mu.Lock()
	queued := len(p.out)
	p.mu.Unlock()
	if queued != 0 {
		t.Fatalf("dead peer's out buffer holds %d bytes after %d writes", queued, writes)
	}
	// Every write sends one replica write to each of the two remote nodes.
	if dropped := eng.Meter().Dropped - before; dropped < 2*writes {
		t.Fatalf("Dropped grew by %d over %d writes, want at least %d", dropped, writes, 2*writes)
	}
}
