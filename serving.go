package repro

import (
	"fmt"
	"time"

	"repro/internal/kv"
	"repro/internal/live"
	"repro/internal/monitor"
	"repro/internal/netsim"
)

// ServeConfig describes one process of a serving deployment: which ring
// nodes it owns, where its peer mesh listens, and where the peers are.
// A single-process deployment leaves everything zero. See NewServing.
type ServeConfig struct {
	// Local lists the topology nodes this process serves; nil serves
	// all of them. Client operations issued in this process are
	// coordinated by these nodes only (client messages carry callbacks
	// and cannot cross processes), so every serving process is a full
	// coordinator for its share of the traffic.
	Local []NodeID
	// MeshListen is this process's peer-mesh listen address
	// (host:port; empty in a single-process deployment).
	MeshListen string
	// Peers maps each remote node id to the mesh address of the
	// process serving it.
	Peers map[NodeID]string
	// DialTimeout bounds the wait for peer processes at startup
	// (default 30s).
	DialTimeout time.Duration
}

// NewServing builds a serving deployment: the same Live store, but
// in-process messages take no emulated network latency (they go
// straight on the engine's run queue), with an optional TCP mesh to the
// processes serving the rest of the ring. N processes constructed over
// the same topology, seed and Config form one cluster: every process
// computes the identical ring, coordinates operations on its local
// nodes, and exchanges replica traffic with its peers as framed binary
// messages (internal/wire). Gossip membership is not yet supported
// across processes — membership is the static InitialMembers/founders
// set.
func NewServing(topo *Topology, cfg Config, sc ServeConfig) (*Live, error) {
	if cfg.Gossip && (sc.MeshListen != "" || len(sc.Peers) > 0) {
		return nil, fmt.Errorf("repro: gossip membership is not supported across processes yet")
	}
	if len(sc.Local) > 0 {
		cfg.Coordinators = append([]NodeID(nil), sc.Local...)
	}
	eng, err := live.NewMesh(topo, cfg.Seed, live.MeshConfig{
		Local:       sc.Local,
		Listen:      sc.MeshListen,
		Peers:       sc.Peers,
		DialTimeout: sc.DialTimeout,
	})
	if err != nil {
		return nil, err
	}
	var cl *kv.Cluster
	var mon *monitor.Monitor
	eng.Do(func() {
		cl = kv.New(topo, eng, cfg)
		mon = monitor.New(cl.RF(), eng, monitor.DefaultOptions())
		cl.AddHooks(mon.Hooks())
	})
	return &Live{Engine: eng, Cluster: cl, Monitor: mon}, nil
}

// ServingDefaults returns a serving-tuned configuration: modeled
// service-time laws are zeroed (a serving node's cost is the real CPU
// it burns, not a sampled delay), so the request path is bounded by
// actual work rather than simulated Cassandra latencies.
func ServingDefaults(topo *Topology) Config {
	cfg := Defaults(topo)
	cfg.ReadService = netsim.Constant(0)
	cfg.WriteService = netsim.Constant(0)
	cfg.CoordOverhead = netsim.Constant(0)
	return cfg
}
