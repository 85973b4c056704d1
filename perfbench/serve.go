package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"repro"
	"repro/internal/kv"
	"repro/internal/live"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/ycsb"
)

// serveSpec fixes one serving workload.
type serveSpec struct {
	Keys       uint64
	ValueSize  int
	Depth      int
	ReadProp   float64
	Dist       ycsb.Distribution
	Engine     storage.Kind
	FlushLimit int64 // 0 keeps the store's default
	Mesh       bool  // split the ring over two meshed deployments
}

// clusterSeed is the ring seed of every serving deployment; the
// workload seed only drives the generator.
const clusterSeed = 1

// warmup runs before every measured window so caches fill and lazy
// set-up finishes first.
const warmup = time.Second

// serveConfig is the 3-node, RF 3 single-datacenter cluster both
// serving workloads use.
func serveConfig(spec serveSpec) (*repro.Topology, repro.Config) {
	topo := repro.SingleDC(3)
	cfg := repro.ServingDefaults(topo)
	cfg.RF = 3
	cfg.Seed = clusterSeed
	cfg.Engine = spec.Engine
	if spec.FlushLimit > 0 {
		cfg.FlushLimit = spec.FlushLimit
	}
	return topo, cfg
}

// deployment is one serving workload's running system: the serving
// deployments (the first hosts the RESP server), the server and the
// generator's connection to it.
type deployment struct {
	lives  []*repro.Live
	local  [][]netsim.NodeID // nodes each deployment serves
	srv    *server.Server
	conn   net.Conn
	layers []*layer // traced run only, one per deployment
}

// build constructs the deployment exactly as storeserve does —
// repro.NewServing, then server.New over a static QUORUM/QUORUM session
// — preloads the keyspace and connects the generator. With a tracer,
// the same parts are built in the same order with decorators around
// the transport, handlers, session and monitor hooks.
func build(spec serveSpec, tr *tracer) (*deployment, error) {
	topo, cfg := serveConfig(spec)
	d := &deployment{}
	if !spec.Mesh {
		d.local = [][]netsim.NodeID{nil}
		lv, err := d.newServing(topo, cfg, repro.ServeConfig{}, tr)
		if err != nil {
			return nil, err
		}
		d.lives = []*repro.Live{lv}
	} else if err := d.buildMesh(topo, cfg, tr); err != nil {
		return nil, err
	}
	for _, lv := range d.lives {
		lv.Preload(spec.Keys, keyName, preloadValue(spec.ValueSize))
	}
	front := d.lives[0]
	var sess repro.Session = front.StaticSession(repro.Quorum, repro.Quorum)
	if tr != nil {
		sess = tracedSession{inner: sess, l: d.layers[0], clock: front.Engine.Now}
	}
	d.srv = server.New(front, sess, repro.Quorum, repro.Quorum)
	if err := d.srv.Listen("127.0.0.1:0"); err != nil {
		d.close()
		return nil, err
	}
	conn, err := net.Dial("tcp", d.srv.Addr())
	if err != nil {
		d.close()
		return nil, err
	}
	d.conn = conn
	return d, nil
}

// buildMesh splits the ring as a two-process deployment would (node 0
// | nodes 1,2), meshed over loopback. The RESP front end is on node 0's
// side, so every write quorum needs an acknowledgement across the mesh.
func (d *deployment) buildMesh(topo *repro.Topology, cfg repro.Config, tr *tracer) error {
	addrA, err := freePort()
	if err != nil {
		return err
	}
	addrB, err := freePort()
	if err != nil {
		return err
	}
	d.local = [][]netsim.NodeID{{0}, {1, 2}}
	d.layers = make([]*layer, 2)
	type result struct {
		lv  *repro.Live
		err error
	}
	// Each side's constructor blocks dialing the other.
	aCh := make(chan result, 1)
	go func() {
		lv, err := d.newServingAt(0, topo, cfg, repro.ServeConfig{
			Local:      d.local[0],
			MeshListen: addrA,
			Peers:      map[repro.NodeID]string{1: addrB, 2: addrB},
		}, tr)
		aCh <- result{lv, err}
	}()
	lvB, errB := d.newServingAt(1, topo, cfg, repro.ServeConfig{
		Local:      d.local[1],
		MeshListen: addrB,
		Peers:      map[repro.NodeID]string{0: addrA},
	}, tr)
	ra := <-aCh
	if ra.err != nil || errB != nil {
		for _, lv := range []*repro.Live{ra.lv, lvB} {
			if lv != nil {
				lv.Close()
			}
		}
		return fmt.Errorf("perfbench: mesh: %v / %v", ra.err, errB)
	}
	d.lives = []*repro.Live{ra.lv, lvB}
	return nil
}

func (d *deployment) newServing(topo *repro.Topology, cfg repro.Config, sc repro.ServeConfig, tr *tracer) (*repro.Live, error) {
	d.layers = make([]*layer, 1)
	return d.newServingAt(0, topo, cfg, sc, tr)
}

// newServingAt builds deployment i: repro.NewServing untraced, or the
// same construction with decorators when tr is set.
func (d *deployment) newServingAt(i int, topo *repro.Topology, cfg repro.Config, sc repro.ServeConfig, tr *tracer) (*repro.Live, error) {
	if tr == nil {
		return repro.NewServing(topo, cfg, sc)
	}
	var remote func(netsim.NodeID) bool
	if len(sc.Local) > 0 {
		mine := make(map[netsim.NodeID]bool)
		for _, id := range sc.Local {
			mine[id] = true
		}
		remote = func(id netsim.NodeID) bool { return id >= 0 && int(id) < topo.N() && !mine[id] }
	}
	l := newLayer(tr, true, remote)
	d.layers[i] = l
	return newServingTraced(topo, cfg, sc, l)
}

// newServingTraced is repro.NewServing with the decorators in place:
// the same engine, cluster, monitor and hook registration, in the same
// order.
func newServingTraced(topo *repro.Topology, cfg repro.Config, sc repro.ServeConfig, l *layer) (*repro.Live, error) {
	if len(sc.Local) > 0 {
		cfg.Coordinators = append([]repro.NodeID(nil), sc.Local...)
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
		cl = kv.New(topo, wrapTransport(eng, l), cfg)
		mon = monitor.New(cl.RF(), eng, monitor.DefaultOptions())
		cl.AddHooks(wrapHooks(mon.Hooks(), l))
	})
	return &repro.Live{Engine: eng, Cluster: cl, Monitor: mon}, nil
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// close tears the deployment down and waits for its goroutines.
func (d *deployment) close() {
	if d.conn != nil {
		d.conn.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	for _, lv := range d.lives {
		lv.Close()
	}
}

// snapshot is the program-side state sampled at a window's edges.
type snapshot struct {
	usage   kv.Usage
	storage storage.Stats
	meter   netsim.TrafficMeter
	inFl    int
	mem     runtime.MemStats
}

func (d *deployment) snap() snapshot {
	var s snapshot
	for i, lv := range d.lives {
		lv.Engine.Do(func() {
			addUsage(&s.usage, lv.Cluster.Usage())
			s.inFl += lv.Cluster.Oracle().InFlight()
			for _, id := range d.nodes(i, lv) {
				addStorage(&s.storage, lv.Cluster.Node(id).Engine().Stats())
			}
		})
		m := lv.Engine.Meter()
		for c := range m.Messages {
			s.meter.Messages[c] += m.Messages[c]
			s.meter.Bytes[c] += m.Bytes[c]
		}
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// nodes lists the nodes deployment i serves.
func (d *deployment) nodes(i int, lv *repro.Live) []netsim.NodeID {
	if d.local[i] != nil {
		return d.local[i]
	}
	return lv.Cluster.Topology().Nodes()
}

func addUsage(dst *kv.Usage, u kv.Usage) {
	dst.ReplicaReads += u.ReplicaReads
	dst.ReplicaWrites += u.ReplicaWrites
	dst.ReadRepairs += u.ReadRepairs
}

func addStorage(dst *storage.Stats, s storage.Stats) {
	dst.Reads += s.Reads
	dst.Rejected += s.Rejected
	dst.Flushes += s.Flushes
	dst.WALBytes += s.WALBytes
	dst.Compactions += s.Compactions
	dst.CompactedBytes += s.CompactedBytes
	dst.Runs += s.Runs
}

// resetTrace clears the decorators' aggregates and spans between
// batches, so the traced window excludes set-up and warm-up.
func (d *deployment) resetTrace(tr *tracer) {
	for i, lv := range d.lives {
		l := d.layers[i]
		lv.Engine.Do(func() {
			clear(l.stats.byType)
			l.stats = layerStats{byType: l.stats.byType}
		})
	}
	tr.mu.Lock()
	tr.spans = tr.spans[:0]
	tr.dropped = 0
	tr.mu.Unlock()
}

// serveRun is what one serving run measured.
type serveRun struct {
	warm   genResult
	gen    genResult
	before snapshot
	after  snapshot
}

// measure warms the deployment up, then drives the generator for the
// window and samples the program state around it.
func measure(d *deployment, g *loadgen, window time.Duration, tr *tracer) (serveRun, error) {
	var r serveRun
	// Start from a collected heap so the GC cycle's phase in the window,
	// and with it peak RSS, does not depend on set-up garbage.
	runtime.GC()
	warm, err := g.run(warmup)
	r.warm = warm
	if err == nil && warm.Failed > 0 {
		err = fmt.Errorf("perfbench: warm-up: %s", warm.FirstFailure)
	}
	if err != nil {
		return r, err
	}
	if tr != nil {
		d.resetTrace(tr)
	}
	r.before = d.snap()
	gen, err := g.run(window)
	r.after = d.snap()
	r.gen = gen
	return r, err
}
