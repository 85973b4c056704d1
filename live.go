package repro

import (
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/live"
	"repro/internal/monitor"
)

// Live is a deployment of the same store over wall-clock time and
// goroutines — the middleware running for real rather than simulated.
// All client traffic goes through the unified Client API (Live.Client
// and the session-flavored shorthands below); clients are safe for
// concurrent use from many goroutines.
type Live struct {
	Engine  *live.Engine
	Cluster *kv.Cluster
	Monitor *monitor.Monitor
}

// NewLive builds a live deployment on topo. latencyScale compresses the
// topology's latencies (0.1 runs a WAN topology ten times faster); pass 1
// for real latencies.
func NewLive(topo *Topology, cfg Config, latencyScale float64) *Live {
	eng := live.New(topo, cfg.Seed)
	if latencyScale > 0 {
		eng.Scale = latencyScale
	}
	var cl *kv.Cluster
	var mon *monitor.Monitor
	eng.Do(func() {
		cl = kv.New(topo, eng, cfg)
		mon = monitor.New(cl.RF(), eng, monitor.DefaultOptions())
		cl.AddHooks(mon.Hooks())
	})
	return &Live{Engine: eng, Cluster: cl, Monitor: mon}
}

// Client wraps a session in the unified Client API. Operations may be
// issued from any goroutine; the engine lock serializes store access.
func (l *Live) Client(sess Session) Client {
	return &client{sess: sess, cluster: l.Cluster, net: l.Engine, drv: driver{
		do: l.Engine.Do,
		// A client deadline is a promise in real time: it bypasses the
		// engine, whose timers are compressed by the latency scale, and
		// resolving a future touches no cluster state, so it needs no
		// engine lock.
		arm: func(d time.Duration, fail func()) {
			time.AfterFunc(d, fail) //repolint:allow determinism live client deadlines are wall-clock promises, deliberately unscaled
		},
	}}
}

// StaticClient returns a client pinned to fixed levels.
func (l *Live) StaticClient(read, write Level) Client {
	return l.Client(l.StaticSession(read, write))
}

// HarmonyClient returns a client whose levels Harmony re-tunes to keep
// the stale-read rate under alpha, with the controller driving it.
func (l *Live) HarmonyClient(alpha float64, interval time.Duration) (Client, *Controller) {
	sess, ctl := l.AdaptiveSession(NewHarmonyTuner(alpha, l.Cluster.RF()), interval)
	return l.Client(sess), ctl
}

// HarmonyHotClient returns a client driven by the hot-key-aware Harmony
// tuner (see Sim.HarmonyHotClient); requires Config.HotCache for the hot
// set to populate.
func (l *Live) HarmonyHotClient(alpha float64, interval time.Duration) (Client, *Controller) {
	sess, ctl := l.AdaptiveSession(NewHarmonyHotTuner(alpha, l.Cluster), interval)
	return l.Client(sess), ctl
}

// HotKeys reports the cluster's current hot set in sorted order (empty
// without Config.HotCache).
func (l *Live) HotKeys() []string {
	var keys []string
	l.Engine.Do(func() { keys = l.Cluster.HotKeys() })
	return keys
}

// StaticSession returns a session pinned to fixed levels. Sessions must
// be driven through Client (or inside Engine.Do): their methods assume
// the engine lock is held.
func (l *Live) StaticSession(read, write Level) Session {
	return kv.StaticSession{Cluster: l.Cluster, ReadLevel: read, WriteLevel: write}
}

// AdaptiveSession starts a controller over the live monitor and returns
// the adaptive session with its controller. Like StaticSession, the
// session itself must be driven through Client.
func (l *Live) AdaptiveSession(t Tuner, interval time.Duration) (Session, *Controller) {
	var ctl *core.Controller
	var sess Session
	l.Engine.Do(func() {
		ctl = core.NewController(l.Monitor, t, l.Engine, interval)
		ctl.Start()
		sess = ctl.Session(l.Cluster)
	})
	return sess, ctl
}

// Preload seeds records directly into the replicas.
func (l *Live) Preload(n uint64, key func(uint64) string, value []byte) {
	l.Engine.Do(func() { l.Cluster.Preload(n, key, value) })
}

// StaleRate reports the oracle's measured stale-read fraction so far.
func (l *Live) StaleRate() float64 {
	var r float64
	l.Engine.Do(func() { r = l.Cluster.Oracle().StaleRate() })
	return r
}

// Join adds topology node id to the live cluster (snapshot-streaming
// bootstrap, placement flip, warming — see Sim.Join). The change
// progresses on the engine's own goroutines; poll State to observe it.
func (l *Live) Join(id NodeID) {
	l.Engine.Do(func() { l.Cluster.Join(id) })
}

// Decommission removes member id from the live cluster after streaming
// its ownership to the new owners.
func (l *Live) Decommission(id NodeID) {
	l.Engine.Do(func() { l.Cluster.Decommission(id) })
}

// Autoscale starts the cost-loop controller over the live cluster (see
// Sim.Autoscale); the control loop runs on the engine's timers.
func (l *Live) Autoscale(cfg AutoscaleConfig) *Autoscaler {
	if cfg.Candidates == nil {
		cfg.Candidates = l.Cluster.Topology().Nodes()
	}
	var ctl *autoscale.Controller
	l.Engine.Do(func() {
		ctl = autoscale.New(l.Cluster, l.Monitor, l.Engine, cfg)
		ctl.Start()
	})
	return ctl
}

// Members returns the current ring members.
func (l *Live) Members() []NodeID {
	var m []NodeID
	l.Engine.Do(func() { m = l.Cluster.Members() })
	return m
}

// State reports a node's combined membership/failure state.
func (l *Live) State(id NodeID) NodeState {
	var s NodeState
	l.Engine.Do(func() { s = l.Cluster.State(id) })
	return s
}

// Close stops the engine (outstanding timers become no-ops) and
// releases the cluster's storage resources (file-backed WALs).
func (l *Live) Close() {
	l.Engine.Close()
	l.Engine.Do(func() { l.Cluster.Close() })
}
