package repro

import (
	"time"

	"repro/internal/autoscale"
	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Sim is a fully wired simulated deployment: a deterministic
// discrete-event engine, a cluster of store nodes over a modeled network,
// and the Harmony monitoring module. All interaction happens in virtual
// time; runs with the same seed are bit-reproducible. Client-facing
// traffic goes through the unified Client API (Sim.Client and the
// session-flavored shorthands below).
type Sim struct {
	Engine    *sim.Engine
	Transport *netsim.Transport
	Cluster   *kv.Cluster
	Monitor   *monitor.Monitor

	controllers []*core.Controller
}

// NewSim builds a simulated deployment on topo.
func NewSim(topo *Topology, cfg Config) *Sim {
	eng := sim.New(cfg.Seed)
	tr := netsim.NewTransport(eng, topo)
	cl := kv.New(topo, tr, cfg)
	mon := monitor.New(cl.RF(), tr, monitor.DefaultOptions())
	cl.AddHooks(mon.Hooks())
	return &Sim{Engine: eng, Transport: tr, Cluster: cl, Monitor: mon}
}

// Client wraps a session in the unified Client API. The client is
// single-threaded like the simulation itself: blocking calls and
// Future.Wait advance virtual time on the caller's goroutine.
func (s *Sim) Client(sess Session) Client {
	return &client{sess: sess, cluster: s.Cluster, net: s.Transport, drv: driver{
		pump: s.Engine.Step,
		do:   func(fn func()) { fn() },
		arm:  func(d time.Duration, fail func()) { s.Transport.Schedule(d, fail) },
	}}
}

// StaticClient returns a client pinned to fixed levels.
func (s *Sim) StaticClient(read, write Level) Client {
	return s.Client(s.StaticSession(read, write))
}

// HarmonyClient returns a client whose levels Harmony re-tunes to keep
// the stale-read rate under alpha, with the controller driving it.
func (s *Sim) HarmonyClient(alpha float64) (Client, *Controller) {
	sess, ctl := s.HarmonySession(alpha)
	return s.Client(sess), ctl
}

// HarmonyHotClient returns a client driven by the hot-key-aware Harmony
// tuner: the global per-key decision rules the tail while every key in
// the cluster's current hot set (Config.HotCache) is pinned to its own
// smallest safe level each control period.
func (s *Sim) HarmonyHotClient(alpha float64) (Client, *Controller) {
	sess, ctl := s.HarmonyHotSession(alpha)
	return s.Client(sess), ctl
}

// BismarClient returns a client whose levels Bismar re-prices for
// consistency-cost efficiency, with the controller driving it.
func (s *Sim) BismarClient(dep Deployment) (Client, *Controller) {
	sess, ctl := s.BismarSession(dep)
	return s.Client(sess), ctl
}

// BehaviorClient returns a client driven by a fitted behaviour model's
// runtime classifier, with the controller driving it.
func (s *Sim) BehaviorClient(m *BehaviorModel) (Client, *Controller) {
	sess, ctl := s.BehaviorSession(m)
	return s.Client(sess), ctl
}

// StaticSession returns a session pinned to fixed levels.
func (s *Sim) StaticSession(read, write Level) Session {
	return kv.StaticSession{Cluster: s.Cluster, ReadLevel: read, WriteLevel: write}
}

// AdaptiveSession wires a tuner into a controller (re-evaluating every
// interval; 0 means 100 ms of virtual time) and returns the adaptive
// session with its controller. The controller starts on the first engine
// step.
func (s *Sim) AdaptiveSession(t Tuner, interval time.Duration) (Session, *Controller) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	ctl := core.NewController(s.Monitor, t, s.Transport, interval)
	s.controllers = append(s.controllers, ctl)
	ctl.Start()
	return ctl.Session(s.Cluster), ctl
}

// HarmonySession is shorthand for AdaptiveSession(NewHarmonyTuner(alpha, RF)).
func (s *Sim) HarmonySession(alpha float64) (Session, *Controller) {
	return s.AdaptiveSession(NewHarmonyTuner(alpha, s.Cluster.RF()), 0)
}

// HarmonyHotSession is shorthand for
// AdaptiveSession(NewHarmonyHotTuner(alpha, Cluster)).
func (s *Sim) HarmonyHotSession(alpha float64) (Session, *Controller) {
	return s.AdaptiveSession(NewHarmonyHotTuner(alpha, s.Cluster), 0)
}

// HotKeys reports the cluster's current hot set in sorted order (empty
// without Config.HotCache).
func (s *Sim) HotKeys() []string { return s.Cluster.HotKeys() }

// BismarSession is shorthand for AdaptiveSession(NewBismarTuner(dep)).
func (s *Sim) BismarSession(dep Deployment) (Session, *Controller) {
	return s.AdaptiveSession(NewBismarTuner(dep), 0)
}

// BehaviorSession runs a fitted behaviour model's runtime classifier as
// the tuner, wiring the classifier's feature hooks into the cluster.
func (s *Sim) BehaviorSession(m *BehaviorModel) (Session, *Controller) {
	rc := behavior.NewRuntimeClassifier(m, s.Cluster.RF())
	s.Cluster.AddHooks(rc.Hooks())
	return s.AdaptiveSession(rc, 0)
}

// CollectTrace records an access trace of everything the cluster serves
// while the simulation runs (§III-C's collection step).
func (s *Sim) CollectTrace(limit int) *behavior.Collector {
	col := behavior.NewCollector(limit)
	s.Cluster.AddHooks(col.Hooks())
	return col
}

// Preload seeds records into every replica (the YCSB load phase).
func (s *Sim) Preload(n uint64, key func(uint64) string, value []byte) {
	s.Cluster.Preload(n, key, value)
}

// Join adds topology node id to the cluster: it bootstraps by snapshot
// streaming the ranges it will own from current members, the placement
// flips when streaming completes, and the node warms up before read
// coordinators count it as fully live. Drive the simulation (Run) for
// the change to make progress.
func (s *Sim) Join(id NodeID) { s.Cluster.Join(id) }

// Decommission removes member id: it streams its ownership to the new
// owners, then leaves the ring. Drive the simulation for the change to
// make progress.
func (s *Sim) Decommission(id NodeID) { s.Cluster.Decommission(id) }

// Members returns the current ring members.
func (s *Sim) Members() []NodeID { return s.Cluster.Members() }

// State reports a node's combined membership/failure state.
func (s *Sim) State(id NodeID) NodeState { return s.Cluster.State(id) }

// Autoscale starts the cost-loop controller: it samples the monitor
// every cfg.Interval, feeds the observed workload to the provisioning
// optimizer and enacts the recommended cluster size through
// Join/Decommission — one membership change at a time, with hysteresis,
// cooldown, an RF+FailureBudget floor and billing-boundary-aware
// scale-down. Candidates defaults to every topology node. Inspect the
// controller's Log for the decision journal; Stop it to freeze the
// cluster size.
func (s *Sim) Autoscale(cfg AutoscaleConfig) *Autoscaler {
	if cfg.Candidates == nil {
		cfg.Candidates = s.Cluster.Topology().Nodes()
	}
	ctl := autoscale.New(s.Cluster, s.Monitor, s.Transport, cfg)
	ctl.Start()
	return ctl
}

// ViewAgreement reports the fraction of reachable members whose gossip
// view has applied the full membership-event log (always 1 when
// Config.Gossip is off — atomic placement cannot disagree).
func (s *Sim) ViewAgreement() float64 { return s.Cluster.ViewAgreement() }

// MembershipConverged reports whether every reachable member's view
// agrees with the enacted membership (ViewAgreement == 1).
func (s *Sim) MembershipConverged() bool { return s.Cluster.MembershipConverged() }

// Run advances virtual time by d.
func (s *Sim) Run(d time.Duration) { s.Engine.RunFor(d) }

// Now reports current virtual time.
func (s *Sim) Now() time.Duration { return s.Engine.Now() }

// StaleRate reports the oracle's measured stale-read fraction so far.
func (s *Sim) StaleRate() float64 { return s.Cluster.Oracle().StaleRate() }
