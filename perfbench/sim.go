package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// harmonyAlpha is ExpA's stale-read target; a run whose oracle stale
// rate exceeds it fails its check.
const harmonyAlpha = 0.20

// simScale sizes the ExpA run: G5KHarmony's records and operations
// scaled down so one run takes a few wall seconds on two cores.
const simScale = 0.05

// simSpec is the sim-harmony run: §IV-A's Grid'5000 platform (84 nodes
// over two sites), Harmony at α = 20%, the heavy read-update workload.
func simSpec(seed uint64) experiments.RunSpec {
	p := experiments.G5KHarmony().Scaled(simScale)
	return experiments.RunSpec{
		Platform: p,
		Tuner:    harmony.New(harmonyAlpha, p.RF),
		Seed:     seed,
	}
}

// fingerprint is the part of a run the same seed must reproduce byte
// for byte.
func fingerprint(res experiments.RunResult) string {
	m := res.Metrics
	return fmt.Sprintf("stale=%v thr=%v events=%d ops=%d journal=%v",
		m.StaleRate(), m.Throughput(), res.Events, m.Ops, res.Journal)
}

// simTrace is what the traced simulator run measured beyond the run
// result.
type simTrace struct {
	layer    *layer
	loopWall time.Duration
	loopSelf time.Duration // step-loop time outside handler, hook and tuner spans
	wall     time.Duration
	avgReadK float64
}

// simRun is an ExpA run built and preloaded, ready to step: the parts
// experiments.Run builds, in the same order.
type simRun struct {
	spec   experiments.RunSpec
	l      *layer
	start  time.Time
	eng    *sim.Engine
	net    *netsim.Transport
	cl     *kv.Cluster
	mon    *monitor.Monitor
	ctl    *core.Controller
	runner *ycsb.Runner
}

// buildSim is the setup half of experiments.Run. With a layer it puts
// decorators around the transport, handlers, session, tuner and monitor
// hooks; without one the parts are experiments.Run's exactly.
func buildSim(spec experiments.RunSpec, l *layer) *simRun {
	s := &simRun{l: l, start: time.Now()}
	p := spec.Platform
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	w := spec.Workload
	if w.RecordCount == 0 {
		w = ycsb.HeavyReadUpdate(p.Records)
		w.ValueSize = p.ValueBytes
	}
	cfg := p.Config(spec.Seed)
	if spec.Mutate != nil {
		spec.Mutate(&cfg)
	}
	s.eng = sim.New(spec.Seed)
	topo := p.Build()
	s.net = netsim.NewTransport(s.eng, topo)
	var tr kv.Transport = s.net
	if l != nil {
		tr = wrapTransport(s.net, l)
	}
	s.cl = kv.New(topo, tr, cfg)

	mopts := monitor.DefaultOptions()
	if spec.MonitorOpts != nil {
		mopts = *spec.MonitorOpts
	}
	s.mon = monitor.New(s.cl.RF(), s.net, mopts)
	hooks := s.mon.Hooks()
	if l != nil {
		hooks = wrapHooks(hooks, l)
	}
	s.cl.AddHooks(hooks)
	interval := spec.Interval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	tuner := spec.Tuner
	if l != nil {
		tuner = tracedTuner{inner: tuner, l: l}
	}
	s.ctl = core.NewController(s.mon, tuner, s.net, interval)

	sess := s.ctl.Session(s.cl)
	if l != nil {
		sess = tracedSession{inner: sess, l: l, clock: s.net.Now}
	}
	if spec.Wrap != nil {
		sess = spec.Wrap(sess, s.cl, s.net)
	}
	runner, err := ycsb.NewRunner(sess, w, s.net, spec.Seed)
	if err != nil {
		panic(fmt.Sprintf("perfbench: %v", err))
	}
	runner.OpCount = p.Ops
	runner.Threads = p.Threads
	warm := spec.WarmupPc
	if warm <= 0 {
		warm = 0.1
	}
	runner.WarmupOps = uint64(float64(p.Ops) * warm)
	s.runner = runner
	s.spec = spec

	s.cl.Preload(w.RecordCount, runner.Keys, runner.Value())
	return s
}

// run is the step-loop half of experiments.Run.
func (s *simRun) run() (experiments.RunResult, simTrace) {
	var outer0 int64
	if s.l != nil {
		outer0 = s.l.stats.outerNs
	}
	s.ctl.Start()
	s.runner.Start()
	loop := time.Now()
	for !s.runner.Finished() && s.eng.Step() {
	}
	loopWall := time.Since(loop)
	if !s.runner.Finished() {
		panic("perfbench: workload stalled before completion")
	}
	s.ctl.Stop()

	res := experiments.RunResult{
		Spec:         s.spec,
		Metrics:      s.runner.Metrics(),
		Journal:      s.ctl.Journal(),
		LevelChanges: s.ctl.LevelChanges(),
		Usage:        s.cl.Usage(),
		Traffic:      s.net.Meter(),
		Cluster:      s.cl,
		Monitor:      s.mon,
		Events:       s.eng.Events(),
	}
	st := simTrace{
		layer:    s.l,
		loopWall: loopWall,
		wall:     time.Since(s.start),
		avgReadK: avgReadK(res.Journal, res.Metrics.End, s.cl.RF()),
	}
	if s.l != nil {
		st.loopSelf = loopWall - time.Duration(s.l.stats.outerNs-outer0)
	}
	return res, st
}

// avgReadK time-weights the read level held across the run over the
// controller journal (the replicas a read contacts, on average).
func avgReadK(journal []core.JournalEntry, end time.Duration, rf int) float64 {
	if len(journal) == 0 {
		return 0
	}
	var weighted, total float64
	for i, e := range journal {
		until := end
		if i+1 < len(journal) {
			until = journal[i+1].At
		}
		if until <= e.At {
			continue
		}
		span := (until - e.At).Seconds()
		weighted += span * float64(e.Decision.ReadLevel.Replicas(rf))
		total += span
	}
	if total == 0 {
		return float64(journal[len(journal)-1].Decision.ReadLevel.Replicas(rf))
	}
	return weighted / total
}

// latencyRecorder keeps the virtual latency of every read and write the
// workload issues, for exact percentiles (ycsb.Metrics holds them only
// in ~3%-wide histogram buckets). It rides on experiments.Run's session
// wrapping hook and only observes results.
type latencyRecorder struct {
	reads, writes []time.Duration
}

func (l *latencyRecorder) wrap(sess kv.Session, _ *kv.Cluster, _ ycsb.Clock) kv.Session {
	return recordingSession{inner: sess, l: l}
}

type recordingSession struct {
	inner kv.Session
	l     *latencyRecorder
}

func (s recordingSession) Read(key string, cb func(kv.ReadResult)) {
	s.inner.Read(key, func(r kv.ReadResult) {
		if r.Err == nil {
			s.l.reads = append(s.l.reads, r.Latency)
		}
		cb(r)
	})
}

func (s recordingSession) Write(key string, value []byte, cb func(kv.WriteResult)) {
	s.inner.Write(key, value, func(r kv.WriteResult) {
		if r.Err == nil {
			s.l.writes = append(s.l.writes, r.Latency)
		}
		cb(r)
	})
}

func (s recordingSession) Delete(key string, cb func(kv.WriteResult)) { s.inner.Delete(key, cb) }

func (s recordingSession) BatchRead(keys []string, cb func([]kv.ReadResult)) {
	s.inner.BatchRead(keys, cb)
}

func (s recordingSession) BatchWrite(ops []kv.BatchOp, cb func([]kv.WriteResult)) {
	s.inner.BatchWrite(ops, cb)
}
