package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// The scenario harness every simulated experiment builds through: one
// constructor for the deployment (engine, topology, transport, cluster,
// monitor, consistency controller, preloaded keyspaces) and, for the
// phased runs, one phase step that drives a YCSB phase to completion and
// returns what it measured. Studies differ only in the arguments they
// pass and in how they project phase records onto their tables.

// deployment is a built, preloaded cluster under a running consistency
// controller.
type deployment struct {
	eng *sim.Engine
	tr  *netsim.Transport
	cl  *kv.Cluster
	mon *monitor.Monitor
	ctl *core.Controller
	// loaders are the preloaded keyspaces' runners, in preload order,
	// under the controller's session. Their Keys and Value name the
	// stored records; a run over a preloaded keyspace reuses its loader,
	// whose key cache the preload has filled.
	loaders []*ycsb.Runner
	threads int // the platform's client threads, each stage's default

	// Cumulative counters at the end of the previous phase (or of the
	// preload), which the next phase record diffs against.
	stale, fresh, failed uint64
	usage                kv.Usage
	meter                netsim.TrafficMeter
}

// tunerFunc builds the controller's tuner once the cluster exists, so a
// tuner may bind to it.
type tunerFunc func(*kv.Cluster) core.Tuner

// fixedTuner is a tunerFunc for a tuner built up front.
func fixedTuner(t core.Tuner) tunerFunc { return func(*kv.Cluster) core.Tuner { return t } }

// harmonyTuner is Harmony at stale-read tolerance alpha over the
// cluster's replication factor.
func harmonyTuner(alpha float64) tunerFunc {
	return func(cl *kv.Cluster) core.Tuner { return harmony.New(alpha, cl.RF()) }
}

// deploy builds platform p under cfg in a fresh virtual-time engine:
// topology, transport, cluster, monitor hooks and a controller re-deciding
// every interval. It preloads each keyspace with its runner's keys and
// value (seeded with seed) and starts the controller.
func deploy(p Platform, cfg kv.Config, seed uint64, mopts monitor.Options, tuner tunerFunc,
	interval time.Duration, keyspaces ...ycsb.Workload) *deployment {
	d := &deployment{eng: sim.New(seed), threads: p.Threads}
	topo := p.Build()
	d.tr = netsim.NewTransport(d.eng, topo)
	d.cl = kv.New(topo, d.tr, cfg)
	d.mon = monitor.New(d.cl.RF(), d.tr, mopts)
	d.cl.AddHooks(d.mon.Hooks())
	d.ctl = core.NewController(d.mon, tuner(d.cl), d.tr, interval)
	for _, w := range keyspaces {
		loader, err := ycsb.NewRunner(d.ctl.Session(d.cl), w, d.tr, seed)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		d.cl.Preload(w.RecordCount, loader.Keys, loader.Value())
		d.loaders = append(d.loaders, loader)
	}
	d.ctl.Start()
	d.stale, d.fresh, d.failed = d.cl.Oracle().Counts()
	d.usage, d.meter = d.cl.Usage(), d.tr.Meter()
	return d
}

// complete steps the engine until r has finished, panicking if the
// event queue drains first.
func (d *deployment) complete(r *ycsb.Runner, name string) {
	for !r.Finished() && d.eng.Step() {
	}
	if !r.Finished() {
		panic(fmt.Sprintf("experiments: %s stalled before completion", name))
	}
}

// phaseRecord is one phase's measurement. Its deltas and start snapshots
// cover everything since the previous phase ended (or the preload), so
// the traffic and cluster activity of a settling gap between phases
// count toward the phase that follows it.
type phaseRecord struct {
	Name                 string
	Metrics              *ycsb.Metrics // the phase runner's client-side view
	Start, End           time.Duration // virtual time the load ran
	Stale, Fresh, Failed uint64        // oracle read judgments
	Members              int           // at phase end
	AvgReadK             float64       // time-weighted over [Start, End)
	UsageStart, UsageEnd kv.Usage
	MeterStart, MeterEnd netsim.TrafficMeter
}

// Throughput reports operations per virtual second of the phase.
func (r phaseRecord) Throughput() float64 {
	if d := r.End - r.Start; d > 0 {
		return float64(r.Metrics.Ops) / d.Seconds()
	}
	return 0
}

// StaleRate reports the oracle's stale fraction of the phase's judged
// reads.
func (r phaseRecord) StaleRate() float64 {
	if judged := r.Stale + r.Fresh; judged > 0 {
		return float64(r.Stale) / float64(judged)
	}
	return 0
}

// stage is one phase of a phased run plus the events around it.
type stage struct {
	Phase
	threads int    // client threads; 0 → the platform's
	before  func() // runs before the load starts: a crash, a settling gap
	during  func() // runs once the load has started, so its event lands under load
}

// settle is a stage hook that lets the cluster run unloaded for dt.
func (d *deployment) settle(dt time.Duration) func() {
	return func() { d.eng.RunFor(dt) }
}

// studySeeds seeds a study's stage i with seed+(i+1)·1000, keeping the
// preload's seed out of the phase runners' sequence.
func studySeeds(seed uint64) func(int) uint64 {
	return func(i int) uint64 { return seed + uint64(i+1)*1000 }
}

// run drives the stages in order and returns one record per stage;
// stage i's runner is seeded with seed(i).
func (d *deployment) run(stages []stage, seed func(int) uint64) []phaseRecord {
	recs := make([]phaseRecord, 0, len(stages))
	for i, s := range stages {
		if s.before != nil {
			s.before()
		}
		recs = append(recs, d.phase(s, seed(i)))
	}
	return recs
}

// phase runs s to completion as a closed loop under the controller's
// session, its runner seeded with seed.
func (d *deployment) phase(s stage, seed uint64) phaseRecord {
	r, err := ycsb.NewRunner(d.ctl.Session(d.cl), s.Workload, d.tr, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	r.OpCount = s.Ops
	r.Threads = s.threads
	if r.Threads == 0 {
		r.Threads = d.threads
	}
	start := d.eng.Now()
	r.Start()
	if s.during != nil {
		s.during()
	}
	d.complete(r, fmt.Sprintf("phase %q", s.Name))
	end := d.eng.Now()
	stale, fresh, failed := d.cl.Oracle().Counts()
	rec := phaseRecord{
		Name:       s.Name,
		Metrics:    r.Metrics(),
		Start:      start,
		End:        end,
		Stale:      stale - d.stale,
		Fresh:      fresh - d.fresh,
		Failed:     failed - d.failed,
		Members:    len(d.cl.Members()),
		AvgReadK:   avgReadKWindow(d.ctl.Journal(), start, end, d.cl.RF()),
		UsageStart: d.usage,
		UsageEnd:   d.cl.Usage(),
		MeterStart: d.meter,
		MeterEnd:   d.tr.Meter(),
	}
	d.stale, d.fresh, d.failed = stale, fresh, failed
	d.usage, d.meter = rec.UsageEnd, rec.MeterEnd
	return rec
}

// staleRate reports the oracle's stale fraction over every read judged
// so far.
func (d *deployment) staleRate() float64 {
	stale, fresh, _ := d.cl.Oracle().Counts()
	if judged := stale + fresh; judged > 0 {
		return float64(stale) / float64(judged)
	}
	return 0
}

// phaseOps splits the platform's operation count evenly over n phases.
func phaseOps(p Platform, n uint64) uint64 {
	if ops := p.Ops / n; ops > 0 {
		return ops
	}
	return 1000
}

// keyspaceOf is the record space covering every phase: the heavy
// read-update workload over the largest phase's record count.
func keyspaceOf(phases []Phase) ycsb.Workload {
	var records uint64
	for _, ph := range phases {
		if ph.Workload.RecordCount > records {
			records = ph.Workload.RecordCount
		}
	}
	return ycsb.HeavyReadUpdate(records)
}

// firstNodes lists the topology's first n nodes: a cluster's founding
// members when spares are held back for joins.
func firstNodes(n int) []netsim.NodeID {
	ids := make([]netsim.NodeID, n)
	for i := range ids {
		ids[i] = netsim.NodeID(i)
	}
	return ids
}

// fastRepair tunes hinted handoff, anti-entropy and failure detection to
// converge within a test-scale phase; sample is the anti-entropy keys
// compared per round.
func fastRepair(cfg *kv.Config, sample int) {
	cfg.AntiEntropyInterval = 500 * time.Millisecond
	cfg.AntiEntropySample = sample
	cfg.HintReplayInterval = 250 * time.Millisecond
	cfg.DetectionDelay = 500 * time.Millisecond
}

// avgReadKWindow time-weights the read level held across [start, end):
// the decision in force at start counts from start, and each journal
// entry counts until the next entry or the window's end.
func avgReadKWindow(journal []core.JournalEntry, start, end time.Duration, rf int) float64 {
	if end <= start {
		return 0
	}
	var weighted, total float64
	for i, e := range journal {
		from := e.At
		if from < start {
			from = start
		}
		until := end
		if i+1 < len(journal) && journal[i+1].At < end {
			until = journal[i+1].At
		}
		if until <= from {
			continue
		}
		span := (until - from).Seconds()
		weighted += span * float64(e.Decision.ReadLevel.Replicas(rf))
		total += span
	}
	if total == 0 {
		if len(journal) == 0 {
			return 0
		}
		return float64(journal[len(journal)-1].Decision.ReadLevel.Replicas(rf))
	}
	return weighted / total
}
