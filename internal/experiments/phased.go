package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/ycsb"
)

// Phase is one segment of a phased workload (access pattern changes over
// the application's day — the dynamicity adaptive tuners exist for).
type Phase struct {
	Name     string
	Workload ycsb.Workload
	Ops      uint64
}

// PhaseOutcome is the per-phase measurement.
type PhaseOutcome struct {
	Name    string
	Metrics *ycsb.Metrics
}

// PhasedResult aggregates a multi-phase run.
type PhasedResult struct {
	Phases       []PhaseOutcome
	TotalOps     uint64
	Elapsed      time.Duration
	StaleReads   uint64
	FreshReads   uint64
	Traffic      netsim.TrafficMeter
	Journal      []core.JournalEntry
	LevelChanges int
	AvgReadK     float64
}

// Throughput reports aggregate operations per second.
func (r PhasedResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalOps) / r.Elapsed.Seconds()
}

// StaleRate reports the aggregate stale fraction.
func (r PhasedResult) StaleRate() float64 {
	t := r.StaleReads + r.FreshReads
	if t == 0 {
		return 0
	}
	return float64(r.StaleReads) / float64(t)
}

// CostPerMillionOps bills the run's actual resource usage (per-second
// instance billing) and normalizes per million operations.
func (r PhasedResult) CostPerMillionOps(p Platform, pricing cost.Pricing) float64 {
	u := cost.Usage{
		Nodes:            p.Nodes,
		Duration:         r.Elapsed,
		StoredBytes:      p.DatasetGB * cost.GB * float64(p.RF),
		InterDCBytes:     float64(r.Traffic.Bytes[netsim.InterDC]),
		InterRegionBytes: float64(r.Traffic.Bytes[netsim.InterRegion]),
	}
	return cost.PerMillionOps(pricing.Smooth().BillFor(u), r.TotalOps)
}

// RunPhased drives the phases sequentially over one cluster and one
// controller, so adaptive tuners carry their state across pattern
// changes. One preload covers the largest record space of any phase.
func RunPhased(p Platform, tuner core.Tuner, phases []Phase, seed uint64) PhasedResult {
	if seed == 0 {
		seed = 1
	}
	d := deploy(p, p.Config(seed), seed, monitor.DefaultOptions(), fixedTuner(tuner),
		250*time.Millisecond, keyspaceOf(phases))
	stages := make([]stage, len(phases))
	for i, ph := range phases {
		ph.Workload.ValueSize = p.ValueBytes
		stages[i] = stage{Phase: ph}
	}
	meterStart := d.tr.Meter()
	out := PhasedResult{}
	for _, rec := range d.run(stages, func(i int) uint64 { return seed + uint64(i)*1000 }) {
		m := rec.Metrics
		out.Phases = append(out.Phases, PhaseOutcome{Name: rec.Name, Metrics: m})
		out.TotalOps += m.Ops
		out.Elapsed += m.Elapsed()
		out.StaleReads += m.StaleReads
		out.FreshReads += m.FreshReads
	}
	d.ctl.Stop()
	final := d.tr.Meter()
	out.Traffic = final.Sub(meterStart)
	out.Journal = d.ctl.Journal()
	out.LevelChanges = d.ctl.LevelChanges()
	out.AvgReadK = avgReadKWindow(out.Journal, 0, d.eng.Now(), d.cl.RF())
	return out
}
