package experiments

import (
	"fmt"
	"time"

	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/ycsb"
)

// The gossip study (PR 7): what decentralized, eventually-consistent
// membership costs against the atomic-placement baseline when the ring
// is under stress. Two variants — gossip dissemination on and off —
// run the same six phases over identical workloads:
//
//	steady   — baseline at M members
//	join     — node M joins mid-phase; under gossip the new ring is
//	           only eventually visible, so stale coordinators hit
//	           displaced replicas and recover through the notOwner
//	           fallback (the stale-ring phase)
//	storm    — a member fails mid-phase: every peer's local detector
//	           probes it, suspects it, and ages the suspicion into a
//	           death verdict (the suspicion storm)
//	heal     — the failed member recovers; the ping/ack refutation
//	           handshake resurrects it in every view
//	flap     — another member fails and recovers inside the phase,
//	           exercising suspicion/refutation under churn
//	settle   — steady state after the churn
//
// Per phase the study reports throughput, the oracle stale-read rate,
// Harmony's time-weighted read level, and the gossip meter deltas
// (suspicions raised, wrong-owner retries, notOwner refusals); per run
// it reports the view-convergence time after the join (Join call until
// every reachable view has applied the full ring-event log). Harmony
// holds the paper's α=10% staleness target throughout, so the headline
// check is that eventual membership stays under the same α the atomic
// baseline honors.
type gossipVariant struct {
	Name   string
	Gossip bool
}

// gossipOutcome is one variant's full measurement.
type gossipOutcome struct {
	Variant gossipVariant
	Phases  []phaseRecord
	// Converge is the time from the Join call until ViewAgreement
	// returned to 1 (0 for the atomic variant; -1 if it never did).
	Converge time.Duration
	// WholeRunStale is the oracle stale rate over all judged reads.
	WholeRunStale float64
	Usage         kv.Usage
}

// GossipResult carries the study's outcomes plus the rendered table.
type GossipResult struct {
	Outcomes []gossipOutcome
	Table    *Table
}

// RunGossip runs the study on platform p (its topology must hold one
// spare: the cluster starts with p.Nodes-1 members) for both variants,
// fanned out over the parallel driver.
func RunGossip(p Platform, seed uint64) *GossipResult {
	variants := []gossipVariant{
		{Name: "gossip", Gossip: true},
		{Name: "atomic", Gossip: false},
	}
	outcomes := parallelMap(variants, func(v gossipVariant) gossipOutcome {
		return runGossipVariant(p, v, seed)
	})

	t := NewTable("Gossip membership (PR 7): SWIM dissemination vs atomic placement under join, "+
		"failure storm, refutation and flap — "+p.Name,
		"variant", "phase", "members", "ops", "throughput(op/s)", "stale", "avg read k",
		"suspicions", "wrong-owner retries", "refusals")
	for _, out := range outcomes {
		for _, ph := range out.Phases {
			start, end := ph.UsageStart, ph.UsageEnd
			t.Add(out.Variant.Name, ph.Name, fmt.Sprintf("%d", ph.Members),
				fmt.Sprintf("%d", ph.Metrics.Ops), fmt.Sprintf("%.0f", ph.Throughput()),
				pct(ph.StaleRate()), fmt.Sprintf("%.2f", ph.AvgReadK),
				fmt.Sprintf("%d", end.GossipSuspicions-start.GossipSuspicions),
				fmt.Sprintf("%d", end.WrongOwnerRetries-start.WrongOwnerRetries),
				fmt.Sprintf("%d", end.NotOwnerReplies-start.NotOwnerReplies))
		}
		u := out.Usage
		t.Note("%s: views converged %v after the join; whole-run stale %s; "+
			"%d gossip rounds, %d ring events applied, %d suspicions, %d dead verdicts, %d warm violations",
			out.Variant.Name, out.Converge, pct(out.WholeRunStale),
			u.GossipRounds, u.GossipEvents, u.GossipSuspicions, u.GossipDeadDeclared, u.WarmViolations)
	}
	t.Note("convergence = Join call until every reachable view applied the full ring-event log; " +
		"wrong-owner retries = coordinator re-plans after a notOwner refusal taught it the events it was missing")
	return &GossipResult{Outcomes: outcomes, Table: t}
}

// runGossipVariant drives the six phases over one cluster and one
// Harmony controller (α=10%).
func runGossipVariant(p Platform, v gossipVariant, seed uint64) gossipOutcome {
	if seed == 0 {
		seed = 1
	}
	if p.Nodes < 5 {
		panic("experiments: gossip needs ≥5 topology nodes (one spare)")
	}
	members := p.Nodes - 1
	joiner := netsim.NodeID(members)
	stormNode := netsim.NodeID(1)
	flapNode := netsim.NodeID(2)

	cfg := p.Config(seed)
	cfg.InitialMembers = firstNodes(members)
	cfg.Gossip = v.Gossip
	cfg.WarmupDuration = time.Second
	fastRepair(&cfg, 1024)

	w := ycsb.HeavyReadUpdate(p.Records)
	w.ValueSize = p.ValueBytes
	d := deploy(p, cfg, seed, monitor.DefaultOptions(), harmonyTuner(0.10), 100*time.Millisecond, w)
	cl, tr := d.cl, d.tr

	out := gossipOutcome{Variant: v, Converge: -1}
	// Convergence probe: once the join's placement flip lands, poll the
	// view-agreement signal inside the event loop until it returns to 1.
	watchJoin := func() {
		joinAt := tr.Now()
		var check func()
		check = func() {
			if !cl.IsMember(joiner) {
				tr.Schedule(25*time.Millisecond, check)
				return
			}
			if cl.ViewAgreement() >= 1 {
				out.Converge = tr.Now() - joinAt
				return
			}
			tr.Schedule(25*time.Millisecond, check)
		}
		tr.Schedule(25*time.Millisecond, check)
	}

	// Each membership or liveness event lands while a phase's load runs.
	ops := phaseOps(p, 6)
	out.Phases = d.run([]stage{
		{Phase: Phase{"steady", w, ops}},
		{Phase: Phase{"join", w, ops}, during: func() { cl.Join(joiner); watchJoin() }},
		// Streaming, warmup and view convergence settle first.
		{Phase: Phase{"storm", w, ops}, before: d.settle(3 * time.Second),
			during: func() { cl.Fail(stormNode) }},
		// Suspicions age into death verdicts first.
		{Phase: Phase{"heal", w, ops}, before: d.settle(2 * time.Second),
			during: func() { cl.Recover(stormNode) }},
		// Refutation resurrects the node first.
		{Phase: Phase{"flap", w, ops}, before: d.settle(2 * time.Second), during: func() {
			cl.Fail(flapNode)
			tr.Schedule(750*time.Millisecond, func() { cl.Recover(flapNode) })
		}},
		{Phase: Phase{"settle", w, ops}, before: d.settle(2 * time.Second)},
	}, studySeeds(seed))
	// Drain: convergence probe, hint replay, refutations.
	for i := 0; i < 40 && (out.Converge < 0 || cl.ViewAgreement() < 1); i++ {
		d.eng.RunFor(250 * time.Millisecond)
	}

	d.ctl.Stop()
	out.WholeRunStale = d.staleRate()
	out.Usage = cl.Usage()
	return out
}
