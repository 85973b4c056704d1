package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/kv"
	"repro/internal/live"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestWrapTransportSurfaces pins that the decorator exposes failer,
// stopper and callStopper exactly when the wrapped transport does, so
// kv's type assertions take the same branches: the simulator's
// transport has all three, the live engine failer and stopper.
func TestWrapTransportSurfaces(t *testing.T) {
	topo := netsim.SingleDC(3)
	inners := map[string]kv.Transport{
		"netsim": netsim.NewTransport(sim.New(1), topo),
		"live":   live.New(topo, 1),
	}
	for name, inner := range inners {
		w := wrapTransport(inner, newLayer(newTracer(1), false, nil))
		for _, probe := range []struct {
			surface string
			has     func(kv.Transport) bool
		}{
			{"failer", func(x kv.Transport) bool { _, ok := x.(failer); return ok }},
			{"stopper", func(x kv.Transport) bool { _, ok := x.(stopper); return ok }},
			{"callStopper", func(x kv.Transport) bool { _, ok := x.(callStopper); return ok }},
		} {
			if got, want := probe.has(w), probe.has(inner); got != want {
				t.Errorf("%s: wrapped %s = %v, bare = %v", name, probe.surface, got, want)
			}
		}
	}
}

// smallSim is sim-harmony at the platform's smallest scale.
func smallSim() experiments.RunSpec {
	spec := simSpec(1)
	spec.Platform = experiments.G5KHarmony().Scaled(0.001)
	return spec
}

// TestTracedSimIsIdentical shows the trace does not change the
// program's behaviour: a decorated sim-harmony run reproduces the
// undecorated run's stale rate, simulated throughput, event count and
// controller journal exactly. Every send is treated as bound for a
// peer process, so the wire decorator encodes a frame for each one.
// The undecorated build, which setup_s times, must step to the same
// run too.
func TestTracedSimIsIdentical(t *testing.T) {
	plain := experiments.Run(smallSim())
	if bare, _ := buildSim(smallSim(), nil).run(); fingerprint(bare) != fingerprint(plain) {
		t.Errorf("undecorated build: fingerprint %s, want %s", fingerprint(bare), fingerprint(plain))
	}
	all := func(netsim.NodeID) bool { return true }
	l := newLayer(newTracer(simSpanSample), false, all)
	traced, st := buildSim(smallSim(), l).run()

	pm, tm := plain.Metrics, traced.Metrics
	if pm.StaleRate() != tm.StaleRate() {
		t.Errorf("stale rate %v, want %v", tm.StaleRate(), pm.StaleRate())
	}
	if pm.Throughput() != tm.Throughput() {
		t.Errorf("simulated throughput %v, want %v", tm.Throughput(), pm.Throughput())
	}
	if plain.Events != traced.Events {
		t.Errorf("events %d, want %d", traced.Events, plain.Events)
	}
	if !reflect.DeepEqual(plain.Journal, traced.Journal) {
		t.Errorf("controller journal differs:\n%v\nwant\n%v", traced.Journal, plain.Journal)
	}
	if plain.Usage != traced.Usage || plain.Traffic != traced.Traffic {
		t.Errorf("usage or traffic differs: %+v %+v, want %+v %+v", traced.Usage, traced.Traffic, plain.Usage, plain.Traffic)
	}
	if plain.AvgReadK != st.avgReadK {
		t.Errorf("avg read replicas %v, want %v", st.avgReadK, plain.AvgReadK)
	}
	if fingerprint(plain) != fingerprint(traced) {
		t.Errorf("fingerprint differs")
	}
	if l.stats.handlerMsgs == 0 || l.stats.decisions == 0 || l.stats.hookCalls == 0 || l.stats.frames == 0 {
		t.Errorf("decorators saw no traffic: %+v", l.stats)
	}
	if st.loopSelf <= 0 || st.loopSelf > st.loopWall {
		t.Errorf("step-loop self time %v outside (0, %v]", st.loopSelf, st.loopWall)
	}
}

// TestCovered pins the interval-union arithmetic behind self times.
func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {9, 20}}
	if got := covered(1, 10, ivs); got != 3+3+1 { // [1,4) + [5,8) + [9,10)
		t.Errorf("covered = %d, want 7", got)
	}
	spans := []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "b", Start: 3, End: 6, Parent: 0},
		{Name: "c", Start: 2, End: 3, Parent: 1},
	}
	st := selfTimes(spans)
	if got := st["root"]; got != [2]int64{10, 5} {
		t.Errorf("root = %v, want total 10 self 5", got)
	}
	if got := st["a"]; got != [2]int64{3, 2} {
		t.Errorf("a = %v, want total 3 self 2", got)
	}
}

// TestTracedServeMesh drives a short traced serve-mesh-write run: two
// meshed deployments, the decorators on both, the generator validating
// every reply. Run with -race it checks the tracer's sharing between
// the generator and the two engines.
func TestTracedServeMesh(t *testing.T) {
	spec := serveMeshWrite
	spec.Keys = 2000
	r := &result{Correct: true, Metrics: make(map[string]metric)}
	if err := runServe(r, spec, 1, 2*time.Second, newTracer(serveSpanSample)); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("run failed: %d of %d ops, notes %q", r.Failed, r.Attempted, r.notes)
	}
	for _, name := range []string{"wire.frame_bytes_per_op", "live.remote_msgs_per_op", "kv.write_us_p50", "server.rtt_us_p50"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.Metrics[name].Value)
		}
	}
}
