package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
)

// TestParallelMatchesSequential pins the parallel driver's contract: the
// fan-out must produce row-identical results to a sequential loop (each
// run is a pure function of its spec), in spec order.
func TestParallelMatchesSequential(t *testing.T) {
	t.Setenv("REPRO_WORKERS", "4") // force real fan-out even on one core
	// 160 client threads instead of the preset's 1600: ten times fewer
	// operations per run over the same 84-node topology, enough for the
	// fan-out contract, which does not depend on run length.
	p := G5KHarmony()
	p.Threads = 160
	p = p.Scaled(0.0005)
	specs := make([]RunSpec, 0, 4)
	for _, lvl := range []kv.Level{kv.One, kv.Quorum, kv.All, kv.Two} {
		specs = append(specs, RunSpec{
			Platform: p,
			Tuner:    core.StaticTuner{Read: lvl, Write: kv.One},
			Seed:     7,
		})
	}

	par := RunAll(specs)
	seq := make([]RunResult, len(specs))
	for i := range specs {
		seq[i] = Run(specs[i])
	}

	for i := range specs {
		pm, sm := par[i].Metrics, seq[i].Metrics
		if pm.Ops != sm.Ops || pm.StaleReads != sm.StaleReads || pm.FreshReads != sm.FreshReads ||
			pm.Timeouts != sm.Timeouts || pm.End != sm.End {
			t.Errorf("spec %d: parallel %+v != sequential %+v", i, pm, sm)
		}
		if par[i].Traffic != seq[i].Traffic {
			t.Errorf("spec %d: traffic meters differ: %+v vs %+v", i, par[i].Traffic, seq[i].Traffic)
		}
		if par[i].Usage != seq[i].Usage {
			t.Errorf("spec %d: usage differs: %+v vs %+v", i, par[i].Usage, seq[i].Usage)
		}
	}
}

// TestParallelMapOrderAndPanic pins result ordering and panic
// propagation.
func TestParallelMapOrderAndPanic(t *testing.T) {
	t.Setenv("REPRO_WORKERS", "4")
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	out := parallelMap(in, func(x int) int { return x * x })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("worker panic was not propagated")
		}
	}()
	parallelMap(in, func(x int) int {
		if x == 42 {
			panic("boom")
		}
		return x
	})
}
