package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

// The hot-key study (PR 8): what the hot-set tracker and the
// freshness-bounded coordinator read cache buy under Zipfian traffic,
// and what per-key consistency adds on top. Three variants run the same
// three phases over identical workloads:
//
//	no-cache   — Harmony per-key tuner, Config.HotCache off: every read
//	             pays the full replica round-trip (the PR 7 baseline)
//	cache      — Config.HotCache on: single-ack reads of tracked hot
//	             keys answer from the coordinator cache when the entry
//	             is younger than its freshness bound
//	cache+hot  — cache plus the hot-key-aware Harmony tuner, which pins
//	             each hot key to its own smallest safe read level
//
// The phases stress the cache's correctness machinery in turn:
//
//	steady — Zipf(0.99) read-heavy mix; the tracker promotes the head
//	         keys and the cache warms up
//	shift  — the key space rotates to a fresh prefix mid-run: the old
//	         hot set's read share collapses, demotion hysteresis swaps
//	         the tracked set, and the cache re-warms on the new head
//	burst  — a write burst hammers the head key: its per-key write rate
//	         λ jumps, the freshness bound −ln(1−α)/λ collapses, and the
//	         cache must stop serving the key before staleness breaches α
//
// Per phase the study reports throughput, read p99, the oracle stale
// rate, and the cache meter deltas; the headline checks are that cache
// hits cut messages per operation while the windowed observed stale
// rate stays under the same α=10% the no-cache baseline honors.
type hotKeyVariant struct {
	Name     string
	Cache    bool
	PerLevel bool // hot-key-aware tuner pinning per-key read levels
}

// hotKeyOutcome is one variant's full measurement.
type hotKeyOutcome struct {
	Variant hotKeyVariant
	Phases  []phaseRecord
	// WholeRunStale is the oracle stale rate over all judged reads.
	WholeRunStale float64
	Usage         kv.Usage
}

// HotKeyResult carries the study's outcomes plus the rendered table.
type HotKeyResult struct {
	Outcomes []hotKeyOutcome
	Table    *Table
}

// hotKeyAlpha is the staleness target every variant must hold — the
// same α the cache's freshness bound is derived from.
const hotKeyAlpha = 0.10

// RunHotKey runs the study on platform p for all three variants, fanned
// out over the parallel driver.
func RunHotKey(p Platform, seed uint64) *HotKeyResult {
	variants := []hotKeyVariant{
		{Name: "no-cache", Cache: false},
		{Name: "cache", Cache: true},
		{Name: "cache+hot", Cache: true, PerLevel: true},
	}
	outcomes := parallelMap(variants, func(v hotKeyVariant) hotKeyOutcome {
		return runHotKeyVariant(p, v, seed)
	})

	t := NewTable("Hot-key cache (PR 8): freshness-bounded coordinator reads and per-key "+
		"consistency under Zipfian traffic — "+p.Name,
		"variant", "phase", "ops", "throughput(op/s)", "read p99", "stale", "msgs/op",
		"hits", "misses", "expired", "stale-served", "hot keys")
	for _, out := range outcomes {
		for _, ph := range out.Phases {
			start, end := ph.UsageStart, ph.UsageEnd
			t.Add(out.Variant.Name, ph.Name, fmt.Sprintf("%d", ph.Metrics.Ops),
				fmt.Sprintf("%.0f", ph.Throughput()), fmt.Sprintf("%v", ph.Metrics.ReadLat.Quantile(0.99)),
				pct(ph.StaleRate()), fmt.Sprintf("%.1f", msgsPerOp(ph)),
				fmt.Sprintf("%d", end.CacheHits-start.CacheHits),
				fmt.Sprintf("%d", end.CacheMisses-start.CacheMisses),
				fmt.Sprintf("%d", end.CacheExpired-start.CacheExpired),
				fmt.Sprintf("%d", end.CacheStaleServed-start.CacheStaleServed),
				fmt.Sprintf("%d", end.HotKeysNow))
		}
		u := out.Usage
		t.Note("%s: whole-run stale %s; %d hits / %d misses / %d fills, "+
			"%d invalidations, %d expired, %d ring-evicted, %d stale served; "+
			"%d promotions, %d demotions",
			out.Variant.Name, pct(out.WholeRunStale),
			u.CacheHits, u.CacheMisses, u.CacheFills, u.CacheInvalidations,
			u.CacheExpired, u.CacheRingEvicted, u.CacheStaleServed,
			u.HotPromotions, u.HotDemotions)
	}
	t.Note("a hit answers in the coordinator with zero replica messages; the freshness bound " +
		"−ln(1−α)/λ keeps the expected stale rate of hits under the same α=10%% Harmony tunes for")
	return &HotKeyResult{Outcomes: outcomes, Table: t}
}

// runHotKeyVariant drives the three phases over one cluster and one
// controller (α=10%).
func runHotKeyVariant(p Platform, v hotKeyVariant, seed uint64) hotKeyOutcome {
	if seed == 0 {
		seed = 1
	}
	cfg := p.Config(seed)
	cfg.HotCache = v.Cache
	tuner := func(cl *kv.Cluster) core.Tuner { return harmony.New(hotKeyAlpha, cl.RF()).PerKey() }
	if v.PerLevel {
		tuner = func(cl *kv.Cluster) core.Tuner { return harmony.NewHot(hotKeyAlpha, cl) }
	}

	// Steady/burst keyspace plus the shifted one the middle phase rotates
	// to; both are preloaded so phase runners never insert.
	w := ycsb.Mix(p.Records, 0.95, ycsb.DistZipfian, 0.99)
	w.ValueSize = p.ValueBytes
	shifted := w
	shifted.KeyPrefix = "shift"
	d := deploy(p, cfg, seed, monitor.DefaultOptions(), tuner, 100*time.Millisecond, w, shifted)
	cl, loader := d.cl, d.loaders[0]

	// The burst target: the scrambled zipfian's rank-0 record — the most
	// popular key of the steady keyspace, independent of the seed.
	headKey := loader.Keys(stats.FNVHash64(0) % w.RecordCount)

	ops := phaseOps(p, 3)
	out := hotKeyOutcome{Variant: v}
	out.Phases = d.run([]stage{
		{Phase: Phase{"steady", w, ops}},
		{Phase: Phase{"shift", shifted, ops}},
		// Demotion hysteresis and the controller settle on the shifted
		// hot set before the burst returns to the original keyspace.
		{Phase: Phase{"burst", w, ops}, before: d.settle(time.Second), during: func() {
			// 400 writes to the head key, 2 ms apart: λ jumps to ~500/s
			// and the freshness bound collapses under the read
			// inter-arrival gap.
			var fire func(left int)
			fire = func(left int) {
				if left == 0 {
					return
				}
				cl.Write(headKey, loader.Value(), kv.One, func(kv.WriteResult) {})
				d.tr.Schedule(2*time.Millisecond, func() { fire(left - 1) })
			}
			fire(400)
		}},
	}, studySeeds(seed))
	d.eng.RunFor(2 * time.Second) // drain read repair and hint replay

	d.ctl.Stop()
	out.WholeRunStale = d.staleRate()
	out.Usage = cl.Usage()
	return out
}

// msgsPerOp is a phase's network messages per operation.
func msgsPerOp(ph phaseRecord) float64 {
	if ph.Metrics.Ops == 0 {
		return 0
	}
	traffic := ph.MeterEnd.Sub(ph.MeterStart)
	var msgs uint64
	for _, n := range traffic.Messages {
		msgs += n
	}
	return float64(msgs) / float64(ph.Metrics.Ops)
}
