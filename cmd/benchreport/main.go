// Command benchreport runs the simulator's performance suite — the
// micro-benchmarks of the discrete-event core, the storage engines, the
// hot-key coordinator read cache (cached single-ack reads and the full
// Zipfian mix), the membership layer (ring rebalance, snapshot
// streaming, gossip probe rounds, the stale-ring wrong-owner retry),
// the autoscale decision loop, the serving-layer codecs (RESP
// command decode/encode, the inter-process wire round trip) and the
// range-addressed rebalance path (movement planning, range-bounded
// snapshot streaming), plus an end-to-end experiment run and a
// whole-repo repolint pass — and writes the numbers as JSON so the
// performance trajectory is tracked in-repo (BENCH_PR12.json). CI runs
// it on every push and uploads the file as an artifact.
//
// Usage:
//
//	go run ./cmd/benchreport [-o BENCH_PR12.json] [-quick] [-baseline old.json]
//
// -quick shortens the measurement windows (CI smoke); -baseline embeds a
// previously captured report under "baseline" so before/after travels in
// one file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/suite"
	"repro/internal/autoscale"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/provision"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wire"
)

// benchScale mirrors the root bench_test.go perf-tracking scale: the
// end-to-end numbers here and BenchmarkExpAHarmony measure the same run.
const benchScale = 0.004

// Bench is one micro-benchmark measurement.
type Bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Iterations  uint64  `json:"iterations"`
}

// Experiment is one end-to-end experiment measurement.
type Experiment struct {
	Name         string  `json:"name"`
	WallSeconds  float64 `json:"wall_seconds"`
	VirtualOps   uint64  `json:"virtual_ops"`
	VopsPerSec   float64 `json:"vops_per_sec"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Throughput   float64 `json:"virtual_throughput_ops_s"`
	StaleRate    float64 `json:"stale_rate"`
}

// Tool is one developer-tooling wall-time measurement.
type Tool struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	Packages    int     `json:"packages"`
	Findings    int     `json:"findings"`
}

// Report is the benchreport output schema.
type Report struct {
	GeneratedBy string       `json:"generated_by"`
	GoVersion   string       `json:"go_version"`
	Gomaxprocs  int          `json:"gomaxprocs"`
	Scale       float64      `json:"bench_scale"`
	Benchmarks  []Bench      `json:"benchmarks"`
	Experiments []Experiment `json:"experiments"`
	Tools       []Tool       `json:"tools,omitempty"`
	// Notes records harness verdicts that travel with the numbers —
	// methodology changes, explained regressions, caveats.
	Notes    []string `json:"notes,omitempty"`
	Baseline *Report  `json:"baseline,omitempty"`
}

// measure calibrates iterations until the body runs for at least target,
// then re-runs the calibrated round twice more and reports the fastest of
// the three — a single round is one sample of a noisy machine, and the
// minimum is the estimate least disturbed by ambient scheduling. The body
// receives the iteration count and must execute its operation exactly
// that many times.
func measure(name string, target time.Duration, body func(n uint64)) Bench {
	var n uint64 = 1
	for {
		elapsed, allocs := measureRound(body, n)
		if elapsed >= target || n >= 1<<32 {
			for round := 0; round < 2; round++ {
				if e, a := measureRound(body, n); e < elapsed {
					elapsed, allocs = e, a
				}
			}
			return Bench{
				Name:        name,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
				AllocsPerOp: float64(allocs) / float64(n),
				Iterations:  n,
			}
		}
		// Grow toward the target with headroom, capped at 100× per round.
		grow := uint64(float64(target)/float64(elapsed+1)*1.2) + 1
		if grow > 100 {
			grow = 100
		}
		n *= grow
	}
}

// measureRound times one body(n) invocation behind a fresh GC.
func measureRound(body func(n uint64), n uint64) (time.Duration, uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	body(n)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs
}

func benchEngineSchedule(target time.Duration) Bench {
	eng := sim.New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		eng.Schedule(time.Hour+time.Duration(i)*time.Microsecond, fn)
	}
	return measure("EngineSchedule", target, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			eng.Schedule(time.Microsecond, fn)
			eng.Step()
		}
	})
}

func benchTransportSend(target time.Duration) Bench {
	eng := sim.New(1)
	topo := netsim.SingleDC(8)
	tr := netsim.NewTransport(eng, topo)
	sink := func(from netsim.NodeID, payload any) {}
	for _, id := range topo.Nodes() {
		tr.Register(id, sink)
	}
	payload := &struct{ a, b uint64 }{1, 2}
	return measure("TransportSend", target, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			tr.Send(0, 1, payload, 128)
			eng.Step()
		}
	})
}

func benchKVReadQuorum(target time.Duration) Bench {
	topo := netsim.SingleDC(6)
	cfg := kv.DefaultConfig()
	cfg.Seed = 1
	eng := sim.New(cfg.Seed)
	tr := netsim.NewTransport(eng, topo)
	cl := kv.New(topo, tr, cfg)
	const records = 1024
	key := func(i uint64) string { return fmt.Sprintf("user%012d", i) }
	cl.Preload(records, key, make([]byte, 128))
	keys := make([]string, records)
	for i := range keys {
		keys[i] = key(uint64(i))
	}
	// One callback for the whole bench: the harness must not charge its
	// own closure allocations to the client path it is measuring.
	done := false
	cb := func(kv.ReadResult) { done = true }
	return measure("KVReadQuorum", target, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			done = false
			cl.Read(keys[i%records], kv.Quorum, cb)
			for !done && eng.Step() {
			}
			if !done {
				// Mirror BenchmarkKVReadQuorum's stall check: a garbage
				// report must never look like a healthy artifact.
				panic("benchreport: quorum read stalled")
			}
		}
	})
}

// benchHotKeyCachedRead measures a single-ack read of a tracked hot key
// served from the coordinator read cache (PR 8): the coordinator answers
// from its own entry, no replica message is sent. Compare against
// KVReadQuorum for what the cache shaves off the hot path.
func benchHotKeyCachedRead(target time.Duration) Bench {
	topo := netsim.SingleDC(6)
	cfg := kv.DefaultConfig()
	cfg.Seed = 1
	cfg.HotCache = true
	eng := sim.New(cfg.Seed)
	tr := netsim.NewTransport(eng, topo)
	cl := kv.New(topo, tr, cfg)
	const key = "hotkey000000"
	cl.Preload(1, func(uint64) string { return key }, make([]byte, 128))
	done := false
	cb := func(kv.ReadResult) { done = true }
	// Warm up: promote the key and fill every coordinator's cache.
	for i := 0; i < 2048; i++ {
		done = false
		cl.Read(key, kv.One, cb)
		for !done && eng.Step() {
		}
		if !done {
			panic("benchreport: hot-key warmup read stalled")
		}
	}
	if cl.Usage().CacheHits == 0 {
		panic("benchreport: warmup produced no cache hits")
	}
	return measure("HotKeyCachedRead", target, func(n uint64) {
		before := cl.Usage().CacheHits
		for i := uint64(0); i < n; i++ {
			done = false
			cl.Read(key, kv.One, cb)
			for !done && eng.Step() {
			}
			if !done {
				panic("benchreport: hot-key read stalled")
			}
		}
		// Virtual time moves the clock past the freshness bound now and
		// then, so a few reads re-fill — but hits must dominate.
		if hits := cl.Usage().CacheHits - before; hits < n/2 {
			panic(fmt.Sprintf("benchreport: only %d/%d reads were cache hits", hits, n))
		}
	})
}

// benchZipfMixedHotSet measures the full PR 8 hot path under a Zipfian
// mix: 95% single-ack reads, 5% single-ack writes over a scrambled
// Zipf(0.99) keyspace with the tracker promoting and demoting and
// writes invalidating entries — the amortized per-op cost of the cache
// machinery under its intended workload.
func benchZipfMixedHotSet(target time.Duration) Bench {
	topo := netsim.SingleDC(6)
	cfg := kv.DefaultConfig()
	cfg.Seed = 1
	cfg.HotCache = true
	eng := sim.New(cfg.Seed)
	tr := netsim.NewTransport(eng, topo)
	cl := kv.New(topo, tr, cfg)
	const records = 1024
	key := func(i uint64) string { return fmt.Sprintf("user%012d", i) }
	val := make([]byte, 128)
	cl.Preload(records, key, val)
	keys := make([]string, records)
	for i := range keys {
		keys[i] = key(uint64(i))
	}
	zipf := stats.NewScrambledZipfian(records, 0.99)
	src := stats.NewSource(42)
	done := false
	rcb := func(kv.ReadResult) { done = true }
	wcb := func(kv.WriteResult) { done = true }
	op := func() {
		k := keys[zipf.Next(src)]
		done = false
		if src.Float64() < 0.05 {
			cl.Write(k, val, kv.One, wcb)
		} else {
			cl.Read(k, kv.One, rcb)
		}
		for !done && eng.Step() {
		}
		if !done {
			panic("benchreport: zipf mixed op stalled")
		}
	}
	// Warm up: the tracker needs a few eval windows to promote the head
	// keys before steady-state cost is measurable.
	for i := 0; i < 4096; i++ {
		op()
	}
	if u := cl.Usage(); u.HotPromotions == 0 || u.CacheHits == 0 {
		panic("benchreport: zipf warmup never engaged the cache")
	}
	return measure("ZipfMixedHotSet", target, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			op()
		}
	})
}

// benchWALAppend mirrors storage.BenchmarkWALAppend: the WAL-logged
// apply path of the LSM engine (encode + append + per-record sync +
// memtable insert). The engine is rebuilt per calibration round: with a
// shared engine the never-flushed memtable and WAL carry every previous
// round's records into the next, so the measured round's per-op cost
// depended on how many calibration rounds ran before it (the PR7
// report's 12.5µs "regression" was exactly this artifact).
func benchWALAppend(target time.Duration) Bench {
	val := make([]byte, 128)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i)
	}
	return measure("WALAppend", target, func(n uint64) {
		e := storage.NewLSMEngine(storage.Options{FlushLimit: 0, SyncBytes: 0, MaxRuns: 64})
		var seq uint64
		for i := uint64(0); i < n; i++ {
			seq++
			e.Apply(keys[i%4096], storage.Cell{
				Version: storage.Version{Timestamp: time.Duration(seq), Seq: seq},
				Value:   val,
			})
		}
	})
}

// benchMergeRead mirrors storage.BenchmarkMergeRead: Get across a
// populated memtable plus three striped sorted runs.
func benchMergeRead(target time.Duration) Bench {
	e := storage.NewLSMEngine(storage.Options{FlushLimit: 0, SyncBytes: 1 << 20, MaxRuns: 64})
	const records = 4096
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i)
	}
	var seq uint64
	for r := 0; r < 4; r++ {
		for i := r; i < records; i += 4 {
			seq++
			e.Apply(keys[i], storage.Cell{
				Version: storage.Version{Timestamp: time.Duration(seq), Seq: seq},
				Value:   make([]byte, 128),
			})
		}
		if r < 3 {
			e.Flush() // the last stripe stays in the memtable
		}
	}
	return measure("MergeRead", target, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			if _, ok := e.Get(keys[i%records]); !ok {
				panic("benchreport: merge-read miss")
			}
		}
	})
}

// benchLSMOverwrite mirrors storage.BenchmarkLSMOverwrite: uniform
// overwrites with rising versions of 50k preloaded keys (100 B values,
// 1 MiB flush limit, 16 KiB WAL sync cadence, default MaxRuns) — the
// LSM write path of a serving write workload, flushes and compactions
// included. The engine carries over between calibration rounds like a
// long-running replica's; its run count stays bounded by compaction.
func benchLSMOverwrite(target time.Duration) Bench {
	e := storage.NewLSMEngine(storage.Options{FlushLimit: 1 << 20, SyncBytes: 16 << 10})
	keys := make([]string, 50_000)
	val := make([]byte, 100)
	var seq uint64
	for i := range keys {
		keys[i] = fmt.Sprintf("user%012d", i)
		seq++
		e.Apply(keys[i], storage.Cell{Version: storage.Version{Timestamp: time.Duration(seq), Seq: seq}, Value: val})
	}
	rng := rand.New(rand.NewPCG(1, 2))
	return measure("LSMOverwrite", target, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			seq++
			e.Apply(keys[rng.IntN(len(keys))], storage.Cell{
				Version: storage.Version{Timestamp: time.Duration(seq), Seq: seq},
				Value:   val,
			})
		}
	})
}

// benchRingRebalance mirrors ring.BenchmarkAddRemoveNode: one scale-up +
// scale-down cycle on a 64-node ring with incremental placement
// recompute, the control-plane cost of a membership change.
func benchRingRebalance(target time.Duration) Bench {
	nodes := make([]netsim.NodeID, 64)
	for i := range nodes {
		nodes[i] = netsim.NodeID(i)
	}
	s := ring.NewSimpleStrategy(ring.New(nodes, 32, 7), 3)
	return measure("RingRebalance", target, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			s.AddNode(64)
			s.RemoveNode(64)
		}
	})
}

// benchSnapshotStream mirrors storage.BenchmarkSnapshotStream: the
// per-cell cost of the full rejoin pipeline — snapshot-iterate an LSM
// engine, serialize through the framed codec, apply on a mem engine.
func benchSnapshotStream(target time.Duration) Bench {
	src := storage.NewLSMEngine(storage.Options{FlushLimit: 64 << 10, SyncBytes: 1 << 20, MaxRuns: 8})
	const records = 4096
	for i := 0; i < records; i++ {
		seq := uint64(i + 1)
		src.Apply(fmt.Sprintf("user%08d", i), storage.Cell{
			Version: storage.Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   make([]byte, 128),
		})
	}
	var chunk []byte
	return measure("SnapshotStream", target, func(n uint64) {
		for i := uint64(0); i < n; i += records {
			dst := storage.NewMemEngine(0)
			it := src.Snapshot()
			for {
				k, c, ok := it.Next()
				if !ok {
					break
				}
				chunk = storage.EncodeCell(chunk[:0], k, c)
				if _, _, err := storage.ApplyEncoded(dst, chunk); err != nil {
					panic(err)
				}
			}
			if dst.Len() != records {
				panic("benchreport: snapshot stream lost cells")
			}
		}
	})
}

// benchRangeStreamPlan measures ring.Diff on a 64-node, 32-vnode ring
// join: the movement plan (range → sources → targets) that replaced
// per-key placement probing as the control-plane step of a membership
// change (PR 10).
func benchRangeStreamPlan(target time.Duration) Bench {
	nodes := make([]netsim.NodeID, 64)
	for i := range nodes {
		nodes[i] = netsim.NodeID(i)
	}
	joined := append(append([]netsim.NodeID{}, nodes...), 64)
	old := ring.NewSimpleStrategy(ring.New(nodes, 32, 7), 3)
	next := ring.NewSimpleStrategy(ring.New(joined, 32, 7), 3)
	moves := 0
	return measure("RangeStreamPlan", target, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			moves = len(ring.Diff(old, next))
		}
		if moves == 0 {
			panic("benchreport: empty movement plan for a join")
		}
	})
}

// benchRangeSnapshotStream is SnapshotStream's range-addressed twin: the
// same 4096-record LSM source and codec path, but reading only the arcs
// one of eight ring members owns (SnapshotRanges) instead of walking the
// whole store. Its per-cell cost runs higher than SnapshotStream's
// (token-filtered point reads instead of one merged scan), but a join
// reads ~1/N of the cells, so the whole transfer still wins by several
// fold.
func benchRangeSnapshotStream(target time.Duration) Bench {
	src := storage.NewLSMEngine(storage.Options{FlushLimit: 64 << 10, SyncBytes: 1 << 20, MaxRuns: 8})
	const records = 4096
	for i := 0; i < records; i++ {
		seq := uint64(i + 1)
		src.Apply(fmt.Sprintf("user%08d", i), storage.Cell{
			Version: storage.Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   make([]byte, 128),
		})
	}
	members := make([]netsim.NodeID, 8)
	for i := range members {
		members[i] = netsim.NodeID(i)
	}
	owned := ring.New(members, 32, 7).Ranges(0)
	moved := 0
	for it := src.SnapshotRanges(owned); ; moved++ {
		if _, _, ok := it.Next(); !ok {
			break
		}
	}
	if moved == 0 || moved*2 > records {
		panic("benchreport: range snapshot not a store fraction")
	}
	var chunk []byte
	return measure("RangeSnapshotStream", target, func(n uint64) {
		for i := uint64(0); i < n; i += uint64(moved) {
			dst := storage.NewMemEngine(0)
			it := src.SnapshotRanges(owned)
			for {
				k, c, ok := it.Next()
				if !ok {
					break
				}
				chunk = storage.EncodeCell(chunk[:0], k, c)
				if _, _, err := storage.ApplyEncoded(dst, chunk); err != nil {
					panic(err)
				}
			}
			if dst.Len() != moved {
				panic("benchreport: range snapshot stream lost cells")
			}
		}
	})
}

// benchGossipRound measures one SWIM probe round — deterministic peer
// selection, a ping/ack exchange with piggybacked updates and the probe
// timers — the steady-state background cost every node pays for
// decentralized membership. Eight staggered nodes tick once per
// interval each, so one interval/8 slice of virtual time is one round.
func benchGossipRound(target time.Duration) Bench {
	topo := netsim.SingleDC(8)
	cfg := kv.DefaultConfig()
	cfg.Seed = 1
	cfg.Gossip = true
	cfg.GossipInterval = 200 * time.Millisecond
	cfg.HintReplayInterval = 0 // gossip is the only periodic traffic
	cfg.AntiEntropyInterval = 0
	eng := sim.New(cfg.Seed)
	tr := netsim.NewTransport(eng, topo)
	cl := kv.New(topo, tr, cfg)
	step := cfg.GossipInterval / time.Duration(topo.N())
	return measure("GossipRound", target, func(n uint64) {
		before := cl.Usage().GossipRounds
		for i := uint64(0); i < n; i++ {
			eng.RunFor(step)
		}
		if cl.Usage().GossipRounds == before {
			panic("benchreport: no gossip rounds ran")
		}
	})
}

// benchStaleRingReadRetry measures the wrong-owner fallback end to end:
// every view except the joiner's and one displaced old owner's is
// rewound to the pre-join ring, then a read at ALL for a key the join
// moved is driven to completion — the displaced replica refuses with
// the missing ring events, the coordinator merges them, re-plans and
// retries against the true owners. The per-iteration view rewind is
// part of the measured loop (VNodes=32 bounds the strategy rebuild
// while still handing the joiner real ownership).
func benchStaleRingReadRetry(target time.Duration) Bench {
	topo := netsim.SingleDC(6)
	cfg := kv.DefaultConfig()
	cfg.Seed = 1
	cfg.Gossip = true
	cfg.VNodes = 32
	cfg.WarmupDuration = 0
	cfg.HintReplayInterval = 0
	cfg.AntiEntropyInterval = 0
	cfg.InitialMembers = []netsim.NodeID{0, 1, 2, 3, 4}
	eng := sim.New(cfg.Seed)
	tr := netsim.NewTransport(eng, topo)
	cl := kv.New(topo, tr, cfg)
	const records = 256
	key := func(i uint64) string { return fmt.Sprintf("stale%06d", i) }
	cl.Preload(records, key, make([]byte, 128))
	contains := func(list []netsim.NodeID, id netsim.NodeID) bool {
		for _, n := range list {
			if n == id {
				return true
			}
		}
		return false
	}
	oldOwners := make([][]netsim.NodeID, records)
	for i := range oldOwners {
		oldOwners[i] = append([]netsim.NodeID(nil), cl.Strategy().Replicas(key(uint64(i)))...)
	}
	joiner := netsim.NodeID(5)
	cl.Join(joiner)
	// Agreement is trivially total until the flip appends the ring event,
	// so wait for the flip first, then for every view to catch up.
	for i := 0; i < 400 && !cl.IsMember(joiner); i++ {
		eng.RunFor(50 * time.Millisecond)
	}
	for i := 0; i < 400 && !cl.MembershipConverged(); i++ {
		eng.RunFor(50 * time.Millisecond)
	}
	if !cl.IsMember(joiner) || !cl.MembershipConverged() {
		panic("benchreport: views never converged after the join")
	}
	var staleKey string
	displaced := netsim.NodeID(-1)
	for i := 0; i < records && displaced < 0; i++ {
		newR := cl.Strategy().Replicas(key(uint64(i)))
		if !contains(newR, joiner) {
			continue
		}
		for _, r := range oldOwners[i] {
			if !contains(newR, r) {
				staleKey, displaced = key(uint64(i)), r
				break
			}
		}
	}
	if displaced < 0 {
		panic("benchreport: the join displaced no key")
	}
	var stale []netsim.NodeID
	for _, m := range cl.Members() {
		if m != joiner && m != displaced {
			stale = append(stale, m)
		}
	}
	return measure("StaleRingReadRetry", target, func(n uint64) {
		before := cl.Usage().WrongOwnerRetries
		for i := uint64(0); i < n; i++ {
			for _, m := range stale {
				cl.ResetGossipView(m, 0)
			}
			done := false
			cl.Read(staleKey, kv.All, func(kv.ReadResult) { done = true })
			for !done && eng.Step() {
			}
			if !done {
				panic("benchreport: stale-ring read stalled")
			}
		}
		if cl.Usage().WrongOwnerRetries == before {
			panic("benchreport: no wrong-owner retry ran")
		}
	})
}

// loopReader replays one encoded byte sequence forever — an endless
// pipelined client for the RESP decoder.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off += n
	if l.off == len(l.data) {
		l.off = 0
	}
	return n, nil
}

// benchRESPDecode mirrors wire.BenchmarkRESPDecode: parse one pipelined
// SET command per op — the per-command ingress cost of the TCP front
// end. Must stay at 0 allocs/op: the reader retains and reslices its
// own buffers.
func benchRESPDecode(target time.Duration) Bench {
	cmd := []byte("*3\r\n$3\r\nSET\r\n$8\r\nkey:1234\r\n$64\r\n" +
		string(bytes.Repeat([]byte("x"), 64)) + "\r\n")
	r := wire.NewRESPReader(&loopReader{data: cmd})
	return measure("RESPDecode", target, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			if _, err := r.ReadCommand(); err != nil {
				panic(err)
			}
		}
	})
}

// benchRESPEncode mirrors wire.BenchmarkRESPEncode: one op writes a
// simple string, a 64-byte bulk and an integer — a representative reply
// batch slice — flushing every 64 ops as a pipelined server would.
func benchRESPEncode(target time.Duration) Bench {
	value := bytes.Repeat([]byte("x"), 64)
	w := wire.NewRESPWriter(io.Discard)
	return measure("RESPEncode", target, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			w.SimpleString("OK")
			w.Bulk(value)
			w.Int(1)
			if i%64 == 63 {
				if err := w.Flush(); err != nil {
					panic(err)
				}
			}
		}
		if err := w.Flush(); err != nil {
			panic(err)
		}
	})
}

// benchWireRoundTripLoopback measures the full inter-process codec
// path — marshal a replica write into a frame, read the frame back,
// decode into a pooled box — the per-message cost the TCP mesh adds
// over in-process delivery.
func benchWireRoundTripLoopback(target time.Duration) Bench {
	value := bytes.Repeat([]byte("x"), 64)
	buf := make([]byte, 0, 256)
	return measure("WireRoundTripLoopback", target, func(n uint64) {
		var err error
		for i := uint64(0); i < n; i++ {
			if buf, err = kv.WireBenchRoundTrip(buf, i, value); err != nil {
				panic(err)
			}
		}
	})
}

// benchStore is an always-settled fixed-size store; the bench feeds a
// workload whose recommendation equals the current size, so Step runs
// the full sample → optimize → judge pipeline without enacting.
type benchStore struct{ members []netsim.NodeID }

func (s *benchStore) Members() []netsim.NodeID            { return s.members }
func (s *benchStore) State(netsim.NodeID) kv.NodeState    { return kv.StateLive }
func (s *benchStore) MembershipSettled() bool             { return true }
func (s *benchStore) MembershipConverged() bool           { return true }
func (s *benchStore) TryJoin(netsim.NodeID) error         { return nil }
func (s *benchStore) TryDecommission(netsim.NodeID) error { return nil }

// benchSampler returns a fixed, fully populated snapshot (top keys and
// tail included, so the workload distillation is paid too).
type benchSampler struct{ snap monitor.Snapshot }

func (s *benchSampler) Snapshot() monitor.Snapshot { return s.snap }

type benchClock struct{ now time.Duration }

func (c *benchClock) Now() time.Duration             { return c.now }
func (c *benchClock) Schedule(time.Duration, func()) {}

// benchAutoscaleDecide measures one autoscale control period: distill
// the monitor snapshot, run provision.Optimize over the size range and
// judge hysteresis/cooldown/boundary — the recurring cost of keeping
// the cost loop closed.
func benchAutoscaleDecide(target time.Duration) Bench {
	members := make([]netsim.NodeID, 6)
	candidates := make([]netsim.NodeID, 16)
	for i := range candidates {
		candidates[i] = netsim.NodeID(i)
	}
	copy(members, candidates[:6])
	// 7000 ops/s at this node model recommends exactly 6 nodes — the
	// current size — so every Step exercises the full pipeline and
	// holds.
	snap := monitor.Snapshot{
		ReadRate:  5600,
		WriteRate: 1400,
		TopKeys: []monitor.KeyRate{
			{Key: "a", ReadShare: 0.2, WriteRate: 80},
			{Key: "b", ReadShare: 0.1, WriteRate: 40},
			{Key: "c", ReadShare: 0.05, WriteRate: 20},
		},
		TailKeys: 5000, TailReadShr: 0.65, TailWriteRte: 860,
	}
	clock := &benchClock{}
	ctl := autoscale.New(&benchStore{members: members}, &benchSampler{snap: snap}, clock, autoscale.Config{
		NodeType: provision.NodeType{
			Name: "bench", HourlyCost: 0.24, Concurrency: 2,
			ReadServiceMean:  time.Millisecond,
			WriteServiceMean: time.Millisecond,
		},
		Constraints: provision.Constraints{RF: 3, ReadLevel: 1, WriteLevel: 1,
			MaxStaleRate: 1, FailureBudget: 1},
		Pricing:    cost.EC2East2013().PerSecond(),
		Candidates: candidates,
		Interval:   time.Second,
		LogLimit:   64,
	})
	return measure("AutoscaleDecide", target, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			ctl.Step()
			clock.now += time.Second
		}
	})
}

func runExperiment() Experiment {
	p := experiments.G5KHarmony().Scaled(benchScale)
	start := time.Now()
	res := experiments.Run(experiments.RunSpec{
		Platform: p,
		Tuner:    harmony.New(0.20, p.RF),
		Seed:     1,
	})
	wall := time.Since(start).Seconds()
	m := res.Metrics
	e := Experiment{
		Name:        "ExpAHarmony/g5k-84node/alpha=20%",
		WallSeconds: wall,
		VirtualOps:  m.Ops,
		Events:      res.Events,
		Throughput:  m.Throughput(),
		StaleRate:   m.StaleRate(),
	}
	if wall > 0 {
		e.VopsPerSec = float64(m.Ops) / wall
		e.EventsPerSec = float64(res.Events) / wall
	}
	return e
}

// runRepolint measures a whole-repo repolint pass: load and type-check
// the module from source, run all four analyzers. This is the wall
// time a developer pays for `go run ./cmd/repolint ./...` from a warm
// go list cache, tracked so the suite cannot quietly become too slow
// to run locally.
func runRepolint() Tool {
	start := time.Now()
	pkgs, err := load.Packages(".", "./...")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: repolint load: %v\n", err)
		os.Exit(1)
	}
	findings := analysis.Run(pkgs, suite.All())
	return Tool{
		Name:        "RepolintWholeRepo",
		WallSeconds: time.Since(start).Seconds(),
		Packages:    len(pkgs),
		Findings:    len(findings),
	}
}

func main() {
	out := flag.String("o", "BENCH_PR12.json", "output path")
	quick := flag.Bool("quick", false, "short measurement windows (CI smoke)")
	baseline := flag.String("baseline", "", "previously captured report to embed under \"baseline\"")
	flag.Parse()

	target := time.Second
	if *quick {
		target = 50 * time.Millisecond
	}

	rep := Report{
		GeneratedBy: "go run ./cmd/benchreport",
		GoVersion:   runtime.Version(),
		Gomaxprocs:  runtime.GOMAXPROCS(0),
		Scale:       benchScale,
	}
	fmt.Fprintln(os.Stderr, "benchreport: micro-benchmarks...")
	rep.Benchmarks = append(rep.Benchmarks,
		benchEngineSchedule(target),
		benchTransportSend(target),
		benchKVReadQuorum(target),
		benchHotKeyCachedRead(target),
		benchZipfMixedHotSet(target),
		benchWALAppend(target),
		benchMergeRead(target),
		benchLSMOverwrite(target),
		benchRingRebalance(target),
		benchSnapshotStream(target),
		benchRangeStreamPlan(target),
		benchRangeSnapshotStream(target),
		benchAutoscaleDecide(target),
		benchGossipRound(target),
		benchStaleRingReadRetry(target),
		benchRESPDecode(target),
		benchRESPEncode(target),
		benchWireRoundTripLoopback(target),
	)
	fmt.Fprintln(os.Stderr, "benchreport: end-to-end experiment...")
	rep.Experiments = append(rep.Experiments, runExperiment())
	fmt.Fprintln(os.Stderr, "benchreport: whole-repo repolint...")
	rep.Tools = append(rep.Tools, runRepolint())
	rep.Notes = append(rep.Notes,
		"WALAppend now rebuilds the LSM engine per calibration round; the PR7 report's "+
			"12.5µs (vs PR6's 2.4µs) was a harness artifact — a shared engine carried every "+
			"earlier round's memtable and WAL into the measured round, not a storage regression.",
		"HotKeyCachedRead serves a tracked hot key from the coordinator read cache (PR 8); "+
			"compare against KVReadQuorum for the replica round-trip it removes.",
		"every benchmark reports the fastest of three measured rounds at the calibrated "+
			"iteration count (earlier reports measured a single round, one sample of a "+
			"noisy machine).",
		"RESPDecode/RESPEncode/WireRoundTripLoopback track the serving-layer codecs "+
			"(PR 9): the RESP front-end command parse and reply encode (both 0 allocs/op "+
			"by construction) and the framed inter-process replica-message round trip.",
		"RangeStreamPlan/RangeSnapshotStream track the range-addressed rebalance path "+
			"(PR 10): ring.Diff movement planning for a 64-node join, and the "+
			"SnapshotStream codec pipeline bounded to the arcs one of eight members "+
			"owns — costlier per cell (token-filtered point reads vs one merged scan) "+
			"but ~1/N of the cells read, so the whole transfer wins severalfold.",
		"LSMOverwrite tracks the LSM write path in the serving write workload's shape "+
			"(PR 12): 50k keys, 100 B values, 1 MiB flush limit, uniform overwrites. "+
			"Merge compaction and the resident index took it from 4.27 µs/op at the parent "+
			"commit to this report's figure, both measured by this harness on one 2-vCPU "+
			"Xeon host.")

	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: baseline: %v\n", err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: baseline: %v\n", err)
			os.Exit(1)
		}
		base.Baseline = nil // no nesting
		rep.Baseline = &base
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	for _, b := range rep.Benchmarks {
		fmt.Printf("%-16s %10.1f ns/op %8.2f allocs/op\n", b.Name, b.NsPerOp, b.AllocsPerOp)
	}
	for _, e := range rep.Experiments {
		fmt.Printf("%-40s %6.2fs wall  %8.0f vops/s  %9.0f events/s  stale=%.2f%%\n",
			e.Name, e.WallSeconds, e.VopsPerSec, e.EventsPerSec, 100*e.StaleRate)
	}
	for _, tl := range rep.Tools {
		fmt.Printf("%-40s %6.2fs wall  %4d packages  %d findings\n",
			tl.Name, tl.WallSeconds, tl.Packages, tl.Findings)
	}
	fmt.Printf("wrote %s\n", *out)
}
