package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/experiments"
	"repro/internal/kv"
	"repro/internal/storage"
	"repro/internal/ycsb"
)

// serveRead: one process serving all three nodes on the Mem engine, a
// 95/5 GET/SET Zipfian mix over a keyspace far larger than the CPU
// caches. RESP, server batching, the engine lock and the coordinator
// read path do the work; the mesh and the LSM stay idle.
var serveRead = serveSpec{
	Keys:      100_000,
	ValueSize: 100,
	Depth:     32,
	ReadProp:  0.95,
	Dist:      ycsb.DistZipfian,
	Engine:    storage.Mem,
}

// serveMeshWrite: the ring split over two meshed deployments on the
// LSM engine with an in-memory WAL, a 90/10 SET/GET uniform mix over a
// keyspace several memtables large. Every write quorum crosses the
// mesh as wire frames; WAL appends, flushes and compactions all run.
var serveMeshWrite = serveSpec{
	Keys:       50_000,
	ValueSize:  100,
	Depth:      32,
	ReadProp:   0.10,
	Dist:       ycsb.DistUniform,
	Engine:     storage.LSM,
	FlushLimit: 1 << 20,
	Mesh:       true,
}

// liveTypes are the message types whose handler time the traced run
// reports one by one: the four busiest on each serving workload.
var liveTypes = []string{"workDone", "coordExec", "replicaRead", "replicaReadResp", "replicaWrite", "replicaWriteAck"}

func (s serveSpec) gen(seed uint64) genConfig {
	w := ycsb.Mix(s.Keys, s.ReadProp, s.Dist, 0)
	if err := w.Validate(); err != nil {
		panic(err)
	}
	return genConfig{Keys: s.Keys, ValueSize: s.ValueSize, Depth: s.Depth, Workload: w, Seed: seed}
}

// runServe measures one serving workload. Untraced, it builds the
// deployment setupRounds times (setup_s is the median), then measures
// the last one for the window. Traced, it measures an untraced
// deployment for half the window and a decorated one for the other
// half.
func runServe(r *result, spec serveSpec, seed uint64, window time.Duration, tr *tracer) error {
	// storeserve's GC policy.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	if tr == nil {
		var setups []float64
		var d *deployment
		for i := 0; i < setupRounds; i++ {
			if d != nil {
				d.close()
				runtime.GC()
			}
			t0 := time.Now()
			var err error
			if d, err = build(spec, nil); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		run, err := measureServe(r, d, spec, seed, window, nil)
		d.close()
		if err != nil {
			return err
		}
		g := run.gen
		sliced(r, g)
		setSetup(r, setups)
		r.note("failed_share %.6g (%d of %d); GETs %d, SETs %d; oracle in-flight at end %d",
			float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted, g.Gets, g.Sets, run.after.inFl)
		return nil
	}

	half := window / 2
	d, err := build(spec, nil)
	if err != nil {
		return err
	}
	base, err := measureServe(r, d, spec, seed, half, nil)
	d.close()
	if err != nil {
		return err
	}
	runtime.GC()
	d, err = build(spec, tr)
	if err != nil {
		return err
	}
	traced, err := measureServe(r, d, spec, seed, half, tr)
	d.close()
	if err != nil {
		return err
	}
	serveLayers(r, d, base, traced, tr)
	return nil
}

// measureServe runs the generator on d and folds its outcome into r.
func measureServe(r *result, d *deployment, spec serveSpec, seed uint64, window time.Duration, tr *tracer) (serveRun, error) {
	g := newLoadgen(spec.gen(seed), d.conn)
	if tr != nil {
		g.onBatch = func(start bool) {
			if start {
				tr.beginBatch()
			} else {
				tr.endBatch()
			}
		}
	}
	run, err := measure(d, g, window, tr)
	r.Attempted += run.warm.Ops + run.gen.Ops
	r.Failed += run.warm.Failed + run.gen.Failed
	if f := run.gen.FirstFailure; f != "" {
		r.check(false, "wrong reply: %s", f)
	}
	return run, err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sliced reports throughput and median latencies as medians over the
// window's one-second slices, so a stall in one second moves the
// figures of that slice only.
func sliced(r *result, g genResult) {
	var ops, cpu, gets, sets, gets99, sets99 []float64
	for _, sl := range g.Slices {
		ops = append(ops, sl.OpsPerS)
		cpu = append(cpu, us(sl.CPUPerOp))
		gets = append(gets, us(sl.GetP50))
		sets = append(sets, us(sl.SetP50))
		gets99 = append(gets99, us(sl.GetP99))
		sets99 = append(sets99, us(sl.SetP99))
	}
	r.set("cpu_us_per_op", median(cpu), "us")
	r.set("get_p50_us", median(gets), "us")
	r.set("set_p50_us", median(sets), "us")
	r.note("median of %d slices: %.0f ops/s wall, GET p99 %.1f us, SET p99 %.1f us",
		len(g.Slices), median(ops), median(gets99), median(sets99))
}

// quantile returns the q-quantile of xs (nearest rank), sorting xs.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// per divides, reporting 0 for an empty base.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// serveLayers reports the per-layer metrics of a serving workload:
// program counters from the untraced half (base), decorator timings
// from the traced half.
func serveLayers(r *result, d *deployment, base, traced serveRun, tr *tracer) {
	g, tg := base.gen, traced.gen
	ops, tops := float64(g.Ops), float64(tg.Ops)
	wallNs := float64(g.Wall)
	var st layerStats
	byType := make(map[string]typeStat)
	for _, l := range d.layers {
		addLayer(&st, l.stats)
		for t, ts := range l.stats.byType {
			v := byType[typeName(t)]
			v.ns += ts.ns
			v.n += ts.n
			byType[typeName(t)] = v
		}
	}

	r.set("server.rtt_us_p50", us(tg.BatchRTT.Quantile(0.50)), "us")
	r.set("server.rtt_us_p99", us(tg.BatchRTT.Quantile(0.99)), "us")
	r.set("server.outside_kv_share", outsideKVShare(r, tr.finished()), "ratio")

	kvLayer(r, st, tops)
	u0, u1 := base.before.usage, base.after.usage
	r.set("kv.replica_reads_per_get", per(float64(u1.ReplicaReads-u0.ReplicaReads), float64(g.Gets)), "reads/get")
	r.set("kv.replica_writes_per_set", per(float64(u1.ReplicaWrites-u0.ReplicaWrites), float64(g.Sets)), "writes/set")
	r.set("kv.read_repairs_per_kop", per(float64(u1.ReadRepairs-u0.ReadRepairs)*1000, ops), "1/kop")
	r.set("kv.oracle_inflight", float64(base.after.inFl), "count")
	r.set("kv.failed_per_kop", per(float64(g.Failed)*1000, ops), "1/kop")

	busiest := make([]string, 0, len(byType))
	for name := range byType {
		busiest = append(busiest, name)
	}
	slices.SortFunc(busiest, func(a, b string) int { return int(byType[b].n - byType[a].n) })
	for _, name := range busiest {
		r.note("handler %-22s %10d msgs %10.1f ns/msg", name, byType[name].n, per(float64(byType[name].ns), float64(byType[name].n)))
	}
	for _, name := range liveTypes {
		ts := byType[name]
		r.set("live.handler_ns."+name, per(float64(ts.ns), float64(ts.n)), "ns/msg")
	}
	r.set("live.remote_msgs_per_op", per(float64(st.remoteSends), tops), "msgs/op")
	r.set("live.meter_bytes_per_op", per(float64(base.after.meter.TotalBytes()-base.before.meter.TotalBytes()), ops), "B/op")
	r.set("live.busy_share", per(float64(st.handlerNs), float64(tg.Wall)), "ratio")

	r.set("wire.frame_bytes_per_op", per(float64(st.frameBytes), tops), "B/op")
	r.set("wire.frame_encode_ns", per(float64(st.frameNs), float64(st.frames)), "ns/frame")

	storageLayer(r, base.before.storage, base.after.storage, float64(g.UserBytes), float64(g.Gets))
	r.set("sim.events_per_op", 0, "events/op")
	r.set("sim.step_self_share", 0, "ratio")
	r.set("sim.virtual_ops_per_s", 0, "ops/s")
	r.set("monitor.hook_ns_per_op", per(float64(st.hookNs), tops), "ns/op")
	r.set("harmony.decide_us", 0, "us")
	r.set("harmony.level_changes", 0, "count")
	r.set("harmony.avg_read_replicas", float64(kv.Quorum.Replicas(3)), "replicas")
	var stale float64
	d.lives[0].Engine.Do(func() { stale = d.lives[0].Cluster.Oracle().StaleRate() })
	r.set("harmony.stale_rate", stale, "ratio")
	runtimeLayer(r, &base.before.mem, &base.after.mem, ops, wallNs)
	r.set("loadgen.busy_share", per(float64(g.Wall-g.ReadWait), wallNs), "ratio")
	r.set("wall.ops_per_s", ops/g.Wall.Seconds(), "ops/s")
	r.set("loadgen.get_p99_us", us(g.GetLat.Quantile(0.99)), "us")
	r.set("loadgen.set_p99_us", us(g.SetLat.Quantile(0.99)), "us")
	r.set("trace.overhead_share", 1-per(tops/tg.Wall.Seconds(), ops/g.Wall.Seconds()), "ratio")
}

func addLayer(dst *layerStats, s layerStats) {
	dst.handlerNs += s.handlerNs
	dst.handlerMsgs += s.handlerMsgs
	dst.sends += s.sends
	dst.sendBytes += s.sendBytes
	dst.remoteSends += s.remoteSends
	dst.frames += s.frames
	dst.frameBytes += s.frameBytes
	dst.frameNs += s.frameNs
	dst.hookNs += s.hookNs
	dst.hookCalls += s.hookCalls
	dst.decideNs += s.decideNs
	dst.decisions += s.decisions
	dst.readLat.Merge(&s.readLat)
	dst.writeLat.Merge(&s.writeLat)
	dst.sessionReads += s.sessionReads
	dst.sessionWrites += s.sessionWrites
}

// kvLayer reports the session latencies and message counts.
func kvLayer(r *result, st layerStats, ops float64) {
	r.set("kv.read_us_p50", us(st.readLat.Quantile(0.50)), "us")
	r.set("kv.read_us_p99", us(st.readLat.Quantile(0.99)), "us")
	r.set("kv.write_us_p50", us(st.writeLat.Quantile(0.50)), "us")
	r.set("kv.write_us_p99", us(st.writeLat.Quantile(0.99)), "us")
	r.set("kv.msgs_per_op", per(float64(st.sends), ops), "msgs/op")
	r.set("kv.msg_bytes_per_op", per(float64(st.sendBytes), ops), "B/op")
	r.set("kv.handler_ns_per_msg", per(float64(st.handlerNs), float64(st.handlerMsgs)), "ns/msg")
}

// storageLayer reports engine counter deltas over the window.
func storageLayer(r *result, s0, s1 storage.Stats, userBytes, gets float64) {
	r.set("storage.wal_bytes_per_user_byte", per(float64(s1.WALBytes-s0.WALBytes), userBytes), "B/B")
	r.set("storage.flushes", float64(s1.Flushes-s0.Flushes), "count")
	r.set("storage.compactions", float64(s1.Compactions-s0.Compactions), "count")
	r.set("storage.compacted_bytes_per_user_byte", per(float64(s1.CompactedBytes-s0.CompactedBytes), userBytes), "B/B")
	r.set("storage.reads_per_get", per(float64(s1.Reads-s0.Reads), gets), "reads/get")
	r.set("storage.rejected_writes", float64(s1.Rejected-s0.Rejected), "count")
	r.set("storage.runs_end", float64(s1.Runs), "count")
}

// runtimeLayer reports allocation and GC deltas over the window.
func runtimeLayer(r *result, m0, m1 *runtime.MemStats, ops, wallNs float64) {
	r.set("runtime.allocs_per_op", per(float64(m1.Mallocs-m0.Mallocs), ops), "allocs/op")
	r.set("runtime.alloc_bytes_per_op", per(float64(m1.TotalAlloc-m0.TotalAlloc), ops), "B/op")
	r.set("runtime.gc_per_kop", per(float64(m1.NumGC-m0.NumGC)*1000, ops), "1/kop")
	r.set("runtime.gc_pause_share", per(float64(m1.PauseTotalNs-m0.PauseTotalNs), wallNs), "ratio")
}

// outsideKVShare is the share of sampled batch round trips not covered
// by any kv session span of the batch. It also notes how the median
// batch splits: the median time covered by kv spans plus the median
// time outside them, against the median round trip.
func outsideKVShare(r *result, spans []span) float64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 && (s.Name == "kv.read" || s.Name == "kv.write") {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var rtt, outside int64
	var rtts, ins, outs []float64
	for i, s := range spans {
		if s.Name != "server.batch" || s.End < 0 {
			continue
		}
		d := s.End - s.Start
		in := covered(s.Start, s.End, kids[int32(i)])
		rtt += d
		outside += d - in
		rtts, ins, outs = append(rtts, float64(d)), append(ins, float64(in)), append(outs, float64(d-in))
	}
	if m := median(rtts); m > 0 {
		r.note("median sampled batch (%d): rtt %.1f us = kv spans %.1f us + outside kv %.1f us (sum/rtt %.3f)",
			len(rtts), m/1e3, median(ins)/1e3, median(outs)/1e3, (median(ins)+median(outs))/m)
	}
	return per(float64(outside), float64(rtt))
}

// simSeeds is how many simulator seeds one untraced run cycles
// through: --seed n runs seeds simSeeds·n to simSeeds·n+simSeeds-1.
// The simulated latencies are pooled over them, since one seed's
// latency distribution depends on the control trajectory it happens
// to take.
const simSeeds = 2

// runSim measures sim-harmony: experiments.Run on ExpA, cycling through
// the run's seeds until the window is spent and running each at least
// twice, so a seed that does not reproduce byte for byte fails the
// run. Traced, half the window runs undecorated and half decorated
// on the first seed, and the two must agree.
func runSim(r *result, seed uint64, window time.Duration, tr *tracer) error {
	seeds := make([]uint64, simSeeds)
	for i := range seeds {
		seeds[i] = seed*simSeeds + uint64(i)
	}
	budget := window
	if tr != nil {
		seeds, budget = seeds[:1], window/2
	}
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		buildSim(simSpec(seeds[i%len(seeds)]), nil)
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}
	// Only the fingerprints are kept: a run result holds its whole
	// cluster, which would inflate peak_rss_mb.
	first := make(map[uint64]string)
	var base experiments.RunResult // the first seed's first run, for the traced comparison
	var rates []float64
	var reads, writes []time.Duration
	cpus := make(map[uint64][]float64) // CPU time per simulated op, per run of each seed
	var m0, m1 runtime.MemStats
	var wall0 time.Duration
	// Whole cycles over the seeds, so each weighs the same.
	for i, start := 0, time.Now(); i < 2*len(seeds) || i%len(seeds) != 0 || time.Since(start) < budget; i++ {
		s := seeds[i%len(seeds)]
		spec := simSpec(s)
		rec := &latencyRecorder{}
		spec.Wrap = rec.wrap
		// The previous run's cluster is garbage now; collecting it keeps
		// peak RSS to one run's worth whatever the GC's phase.
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0, c0 := time.Now(), cpuTime()
		res := experiments.Run(spec)
		wall, cpu := time.Since(t0), cpuTime()-c0
		runtime.ReadMemStats(&m1)
		cpus[s] = append(cpus[s], us(cpu)/float64(spec.Platform.Ops))
		wall0 = wall
		simOutcome(r, spec, res)
		rates = append(rates, float64(spec.Platform.Ops)/wall.Seconds())
		fp := fingerprint(res)
		if want, seen := first[s]; seen {
			r.check(fp == want, "sim-harmony: seed %d did not reproduce: %s vs %s", s, fp, want)
			continue
		}
		first[s] = fp
		if tr != nil {
			base = res
		}
		reads, writes = append(reads, rec.reads...), append(writes, rec.writes...)
		m := res.Metrics
		r.check(m.StaleRate() <= harmonyAlpha, "sim-harmony: seed %d stale_rate %.4f exceeds alpha %.2f",
			s, m.StaleRate(), harmonyAlpha)
		r.note("sim-harmony seed %d: stale_rate %.6f (alpha %.2f), sim_throughput_ops_s %.6g",
			s, m.StaleRate(), harmonyAlpha, m.Throughput())
	}
	r.note("sim-harmony: %d runs, median %.0f ops/s wall, failed_share %.6g",
		len(rates), median(rates), float64(r.Failed)/float64(max(r.Attempted, 1)))
	if tr == nil {
		var perSeed []float64
		for _, c := range cpus {
			perSeed = append(perSeed, median(c))
		}
		r.set("cpu_us_per_op", mean(perSeed), "us")
		r.set("get_p50_us", us(quantile(reads, 0.50)), "us")
		r.set("set_p50_us", us(quantile(writes, 0.50)), "us")
		setSetup(r, setups)
		return nil
	}

	var traced experiments.RunResult
	var st simTrace
	var tRates []float64
	for start := time.Now(); len(tRates) < 1 || time.Since(start) < budget; {
		spec := simSpec(seeds[0])
		spec.Wrap = (&latencyRecorder{}).wrap
		traced, st = buildSim(spec, newLayer(tr, false, nil)).run()
		r.check(fingerprint(traced) == first[seeds[0]], "sim-harmony: traced run diverged: %s vs %s",
			fingerprint(traced), first[seeds[0]])
		simOutcome(r, spec, traced)
		tRates = append(tRates, float64(spec.Platform.Ops)/st.wall.Seconds())
	}
	simLayers(r, base, traced, st, &m0, &m1, wall0, median(rates), median(tRates))
	return nil
}

// simOutcome folds one run's operations into the result. A simulated
// op that timed out or found too few replicas is an outcome of the
// modeled overloaded cluster, reproduced byte for byte like the rest of
// the run, not a failure of the program: it is noted, and reported per
// layer as kv.failed_per_kop. A run that stalls fails outright.
func simOutcome(r *result, spec experiments.RunSpec, res experiments.RunResult) {
	r.Attempted += spec.Platform.Ops
	if m := res.Metrics; m.Timeouts+m.Unavailable > 0 {
		r.note("sim-harmony seed %d: %d simulated ops timed out, %d found too few replicas",
			spec.Seed, m.Timeouts, m.Unavailable)
	}
}

// simLayers reports the per-layer metrics of sim-harmony: decorator
// timings from the traced run, program counters from the run result
// and the runtime deltas of the last untraced run.
func simLayers(r *result, base, traced experiments.RunResult, st simTrace, m0, m1 *runtime.MemStats,
	wall time.Duration, rate, tRate float64) {
	ops := float64(base.Spec.Platform.Ops)
	s := st.layer.stats
	reads, writes := float64(s.sessionReads), float64(s.sessionWrites)

	r.set("server.rtt_us_p50", 0, "us")
	r.set("server.rtt_us_p99", 0, "us")
	r.set("server.outside_kv_share", 0, "ratio")

	kvLayer(r, s, ops)
	u := traced.Usage
	r.set("kv.replica_reads_per_get", per(float64(u.ReplicaReads), reads), "reads/get")
	r.set("kv.replica_writes_per_set", per(float64(u.ReplicaWrites), writes), "writes/set")
	r.set("kv.read_repairs_per_kop", per(float64(u.ReadRepairs)*1000, ops), "1/kop")
	r.set("kv.oracle_inflight", float64(traced.Cluster.Oracle().InFlight()), "count")
	r.set("kv.failed_per_kop", per(float64(traced.Metrics.Timeouts+traced.Metrics.Unavailable)*1000, ops), "1/kop")

	for _, name := range liveTypes {
		r.set("live.handler_ns."+name, 0, "ns/msg")
	}
	r.set("live.remote_msgs_per_op", 0, "msgs/op")
	r.set("live.meter_bytes_per_op", 0, "B/op")
	r.set("live.busy_share", 0, "ratio")
	r.set("wire.frame_bytes_per_op", 0, "B/op")
	r.set("wire.frame_encode_ns", 0, "ns/frame")

	var ss storage.Stats
	for _, id := range traced.Cluster.Members() {
		addStorage(&ss, traced.Cluster.Node(id).Engine().Stats())
	}
	userBytes := writes * float64(base.Spec.Platform.ValueBytes)
	storageLayer(r, storage.Stats{}, ss, userBytes, reads)

	r.set("sim.events_per_op", per(float64(traced.Events), ops), "events/op")
	r.set("sim.step_self_share", per(float64(st.loopSelf), float64(st.loopWall)), "ratio")
	r.set("sim.virtual_ops_per_s", base.Metrics.Throughput(), "ops/s")
	r.set("monitor.hook_ns_per_op", per(float64(s.hookNs), ops), "ns/op")
	r.set("harmony.decide_us", per(float64(s.decideNs), float64(s.decisions))/1e3, "us")
	r.set("harmony.level_changes", float64(traced.LevelChanges), "count")
	r.set("harmony.avg_read_replicas", st.avgReadK, "replicas")
	r.set("harmony.stale_rate", base.Metrics.StaleRate(), "ratio")
	runtimeLayer(r, m0, m1, ops, float64(wall))
	r.set("loadgen.busy_share", 0, "ratio")
	r.set("wall.ops_per_s", rate, "ops/s")
	r.set("loadgen.get_p99_us", 0, "us")
	r.set("loadgen.set_p99_us", 0, "us")
	r.set("trace.overhead_share", 1-per(tRate, rate), "ratio")
	if avg := base.AvgReadK; math.Abs(avg-st.avgReadK) > 1e-12 {
		r.check(false, "sim-harmony: traced avg read replicas %v differ from %v", st.avgReadK, avg)
	}
}
