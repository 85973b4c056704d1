// Command perfbench is the repository's benchmark. It drives the store
// as it is deployed — the RESP server over a serving deployment, and
// the discrete-event simulator through experiments.Run — measures what
// a user sees, checks every output, and prints one JSON result line:
//
//	perfbench --workload serve-read --seed 1 --seconds 10 --trace 0
//
// Workloads: serve-read, serve-mesh-write, sim-harmony, or all (each
// of the three in its own process, every metric printed by name). With
// --trace 1 the run instead builds the same parts with decorators
// around the program's seams and reports per-layer metrics; the span
// log of the traced run is written under .bench_build/spans.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Not part of the result line: the human-readable check report.
	notes []string
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.notes = append(r.notes, "FAILED: "+fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupRounds is how many times a run builds its deployment; setup_s
// is the median.
const setupRounds = 9

// spanSample keeps the spans of one request in this many: pipeline
// batches on the serving workloads, top-level events in the simulator.
const (
	serveSpanSample = 64
	simSpanSample   = 64
)

// The benchmark runs from the root of the repository: it reads the
// metric names it must report from specFile and writes the traced
// run's span log under spanDir.
const (
	specFile = "BENCHMARK.json"
	spanDir  = ".bench_build/spans"
)

// setSetup reports setup_s from the setup rounds of a run.
func setSetup(r *result, rounds []float64) {
	r.note("setup rounds (s): %.4g", rounds)
	r.set("setup_s", median(rounds), "s")
}

var workloads = []string{"serve-read", "serve-mesh-write", "sim-harmony"}

func main() {
	workload := flag.String("workload", "", "serve-read, serve-mesh-write, sim-harmony or all")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}

	r := &result{Correct: true, Metrics: make(map[string]metric)}
	var tr *tracer
	newTrace := func(sample uint64) *tracer {
		if *trace == 1 {
			tr = newTracer(sample)
		}
		return tr
	}
	steal0 := stealTicks()
	start := time.Now()
	var err error
	switch *workload {
	case "serve-read":
		err = runServe(r, serveRead, *seed, window, newTrace(serveSpanSample))
	case "serve-mesh-write":
		err = runServe(r, serveMeshWrite, *seed, window, newTrace(serveSpanSample))
	case "sim-harmony":
		err = runSim(r, *seed, window, newTrace(simSpanSample))
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s or all)\n",
			*workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if err != nil {
		r.check(false, "%v", err)
	}
	if tr != nil {
		path := fmt.Sprintf("%s/%s-seed%d.jsonl", spanDir, *workload, *seed)
		if err := tr.write(path); err != nil {
			r.check(false, "writing spans: %v", err)
		}
		reportSelfTimes(tr)
	}
	if r.Attempted == 0 {
		r.check(false, "no operation attempted")
	}
	r.set("peak_rss_mb", peakRSSMiB(), "MiB")
	if tr != nil {
		delete(r.Metrics, "peak_rss_mb")
	}
	r.note("host CPU steal during the run: %.3f of one CPU", (stealTicks()-steal0)/100/time.Since(start).Seconds())
	if err := r.matchSpec(specFile, *trace == 1); err != nil {
		r.check(false, "%v", err)
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	printMetrics(os.Stderr, *workload, r.Metrics)
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// matchSpec checks that the run reported exactly the metrics the
// benchmark definition declares: its end-to-end metrics untraced, its
// per-layer metrics traced.
func (r *result) matchSpec(path string, traced bool) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return fmt.Errorf("%s declares %s in %s; the run reported %+v", path, m.Name, m.Unit, got)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("the run reported %d metrics, %s declares %d", len(r.Metrics), path, len(want))
	}
	return nil
}

// printMetrics writes every metric by name with its unit.
func printMetrics(w *os.File, prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-18s %-36s %16.6g %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}

// reportSelfTimes prints each span name's total and self time.
func reportSelfTimes(tr *tracer) {
	st := selfTimes(tr.finished())
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "spans kept %d, dropped %d; per name: total ms, self ms\n", len(tr.finished()), tr.dropped)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-16s %12.3f %12.3f\n", n, float64(st[n][0])/1e6, float64(st[n][1])/1e6)
	}
}

// runAll runs each workload in its own process (so peak RSS is the
// workload's own), prints every metric by name, and fails if any run
// failed.
func runAll(seed uint64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	all := &result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		var r result
		if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
			all.check(false, "%s: no result (%v)", w, runErr)
			continue
		}
		all.check(r.Correct && runErr == nil, "%s: check failed", w)
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for n, m := range r.Metrics {
			all.Metrics[w+"."+n] = m
		}
	}
	for _, n := range all.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	fmt.Fprintln(os.Stderr, "--- all workloads ---")
	printMetrics(os.Stderr, "all", all.Metrics)
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTime reports the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the stolen CPU ticks (all CPUs, 1/100 s each) from
// /proc/stat: time the hypervisor ran another guest while this one had
// work. It explains wall-clock noise; CPU time per op is immune to it.
func stealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return per(sum, float64(len(xs)))
}

// median returns the middle of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
