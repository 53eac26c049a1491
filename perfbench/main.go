// Command perfbench is pvmigrate's end-to-end benchmark. It runs one
// workload for a fixed wall-clock budget, checks the workload's outputs,
// and prints report lines followed by one JSON result line:
//
//	perfbench --workload chaos-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, from a
// run split into an untraced half and a traced half over the same inputs
// (their fingerprints must match, and the difference in throughput per
// CPU second is the tracing overhead). perfbench/run.py builds and runs it; README.md in
// this directory describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// stepName says what one latency sample measures.
	stepName string
	// unitName says what ops_per_cpu_s counts, chunkName what work one
	// rate sample covers.
	unitName, chunkName string
	// tail is the workload's tail percentile for step time, fixed so that
	// every run compares the same percentile; a full-length run has well
	// over ten samples beyond it.
	tail float64
	// setUp readies the first step (inputs generated, system built) and
	// returns the teardown. The set-up probe times it in fresh processes.
	setUp func(env *env, seed uint64) (func(), error)
	// run measures the workload for budget; tr is nil for an untraced run.
	run func(env *env, seed uint64, budget time.Duration, tr *tracer) (*result, error)
}

// env is what workloads may touch outside memory.
type env struct {
	buildDir string
	// tmp is a temporary directory inside the build directory, removed
	// when the run ends.
	tmp string
}

// result is what one measured phase of a workload produced.
type result struct {
	attempted, failed int
	problems          []string

	// units of work done in busy wall time, and each whole chunk of
	// work's rate per process CPU second (ops_per_cpu_s is their median,
	// which a passing burst of load on the machine does not move).
	units float64
	busy  time.Duration
	rates []float64
	// steps are per-step process CPU times and wallSteps per-step wall
	// times, in milliseconds.
	steps, wallSteps []float64
	// rssAfter is the chunk count at which peak_rss_mb is read, so it
	// measures a fixed amount of work; rssMB is the reading.
	rssAfter int
	rssMB    float64
	// fps fingerprints each input, in input order: the same seed and
	// input index must give the same fingerprint in any run.
	fps []uint64

	// report holds the workload's own end-to-end figures (virtual
	// measures, per-kind latencies); layer holds per-layer figures.
	report []figure
	layer  []figure
	// notes are printed as comment lines before the metrics.
	notes []string
	// counts are per-layer counters, keyed by BENCHMARK.json names.
	counts map[string]float64
}

type figure struct {
	name  string
	value float64
	unit  string
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// meter reads wall and process CPU time at the start of a step or chunk.
type meter struct {
	wall time.Time
	cpu  time.Duration
}

func startMeter() meter { return meter{time.Now(), cpuTime()} }

func (m meter) elapsed() (wall, cpu time.Duration) {
	return time.Since(m.wall), cpuTime() - m.cpu
}

// step records one step begun at m and returns its wall time.
func (r *result) step(m meter) time.Duration {
	wall, cpu := m.elapsed()
	r.steps = append(r.steps, ms(cpu))
	r.wallSteps = append(r.wallSteps, ms(wall))
	return wall
}

// chunk records a whole chunk of work begun at m: units done.
func (r *result) chunk(units float64, m meter) {
	wall, cpu := m.elapsed()
	r.units += units
	r.busy += wall
	r.rates = append(r.rates, units/cpu.Seconds())
	if len(r.rates) == r.rssAfter {
		r.rssMB = peakRSSMB()
	}
}

// rate is the median chunk rate per CPU second.
func (r *result) rate() float64 { return median(r.rates) }

// wallRate is the mean rate per wall second.
func (r *result) wallRate() float64 { return r.units / r.busy.Seconds() }

func (r *result) add(name string, v float64) {
	if r.counts == nil {
		r.counts = map[string]float64{}
	}
	r.counts[name] += v
}

var workloads = []workload{chaosSweep, paperMigrate, fleetStorm, daemonWire}

// setupProbes is how many fresh processes the set-up time is the median of.
const setupProbes = 11

func main() {
	name := flag.String("workload", "", "workload: chaos-sweep, paper-migrate, fleet-storm, daemon-wire, or all of them in turn")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	buildDir := flag.String("build-dir", ".bench_build", "directory for temporary files and results")
	probe := flag.Bool("probe-setup", false, "set the workload up, print ready, tear down and exit (set-up timing)")
	flag.Parse()

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		selected = []workload{w}
		if !ok {
			selected = nil
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name|all> --seed <n> --seconds <n> --trace <0|1>")
		os.Exit(2)
	}
	// "all" runs every workload in turn, each for the full budget, and
	// prints each one's report and result line.
	for _, w := range selected {
		if err := run(w, *buildDir, *seed, time.Duration(*seconds)*time.Second, *trace, *probe); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

func run(w workload, buildDir string, seed uint64, budget time.Duration, trace int, probe bool) error {
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{buildDir: buildDir, tmp: tmp}

	if probe {
		teardown, err := w.setUp(e, seed)
		if err != nil {
			return err
		}
		fmt.Println("ready", cpuTime().Seconds())
		teardown()
		return nil
	}

	var out output
	if trace == 0 {
		out, err = endToEnd(w, e, seed, budget)
	} else {
		out, err = perLayer(w, e, seed, budget)
	}
	if err != nil {
		return err
	}
	st := stampNow()
	out.lines = append([]string{st.String()}, out.lines...)
	line, err := out.json()
	if err != nil {
		return err
	}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	if err := saveResult(buildDir, w.name, seed, trace, st, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: warning: result file not written:", err)
	}
	fmt.Println(line)
	return nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// output is one run's result line plus the report lines before it.
type output struct {
	correct           bool
	attempted, failed int
	metrics           []figure
	lines             []string
}

func (o output) json() (string, error) {
	ms := map[string]map[string]any{}
	for _, m := range o.metrics {
		if m.value != m.value || m.value > 1e300 || m.value < -1e300 {
			return "", fmt.Errorf("metric %s is not a finite number", m.name)
		}
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": o.correct, "attempted": o.attempted, "failed": o.failed, "metrics": ms,
	})
	return string(b), err
}

// endToEnd measures the end-to-end metrics with tracing off.
func endToEnd(w workload, e *env, seed uint64, budget time.Duration) (output, error) {
	setup, setupWall, err := probeSetup(w, e, seed)
	if err != nil {
		return output{}, err
	}
	res, err := w.run(e, seed, budget, nil)
	if err != nil {
		return output{}, err
	}
	if len(res.steps) == 0 || len(res.rates) == 0 || res.attempted == 0 {
		return output{}, errors.New("the run completed no step")
	}
	tail := w.tail
	if !percentileOK(len(res.steps), tail) {
		tail = tailPercentile(len(res.steps))
	}
	rssNote := fmt.Sprintf("after %d chunks", res.rssAfter)
	if res.rssMB == 0 {
		res.rssMB, rssNote = peakRSSMB(), fmt.Sprintf("at the end (only %d chunks ran)", len(res.rates))
	}
	out := output{
		correct:   res.failed == 0,
		attempted: res.attempted,
		failed:    res.failed,
		metrics:   e2eMetrics(res, setup, tail),
	}
	out.lines = append(out.lines,
		fmt.Sprintf("# %s: ops_per_cpu_s counts %s per process CPU second, the median of %d chunks of %s; a step is %s; step_cpu_tail_ms is p%g of %d steps; peak_rss_mb is read %s; setup_s is the median CPU time to ready of %d fresh processes",
			w.name, w.unitName, len(res.rates), w.chunkName, w.stepName, tail, len(res.steps), rssNote, len(setup)),
		fmt.Sprintf("# attempted %d, failed %d, %.0f %s in %.3f s of wall time", res.attempted, res.failed, res.units, w.unitName, res.busy.Seconds()))
	for _, n := range res.notes {
		out.lines = append(out.lines, "# "+n)
	}
	for _, m := range out.metrics {
		out.lines = append(out.lines, fmt.Sprintf("e2e %s %.6g %s", m.name, m.value, m.unit))
	}
	wall := []figure{
		{"wall_ops_per_s", res.wallRate(), "1/s"},
		{"wall_step_p50_ms", median(res.wallSteps), "ms"},
		{fmt.Sprintf("wall_step_p%g_ms", tail), percentile(res.wallSteps, tail), "ms"},
		{"wall_setup_s", median(setupWall), "s"},
	}
	for _, f := range append(wall, res.report...) {
		out.lines = append(out.lines, fmt.Sprintf("e2e %s.%s %.6g %s", w.name, f.name, f.value, f.unit))
	}
	for _, p := range res.problems {
		out.lines = append(out.lines, "# FAILED: "+p)
	}
	return out, nil
}

// e2eMetrics are the end-to-end metrics of a run whose set-up probes took
// setup CPU seconds.
func e2eMetrics(res *result, setup []float64, tail float64) []figure {
	return []figure{
		{"setup_s", median(setup), "s"},
		{"ops_per_cpu_s", res.rate(), "1/s"},
		{"step_cpu_p50_ms", median(res.steps), "ms"},
		{"step_cpu_tail_ms", percentile(res.steps, tail), "ms"},
		{"peak_rss_mb", res.rssMB, "MB"},
	}
}

// probeSetup times the workload's set-up in fresh processes, from process
// start to the first step being ready, so work moved into package
// initialisation or set-up shows. It returns each probe's CPU seconds (as
// the probe reports them) and wall seconds (as seen from here).
func probeSetup(w workload, e *env, seed uint64) (cpu, wall []float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{"--probe-setup", "--workload", w.name, "--seed", fmt.Sprint(seed), "--build-dir", e.buildDir}
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		took := time.Since(start)
		werr := cmd.Wait()
		var secs float64
		if _, serr := fmt.Sscanf(line, "ready %g\n", &secs); rerr != nil || serr != nil || werr != nil {
			return nil, nil, fmt.Errorf("set-up probe failed: %q %v %v %v", line, rerr, serr, werr)
		}
		cpu = append(cpu, secs)
		wall = append(wall, took.Seconds())
	}
	return cpu, wall, nil
}

// perLayer runs the workload untraced for half the budget and traced, with
// a CPU profile, for the other half, over the same input sequence.
func perLayer(w workload, e *env, seed uint64, budget time.Duration) (output, error) {
	half := budget / 2
	plain, err := w.run(e, seed, half, nil)
	if err != nil {
		return output{}, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return output{}, err
	}
	before := memStats()
	start := time.Now()
	traced, err := w.run(e, seed, half, tr)
	wall := time.Since(start)
	pprof.StopCPUProfile()
	if err != nil {
		return output{}, err
	}
	runtimeCounts(traced, before)
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return output{}, err
	}

	mismatch := 0
	n := min(len(plain.fps), len(traced.fps))
	for i := 0; i < n; i++ {
		if plain.fps[i] != traced.fps[i] {
			mismatch++
		}
	}
	out := output{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed + mismatch,
	}
	out.correct = out.failed == 0 && n > 0
	plainRate, tracedRate := plain.rate(), traced.rate() // per CPU second
	overhead := (plainRate - tracedRate) / plainRate * 100

	out.metrics = layerMetrics(traced, tr, shares, samples, wall, overhead, mismatch)

	out.lines = append(out.lines,
		fmt.Sprintf("# %s traced run: untraced half %.0f %s in %.3f s (%.4g per CPU second), traced half %.0f in %.3f s (%.4g): tracing overhead %.2f%%",
			w.name, plain.units, w.unitName, plain.busy.Seconds(), plainRate, traced.units, traced.busy.Seconds(), tracedRate, overhead),
		fmt.Sprintf("# fingerprints compared on %d inputs: %d mismatches; cpu shares are of %d profile samples",
			n, mismatch, samples))
	for _, n := range traced.notes {
		out.lines = append(out.lines, "# "+n)
	}
	for _, f := range traced.layer {
		out.lines = append(out.lines, fmt.Sprintf("layer %s %.6g %s", f.name, f.value, f.unit))
	}
	for _, name := range sortedKeys(tr.spans) {
		s := tr.span(name)
		line := fmt.Sprintf("span %s n=%d total_ms=%.3f self_ms=%.3f p50_us=%.2f", name, s.n,
			ms(s.total), ms(s.self), median(s.samples))
		if percentileOK(s.n, 99) {
			line += fmt.Sprintf(" p99_us=%.2f", percentile(s.samples, 99))
		}
		out.lines = append(out.lines, line)
	}
	for _, m := range out.metrics {
		out.lines = append(out.lines, fmt.Sprintf("layer %s %.6g %s", m.name, m.value, m.unit))
	}
	for _, p := range append(plain.problems, traced.problems...) {
		out.lines = append(out.lines, "# FAILED: "+p)
	}
	return out, nil
}

// layerMetrics are the per-layer metrics of a traced phase that took wall
// time, whose CPU profile charged shares samples to layers, with the
// tracing overhead and the fingerprint mismatches against the untraced
// phase.
func layerMetrics(traced *result, tr *tracer, shares map[string]int64, samples int64, wall time.Duration,
	overhead float64, mismatch int) []figure {
	var out []figure
	for _, name := range layerCounts {
		out = append(out, figure{name, traced.counts[name], countUnit(name)})
	}
	aborts := traced.counts["upvm.flush_aborts"]
	out = append(out, figure{"upvm.abort_ratio", pct(aborts, aborts+traced.counts["upvm.ulp_moves"]) / 100, "ratio"})
	for _, l := range cpuLayers {
		out = append(out, figure{"cpu." + l, pct(float64(shares[l]), float64(samples)), "%"})
	}
	out = append(out, figure{"cpu.samples", float64(samples), "count"})
	for _, ws := range wallShares {
		var total time.Duration
		for _, name := range ws.spans {
			total += tr.span(name).total
		}
		out = append(out, figure{"wall." + ws.name + "_pct", pct(total.Seconds(), wall.Seconds()), "%"})
	}
	return append(out,
		figure{"trace.overhead_pct", overhead, "%"},
		figure{"trace.fingerprint_mismatches", float64(mismatch), "count"},
		figure{"runtime.gc_cycles", traced.counts["runtime.gc_cycles"], "count"},
		figure{"runtime.gc_pause_ms", traced.counts["runtime.gc_pause_ms"], "ms"},
		figure{"runtime.alloc_mb", traced.counts["runtime.alloc_mb"], "MB"})
}

// layerCounts are the per-layer counters every traced run reports; a
// layer the workload does not exercise reads 0.
var layerCounts = []string{
	"sim.events", "trace.events",
	"mpvm.migrations", "mpvm.warm_rounds", "mpvm.precopy_kb",
	"ft.recoveries", "upvm.ulp_moves", "upvm.flush_aborts", "adm.moves",
	"gs.decisions", "gs.moves", "gs.evacuations", "gs.units_moved", "gs.move_errors",
	"journal.bytes", "sse.frames", "sse.dropped",
	"netwire.dgrams", "netwire.dgram_packets", "netwire.dgram_bytes",
	"netwire.streams", "netwire.stream_frames", "netwire.stream_bytes",
}

// countUnit is a counter's unit, read off its name.
func countUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_kb"):
		return "KB"
	case strings.HasSuffix(name, "bytes"):
		return "bytes"
	}
	return "count"
}

// cpuLayers are the layers CPU samples are charged to (see layerOf).
var cpuLayers = []string{
	"sim", "netsim", "cluster", "pvm", "mpvm", "upvm", "adm", "opt", "ft", "gs", "plan",
	"chaos", "harness", "trace", "serve", "netwire", "wirefmt", "core", "metrics",
	"bench", "netstack", "gc", "runtime", "other",
}

// wallShares are the traced spans reported as a share of the traced
// phase's wall time; unlike CPU shares they include waiting (fsync,
// socket round trips).
var wallShares = []struct {
	name  string
	spans []string
}{
	{"chaos_check", []string{"chaos.check"}},
	{"chaos_determinism", []string{"chaos.determinism"}},
	{"gs_tick", []string{"gs.tick"}},
	{"gs_actuate", []string{"gs.actuate.move", "gs.actuate.evacuate"}},
	{"serve_write", []string{"serve.write"}},
	{"serve_read", []string{"serve.read"}},
	{"journal_write", []string{"journal.write"}},
	{"journal_sync", []string{"journal.sync"}},
	{"replay", []string{"replay"}},
	{"netwire", []string{"netwire.send_dgram", "netwire.recv_dgram", "netwire.dial", "netwire.stream_send", "netwire.stream_recv"}},
	{"wirefmt", []string{"wirefmt.encode", "wirefmt.decode"}},
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole * 100
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeCounts adds the Go runtime's GC and allocation figures for the
// phase that began at before.
func runtimeCounts(res *result, before runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.add("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	res.add("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	res.add("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// cpuTime is the process's CPU time so far, user and system, all threads.
// Unlike wall time it leaves out time the machine gave to other work
// (steal, co-tenants) and time spent waiting on the disk or a socket.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// saveResult writes the run's stamp, metrics and report lines to the
// build directory's results folder.
func saveResult(buildDir, name string, seed uint64, trace int, st stamp, out output) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	metrics := map[string]figure{}
	for _, m := range out.metrics {
		metrics[m.name] = m
	}
	rows := make([]map[string]any, 0, len(metrics))
	for _, k := range sortedKeys(metrics) {
		rows = append(rows, map[string]any{"name": k, "value": metrics[k].value, "unit": metrics[k].unit})
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": name, "seed": seed, "trace": trace, "stamp": st,
		"correct": out.correct, "attempted": out.attempted, "failed": out.failed,
		"metrics": rows, "report": out.lines,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace)), b, 0o644)
}
