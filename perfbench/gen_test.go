package main

import (
	"bytes"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

// TestGeneratorsAreSeedDeterministic: the same seed gives the same inputs,
// and another seed gives other inputs.
func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	if chaosConfig(chaosBase(3)) != chaosConfig(chaosBase(3)) || chaosConfig(chaosBase(3)) == chaosConfig(chaosBase(4)) {
		t.Error("chaos inputs are not a function of the seed")
	}
	if chaosBase(3)%determinismEvery != 0 {
		t.Error("a chaos sequence must start on a determinism double-run seed")
	}

	a, b, c := paperRuns(3), paperRuns(3), paperRuns(4)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("paper runs are not a function of the seed")
	}
	if len(a) != 4*6+1 {
		t.Errorf("%d paper runs per round, want 25", len(a))
	}

	if !reflect.DeepEqual(fleetScenario(fleetBase(3)), fleetScenario(fleetBase(3))) ||
		reflect.DeepEqual(fleetScenario(fleetBase(3)), fleetScenario(fleetBase(4))) {
		t.Error("fleet scenarios are not a function of the seed")
	}

	if !reflect.DeepEqual(daemonScript(3, 1), daemonScript(3, 1)) ||
		reflect.DeepEqual(daemonScript(3, 1), daemonScript(4, 1)) ||
		reflect.DeepEqual(daemonScript(3, 1), daemonScript(3, 2)) {
		t.Error("daemon scripts are not a function of the seed and session")
	}
}

// TestDaemonScriptShape: one write per round, each followed by its reads,
// with exactly the operator events the workload promises.
func TestDaemonScriptShape(t *testing.T) {
	counts := map[string]int{}
	writes := 0
	for _, r := range daemonScript(9, 0) {
		counts[r.route]++
		if r.write() {
			writes++
		}
	}
	if writes != daemonRounds+2 {
		t.Errorf("%d writes, want %d rounds plus two submissions", writes, daemonRounds)
	}
	for route, want := range map[string]int{"owner": 2, "plans": 2, "faults": 1, "metrics": daemonRounds,
		"tasks": daemonRounds / 5, "fingerprint": 1, "migrations": 1, "jobs": 3} {
		if counts[route] != want {
			t.Errorf("%d %s requests, want %d", counts[route], route, want)
		}
	}
}

// TestCPUSharesOfARealProfile parses a profile runtime/pprof wrote and
// charges this test's busy loop to the benchmark's own code.
func TestCPUSharesOfARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, total, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Skip("the profile caught no samples")
	}
	var sum int64
	for _, n := range shares {
		sum += n
	}
	// Race instrumentation charges much of the loop to its own frames, so
	// only ask that the loop shows at all.
	if sum != total || shares["bench"] == 0 {
		t.Fatalf("busy loop got %d of %d samples (%v)", shares["bench"], total, shares)
	}
}

var sink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Exp", "pvmigrate/internal/opt.(*Net).forward", "pvmigrate/internal/sim.(*Kernel).Run"}, "opt"},
		{[]string{"runtime.mallocgc", "main.runChaos", "main.main"}, "bench"},
		{[]string{"pvmigrate/internal/wirefmt.Append", "main.tracedCodec.AppendEncode", "pvmigrate/internal/netwire.(*Backend).SendDgram"}, "wirefmt"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net/http.(*conn).serve"}, "netstack"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"strings.Index"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestTracedRunsMatchUntraced runs the smallest whole unit of three
// workloads untraced and traced: the outputs must pass their checks and
// the fingerprints must agree, so the seam wrappers change nothing.
func TestTracedRunsMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole workload units")
	}
	e := &env{buildDir: t.TempDir(), tmp: t.TempDir()}
	for _, w := range []workload{paperMigrate, fleetStorm, daemonWire} {
		plain, err := w.run(e, 5, time.Nanosecond, nil)
		if err != nil {
			t.Fatal(w.name, err)
		}
		tr := newTracer()
		traced, err := w.run(e, 5, time.Nanosecond, tr)
		if err != nil {
			t.Fatal(w.name, err)
		}
		if plain.failed+traced.failed != 0 {
			t.Errorf("%s failed: %v %v", w.name, plain.problems, traced.problems)
		}
		if len(plain.fps) == 0 || !reflect.DeepEqual(plain.fps, traced.fps) {
			t.Errorf("%s fingerprints: untraced %x, traced %x", w.name, plain.fps, traced.fps)
		}
		if len(tr.spans) == 0 {
			t.Errorf("%s: the traced run recorded no span", w.name)
		}
	}
}
