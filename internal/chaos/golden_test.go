package chaos

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
)

// chaosFingerprintGolden is the FNV-64a fold of Run(sc, Config{Seed: s,
// Real: true}).Fingerprint() for every scenario below × seeds 0–3. It pins
// the explored schedules exactly: a kernel change that reorders a single
// dispatch moves a fingerprint. crash-mid-precopy is left out, as the
// benchmark's chaos sweep leaves it out: it has a known liveness defect on
// some seeds (a source-host crash between OffSource and Reintegrated of a
// warm migration strands the job).
const chaosFingerprintGolden uint64 = 0x2eda8a17a4c62ef0

func TestChaosFingerprintGolden(t *testing.T) {
	h := fnv.New64a()
	for _, sc := range Scenarios {
		if sc.Name == CrashMidPrecopy.Name {
			continue
		}
		for seed := uint64(0); seed < 4; seed++ {
			res := Run(sc, Config{Seed: seed, Real: true})
			fmt.Fprintf(h, "%s;%d;%+v;", sc.Name, seed, res.Fingerprint())
		}
	}
	if got := h.Sum64(); got != chaosFingerprintGolden {
		t.Fatalf("chaos fingerprint fold %#x, want %#x — a change moved an explored schedule", got, chaosFingerprintGolden)
	}
}

// TestSweepReclaimsRuns: a sweep closes every audited run's kernel,
// including the determinism re-run's, so its procs' workers return to the
// sim pool and a second identical sweep adds no goroutines.
func TestSweepReclaimsRuns(t *testing.T) {
	opts := SweepOptions{Seeds: 4, Workers: 1, DeterminismEvery: 2, Config: sweepConfig}
	Sweep(ReclaimDuringRollback, opts) // warm the worker pool
	base := runtime.NumGoroutine()
	Sweep(ReclaimDuringRollback, opts)
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("goroutines after a second Sweep = %d, baseline %d: parked procs were not reclaimed", n, base)
	}
}
