package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"pvmigrate/internal/sweep"
)

// The substrate's own performance: how fast the DES kernel processes events
// and context-switches procs. These bound how large a simulated scenario
// stays interactive. Every benchmark reports allocs/op because the hot-path
// contract is zero steady-state allocation (DESIGN.md §7); a regression here
// shows up as allocs/op > 0 before it shows up as ns/op.

func BenchmarkKernelEventThroughput(b *testing.B) {
	k := NewKernel()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Duration(i), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelScheduleDispatch is the steady-state schedule+dispatch
// cycle: a fixed population of in-flight events, each firing reschedules
// itself until the budget is spent. Unlike EventThroughput (which grows the
// heap to b.N before the timer starts), this holds the heap at a constant
// size, so the timed region covers exactly one heapPush + one heapPop per
// op with the free-list warm — the path every simulated scenario lives on,
// and the one that must run at 0 allocs/op.
func BenchmarkKernelScheduleDispatch(b *testing.B) {
	const population = 64
	k := NewKernel()
	left := b.N
	var tick func()
	tick = func() {
		left--
		if left >= population {
			k.Schedule(time.Microsecond, tick)
		}
	}
	for i := 0; i < population && i < b.N; i++ {
		k.Schedule(time.Duration(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

func BenchmarkProcContextSwitch(b *testing.B) {
	k := NewKernel()
	k.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

func BenchmarkQueueHandoff(b *testing.B) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	k.Spawn("prod", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
		}
	})
	k.Spawn("cons", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// --- baseline snapshot -----------------------------------------------------

// benchStat is one benchmark's footprint in the baseline file.
type benchStat struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type sweepStat struct {
	Workers    int     `json:"workers"`
	Seeds      int     `json:"seeds"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

type kernelBaseline struct {
	GoMaxProcs       int       `json:"go_max_procs"`
	EventsPerSec     float64   `json:"events_per_sec"`
	EventThroughput  benchStat `json:"event_throughput"`
	ScheduleDispatch benchStat `json:"schedule_dispatch"`
	ContextSwitch    benchStat `json:"context_switch"`
	QueueHandoff     benchStat `json:"queue_handoff"`
	SeedSweep        sweepStat `json:"seed_sweep"`
}

// timeRun measures one kernel run of n operations: build populates the
// kernel, then the whole Run is timed with the host clock and malloc counts
// from runtime.MemStats bracket it. This is a hand-rolled harness rather
// than testing.Benchmark because the latter takes the testing package's
// global benchmark lock and deadlocks when invoked from inside a running
// benchmark (BenchmarkKernelBaseline is itself a benchmark).
func timeRun(n int, build func(k *Kernel, n int)) benchStat {
	k := NewKernel()
	build(k, n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	k.Run()
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	return benchStat{
		NsPerOp:     float64(dur.Nanoseconds()) / float64(n),
		AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / int64(n),
	}
}

// sweepWorkload is one self-contained seeded run: a kernel, a few procs, a
// couple thousand events. Small enough that a sweep finishes in seconds,
// large enough that per-run kernel cost dominates the runner's overhead.
func sweepWorkload(seed uint64) uint64 {
	k := NewKernel()
	acc := seed
	for i := 0; i < 32; i++ {
		d := time.Duration(1+(seed+uint64(i))%97) * time.Microsecond
		k.Schedule(d, func() {})
	}
	k.Spawn("worker", func(p *Proc) {
		for i := 0; i < 2000; i++ {
			acc = acc*6364136223846793005 + 1442695040888963407
			p.Sleep(time.Duration(1+acc%251) * time.Microsecond)
		}
	})
	k.Run()
	return acc
}

// measureSweep times the same seed set serially and on GOMAXPROCS workers.
// On a single-core host the speedup is ~1.0 by construction; the number is
// recorded so multi-core runners show the scaling (the determinism half of
// the contract is pinned by TestParallelSweepMatchesSerial in
// internal/chaos, not here).
func measureSweep(seeds int) sweepStat {
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	serial := sweep.Seeds(seeds, 1, sweepWorkload)
	serialDur := time.Since(start)
	start = time.Now()
	parallel := sweep.Seeds(seeds, workers, sweepWorkload)
	parallelDur := time.Since(start)
	for i := range serial {
		if serial[i] != parallel[i] {
			panic(fmt.Sprintf("sweep baseline: seed %d diverged between serial and parallel runs", i))
		}
	}
	return sweepStat{
		Workers:    workers,
		Seeds:      seeds,
		SerialMs:   float64(serialDur.Microseconds()) / 1e3,
		ParallelMs: float64(parallelDur.Microseconds()) / 1e3,
		Speedup:    float64(serialDur) / float64(parallelDur),
	}
}

// The baseline's mirror of each benchmark body, parameterised on an
// explicit op count instead of b.N.

func runEventThroughput(n int) benchStat {
	return timeRun(n, func(k *Kernel, n int) {
		for i := 0; i < n; i++ {
			k.Schedule(time.Duration(i), func() {})
		}
	})
}

func runScheduleDispatch(n int) benchStat {
	return timeRun(n, func(k *Kernel, n int) {
		const population = 64
		left := n
		var tick func()
		tick = func() {
			left--
			if left >= population {
				k.Schedule(time.Microsecond, tick)
			}
		}
		for i := 0; i < population && i < n; i++ {
			k.Schedule(time.Duration(i), tick)
		}
	})
}

func runContextSwitch(n int) benchStat {
	return timeRun(n, func(k *Kernel, n int) {
		k.Spawn("switcher", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Yield()
			}
		})
	})
}

func runQueueHandoff(n int) benchStat {
	return timeRun(n, func(k *Kernel, n int) {
		q := NewQueue[int](k, 0)
		k.Spawn("prod", func(p *Proc) {
			for i := 0; i < n; i++ {
				q.Put(p, i)
			}
		})
		k.Spawn("cons", func(p *Proc) {
			for i := 0; i < n; i++ {
				q.Get(p)
			}
		})
	})
}

var baselineOnce sync.Once

// BenchmarkKernelBaseline measures the full hot-path suite and writes the
// snapshot to BENCH_KERNEL.json (or $BENCH_KERNEL_OUT). It is also a gate:
// it fails when any measured allocs_per_op is not 0. CI runs it as a
// smoke step via `go test -bench=Kernel -benchtime=100x ./internal/sim`
// and uploads the file as an artifact; the committed repo-root
// BENCH_KERNEL.json is the long-form baseline. The op counts are fixed —
// large enough to amortise startup, small enough that the whole snapshot
// takes a few seconds.
func BenchmarkKernelBaseline(b *testing.B) {
	baselineOnce.Do(func() {
		base := kernelBaseline{
			GoMaxProcs:       runtime.GOMAXPROCS(0),
			EventThroughput:  runEventThroughput(500_000),
			ScheduleDispatch: runScheduleDispatch(500_000),
			ContextSwitch:    runContextSwitch(200_000),
			QueueHandoff:     runQueueHandoff(300_000),
			SeedSweep:        measureSweep(64),
		}
		base.EventsPerSec = 1e9 / base.EventThroughput.NsPerOp
		out := os.Getenv("BENCH_KERNEL_OUT")
		if out == "" {
			out = "BENCH_KERNEL.json"
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			b.Fatalf("marshal baseline: %v", err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			b.Fatalf("write %s: %v", out, err)
		}
		b.Logf("kernel baseline written to %s: %s", out, data)
		// The hot-path contract is a gate, not just a figure: any steady-state
		// allocation fails the run (the snapshot above still records it).
		for _, g := range []struct {
			name string
			st   benchStat
		}{
			{"event_throughput", base.EventThroughput},
			{"schedule_dispatch", base.ScheduleDispatch},
			{"context_switch", base.ContextSwitch},
			{"queue_handoff", base.QueueHandoff},
		} {
			if g.st.AllocsPerOp != 0 {
				b.Errorf("%s: %d allocs/op, want 0 (DESIGN.md §7)", g.name, g.st.AllocsPerOp)
			}
		}
	})
}
