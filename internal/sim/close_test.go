package sim

import (
	"runtime"
	"testing"
	"time"

	"pvmigrate/internal/sweep"
)

// The coroutine hand-off and Kernel.Close: panics still reach Run with the
// proc's name, a finished run gives its parked procs' workers back, and the
// hot wake path stays allocation-free.

// panicMessage runs f and returns the value it panicked with (nil if none).
func panicMessage(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

func TestProcPanicMessage(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Second)
		panic("bad state")
	})
	got := panicMessage(func() { k.Run() })
	if want := `sim: proc "boom" panicked: bad state`; got != want {
		t.Fatalf("panic = %v, want %q", got, want)
	}
	k.Close() // a recovered kernel can still be reclaimed
}

// settledGoroutines polls runtime.NumGoroutine until it is at most want,
// giving exiting goroutines a few scheduler rounds to be counted out.
// Callers check the result with <=: a goroutine of an earlier test may
// still exit in between, never one of theirs.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// parkProcs runs a kernel whose n procs all end parked on a Cond that is
// never signaled; each counts its deferred call in *defers.
func parkProcs(t *testing.T, n int, defers *int) *Kernel {
	t.Helper()
	k := NewKernel()
	c := NewCond(k)
	for i := 0; i < n; i++ {
		k.Spawn("waiter", func(p *Proc) {
			defer func() { *defers++ }()
			for {
				c.Wait(p)
			}
		})
	}
	if blocked := k.Run(); blocked != n {
		t.Fatalf("blocked = %d, want %d", blocked, n)
	}
	return k
}

// TestCloseReclaimsParkedProcs: Close unwinds parked procs (their defers
// run, once) and returns their workers to the pool, so kernel after kernel
// of parked procs adds no goroutines.
func TestCloseReclaimsParkedProcs(t *testing.T) {
	const n = 50
	var defers int
	parkProcs(t, n, &defers).Close() // the pool now holds >= n idle workers
	base := runtime.NumGoroutine()
	for round := 1; round <= 3; round++ {
		k := parkProcs(t, n, &defers)
		k.Close()
		if defers != (round+1)*n {
			t.Fatalf("round %d: defers run = %d, want %d", round, defers, (round+1)*n)
		}
		if blocked := k.Blocked(); len(blocked) != 0 {
			t.Fatalf("procs still blocked after Close: %v", blocked)
		}
		k.Close() // idempotent
		if defers != (round+1)*n {
			t.Fatalf("second Close re-ran defers: %d", defers)
		}
	}
	if g := settledGoroutines(base); g > base {
		t.Fatalf("goroutines = %d after three closed kernels of %d parked procs, want baseline %d", g, n, base)
	}
}

func TestCloseNeverDispatchedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ran := 0
	for i := 0; i < 5; i++ {
		k.SpawnAt(time.Hour, "late", func(p *Proc) { ran++ })
	}
	k.Spawn("unstarted", func(p *Proc) { ran++ })
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("goroutines = %d before any dispatch, want baseline %d", g, base)
	}
	k.Close()
	if ran != 0 {
		t.Fatalf("%d never-dispatched bodies ran during Close", ran)
	}
	if blocked := k.Blocked(); len(blocked) != 0 {
		t.Fatalf("procs still blocked after Close: %v", blocked)
	}
}

// A parked proc's deferred calls run in its own context: they may block
// (the call returns at once, unwinding further), spawn procs (reclaimed in
// turn) and schedule events (dropped).
func TestCloseDeferredCalls(t *testing.T) {
	k := NewKernel()
	var trail []string
	k.Spawn("parked", func(p *Proc) {
		defer func() { trail = append(trail, "outer") }()
		defer func() {
			if k.Running() != p {
				t.Errorf("defer runs outside its proc's context")
			}
			k.Schedule(0, func() { trail = append(trail, "event") })
			k.Spawn("orphan", func(*Proc) { trail = append(trail, "orphan") })
			p.Sleep(time.Second) // unwinds at once
			trail = append(trail, "after-sleep")
		}()
		p.Sleep(time.Hour)
	})
	k.RunUntil(time.Minute)
	k.Close()
	if len(trail) != 1 || trail[0] != "outer" {
		t.Fatalf("trail = %v, want [outer]", trail)
	}
	if len(k.events) != 0 {
		t.Fatalf("%d events left queued after Close", len(k.events))
	}
}

func TestCloseDuringRunPanics(t *testing.T) {
	const want = "sim: Close called during Run"
	k := NewKernel()
	k.Schedule(time.Second, func() { k.Close() })
	if got := panicMessage(func() { k.Run() }); got != want {
		t.Fatalf("Close from an event: panic = %v, want %q", got, want)
	}
	k.Close()

	k = NewKernel()
	k.Spawn("closer", func(p *Proc) { k.Close() })
	if got, want := panicMessage(func() { k.Run() }), `sim: proc "closer" panicked: `+want; got != want {
		t.Fatalf("Close from a proc: panic = %v, want %q", got, want)
	}
	k.Close()
}

func TestClosedKernelPanics(t *testing.T) {
	k := NewKernel()
	k.Close()
	for name, f := range map[string]func(){
		"Run":      func() { k.Run() },
		"RunUntil": func() { k.RunUntil(time.Second) },
		"Spawn":    func() { k.Spawn("late", func(*Proc) {}) },
	} {
		if panicMessage(f) == nil {
			t.Errorf("%s on a closed kernel did not panic", name)
		}
	}
}

// TestYieldSleepZeroAlloc pins the hot wake path: a Yield then a Sleep —
// two coroutine round trips through the event heap — allocates nothing.
func TestYieldSleepZeroAlloc(t *testing.T) {
	k := NewKernel()
	k.Spawn("cycler", func(p *Proc) {
		for {
			p.Yield()
			p.Sleep(time.Microsecond)
		}
	})
	k.RunUntil(100 * time.Microsecond) // warm the heap and cell pool
	allocs := testing.AllocsPerRun(1000, func() { k.RunUntil(k.Now() + time.Microsecond) })
	k.Close()
	if allocs != 0 {
		t.Fatalf("Yield/Sleep cycle: %v allocs/op, want 0", allocs)
	}
}

// TestCondSteadyStateZeroAlloc: once the waiter array has grown, a steady
// wait/signal stream reuses it — no bytes allocated at all. The best of
// three windows is taken, so a stray allocation by another goroutine of the
// test binary cannot fail it; a regrowing array allocates in every window.
func TestCondSteadyStateZeroAlloc(t *testing.T) {
	const warm, rounds, windows = 64, 4096, 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := NewKernel()
	c := NewCond(k)
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Proc) {
			for {
				c.Wait(p)
			}
		})
	}
	best := ^uint64(0)
	k.Spawn("signaler", func(p *Proc) {
		var before, after runtime.MemStats
		cycle := func(n int) {
			for i := 0; i < n; i++ {
				c.Signal()
				p.Yield()
			}
		}
		cycle(warm)
		for w := 0; w < windows; w++ {
			runtime.ReadMemStats(&before)
			cycle(rounds)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
	})
	k.Run()
	k.Close()
	if best != 0 {
		t.Fatalf("steady-state wait/signal allocated %d bytes over %d rounds", best, rounds)
	}
}

// TestCondWakeOrder: Signal wakes waiters oldest first, across the array
// reuse paths (drained reset, slide-down of a consumed prefix).
func TestCondWakeOrder(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	var got []int
	spawnWaiter := func(id int) {
		k.Spawn("w", func(p *Proc) {
			if c.Wait(p) == nil {
				got = append(got, id)
			}
		})
	}
	next := 0
	k.Spawn("driver", func(p *Proc) {
		for round := 0; round < 6; round++ {
			for i := 0; i < 3+round; i++ {
				spawnWaiter(next)
				next++
			}
			p.Yield() // the new waiters queue up
			for i := 0; i < 2; i++ {
				c.Signal()
				p.Yield()
			}
		}
		for c.Len() > 0 {
			c.Signal()
			p.Yield()
		}
	})
	if blocked := k.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	if len(got) != next {
		t.Fatalf("woke %d of %d waiters", len(got), next)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("wake order %v, want 0..%d in order", got, next-1)
		}
	}
}

// poolWorkload is one seeded run that leaves a proc parked and closes its
// kernel: four producers feed a bounded queue, one consumer folds what it
// gets and ends blocked on the empty queue.
func poolWorkload(seed uint64) uint64 {
	k := NewKernel()
	defer k.Close()
	k.SetTieBreakSeed(seed)
	q := NewQueue[uint64](k, 2)
	for i := uint64(1); i <= 4; i++ {
		k.Spawn("producer", func(p *Proc) {
			for j := uint64(0); j < 50; j++ {
				q.Put(p, i*1000+j)
			}
		})
	}
	var acc uint64
	k.Spawn("consumer", func(p *Proc) {
		for {
			v, err := q.Get(p)
			if err != nil {
				return
			}
			acc = acc*31 + v
			p.Sleep(time.Microsecond)
		}
	})
	k.Run()
	return acc
}

// TestWorkerPoolParallelKernels: kernels running on several goroutines at
// once share the worker pool, and every seed still computes exactly what
// it computes alone.
func TestWorkerPoolParallelKernels(t *testing.T) {
	const seeds = 64
	serial := sweep.Seeds(seeds, 1, poolWorkload)
	parallel := sweep.Seeds(seeds, 4, poolWorkload)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("seed %d: %#x on 4 workers, %#x serially", i, parallel[i], serial[i])
		}
	}
}
