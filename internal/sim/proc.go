//go:build go1.23

package sim

// The go1.23 build constraint above raises this file's language version
// past go.mod's go 1.22 (kept so the nested perfbench module builds
// without a go.mod rewrite): iter.Pull first shipped in Go 1.23.
import (
	"errors"
	"fmt"
	"iter"
	"sync"
)

type procState int

const (
	pBlocked procState = iota // waiting for a wake event
	pRunning                  // currently executing
	pDone                     // body returned
)

// Interrupted is the error returned by blocking primitives when the proc
// received an asynchronous interrupt (see Proc.Interrupt). The migration
// systems use interrupts to model Unix signals: a migration request can
// reach a VP at an arbitrary point of its execution.
type Interrupted struct {
	// Reason is the value passed to Interrupt, typically identifying the
	// signal source (e.g. a migration command).
	Reason any
}

func (e *Interrupted) Error() string { return fmt.Sprintf("sim: interrupted: %v", e.Reason) }

// IsInterrupted reports whether err is (or wraps) an *Interrupted error and
// returns it.
func IsInterrupted(err error) (*Interrupted, bool) {
	var ie *Interrupted
	if errors.As(err, &ie) {
		return ie, true
	}
	return nil, false
}

// Proc is a simulated thread of control. Its body runs on a runtime
// coroutine (a worker, below), and the kernel guarantees that at most one
// proc executes at a time, so proc code needs no locking when touching
// shared simulation state.
type Proc struct {
	k        *Kernel
	id       int
	name     string
	state    procState
	gen      uint64  // increments around every block; stale wakes are dropped
	w        *worker // bound at the first dispatch, released when the body ends
	body     func(*Proc)
	panicked any
	doneCond *Cond

	intrPending bool
	intrReason  any
	intrMasked  bool
}

// Spawn creates a proc named name executing body and schedules it to start
// at the current virtual time (after already queued events).
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	return k.SpawnAt(k.now, name, body)
}

// SpawnAt creates a proc that starts at the given absolute virtual time.
// Spawning on a closed kernel panics.
func (k *Kernel) SpawnAt(at Time, name string, body func(*Proc)) *Proc {
	if k.closed {
		panic(fmt.Sprintf("sim: Spawn of proc %q on a closed kernel", name))
	}
	k.nextPID++
	p := &Proc{
		k:     k,
		id:    k.nextPID,
		name:  name,
		state: pBlocked,
		body:  body,
	}
	p.doneCond = NewCond(k)
	k.procs = append(k.procs, p)
	k.scheduleWake(p, at, p.gen)
	return p
}

// reclaimed is the panic value block raises when Kernel.Close resumes a
// parked proc. It unwinds the body, running its deferred calls, and run
// recovers it.
type reclaimed struct{}

// run executes the body on the proc's worker, recording a panic for
// dispatch to re-raise on the kernel's side.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil && r != any(reclaimed{}) {
			p.panicked = r
		}
		p.state = pDone
	}()
	p.body(p)
}

// worker is a runtime coroutine (iter.Pull) that runs proc bodies, one at
// a time. resume, called by the kernel, runs the bound proc until it
// blocks or its body ends; yield, called by the proc, hands control back.
// Each switch goes straight from one goroutine to the other, bypassing the
// Go scheduler.
//
// A proc takes a worker at its first dispatch and hands it back when its
// body ends (returns, panics, or is unwound by Kernel.Close), so workers
// are reused across procs and kernels and a coroutine is never destroyed.
// That matters under the race detector, which keeps a finished
// coroutine's state for the life of the process: with one coroutine per
// proc, a -race chaos sweep grew by ~38 MB per seed.
type worker struct {
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	p      *Proc // the bound proc, set before its first resume
}

// idleWorkers is the process-wide pool of workers between procs. Kernels
// on different goroutines (parallel sweeps) share it, hence the lock;
// workers carry no simulation state, so which one a proc gets never
// changes a result. The pool holds at most as many workers as procs were
// ever bound at once.
var idleWorkers struct {
	sync.Mutex
	ws []*worker
}

// takeWorker binds an idle worker to p, starting a new one when none is
// idle.
func takeWorker(p *Proc) *worker {
	var w *worker
	idleWorkers.Lock()
	if n := len(idleWorkers.ws); n > 0 {
		w = idleWorkers.ws[n-1]
		idleWorkers.ws[n-1] = nil
		idleWorkers.ws = idleWorkers.ws[:n-1]
	}
	idleWorkers.Unlock()
	if w == nil {
		w = &worker{} // lint:alloc pool miss, once per concurrently bound proc
		// The coroutine never ends, so its stop function is not kept.
		w.resume, _ = iter.Pull(w.loop)
	}
	w.p = p
	return w
}

// release returns the worker to the idle pool once its proc's body ended.
func (w *worker) release() {
	w.p = nil
	idleWorkers.Lock()
	idleWorkers.ws = append(idleWorkers.ws, w)
	idleWorkers.Unlock()
}

// loop is the worker's coroutine body: run the bound proc's body, hand
// control back to the kernel, and wait to be bound and resumed again.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.p.run()
		yield(struct{}{})
	}
}

// Kernel returns the kernel this proc belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the proc's name, fixed at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the proc's unique id (1-based, in spawn order).
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the proc's body has returned.
func (p *Proc) Done() bool { return p.state == pDone }

// block suspends the proc until a wake event targeting the current
// generation fires. wake, when non-zero, is the timer wake belonging to
// this block; it is canceled if the proc is woken by something else (e.g. an
// interrupt) so it cannot fire late and corrupt a future block. Canceling
// the wake that actually fired is a no-op (its cancel cell was already
// recycled), so the unconditional Cancel below is safe.
func (p *Proc) block(wake Timer) error {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: blocking call on proc %q from outside its own context", p.name)) // lint:alloc panic path, a caller bug
	}
	if p.k.closing {
		panic(reclaimed{}) // Kernel.Close is unwinding this proc
	}
	if p.intrPending && !p.intrMasked {
		wake.Cancel()
		return p.takeInterrupt()
	}
	p.state = pBlocked
	p.w.yield(struct{}{})
	if p.k.closing {
		panic(reclaimed{}) // resumed by Kernel.Close: unwind the body
	}
	p.gen++ // any wake events targeting the old generation are now stale
	wake.Cancel()
	if p.intrPending && !p.intrMasked {
		return p.takeInterrupt()
	}
	return nil
}

func (p *Proc) takeInterrupt() error {
	reason := p.intrReason
	p.intrPending = false
	p.intrReason = nil
	return &Interrupted{Reason: reason} // lint:alloc one per delivered signal, off the steady wake path
}

// Sleep suspends the proc for d of virtual time. It returns nil when the
// full duration elapsed and *Interrupted when cut short by an interrupt.
func (p *Proc) Sleep(d Time) error {
	if d <= 0 {
		return p.Yield()
	}
	wake := p.k.scheduleWakeTimer(p, p.k.now+d, p.gen)
	return p.block(wake)
}

// SleepUntil suspends the proc until the absolute virtual time t.
func (p *Proc) SleepUntil(t Time) error {
	if t <= p.k.now {
		return p.Yield()
	}
	wake := p.k.scheduleWakeTimer(p, t, p.gen)
	return p.block(wake)
}

// Yield re-queues the proc at the current time, letting other ready procs
// and events run first. Like all blocking calls it is an interrupt point.
func (p *Proc) Yield() error {
	wake := p.k.scheduleWakeTimer(p, p.k.now, p.gen)
	return p.block(wake)
}

// Join blocks until other's body has returned.
func (p *Proc) Join(other *Proc) error {
	for !other.Done() {
		if err := other.doneCond.Wait(p); err != nil {
			return err
		}
	}
	return nil
}

// Interrupt delivers an asynchronous interrupt to p, modelling a Unix
// signal. If p is blocked it is woken immediately and its blocking call
// returns *Interrupted; if p is running (or the interrupt is masked), the
// interrupt stays pending and the next unmasked blocking call returns
// *Interrupted without blocking. Interrupting a finished proc is a no-op.
// Only a single interrupt is held pending; a second one overwrites the
// reason, matching Unix signal coalescing.
func (p *Proc) Interrupt(reason any) {
	if p.state == pDone {
		return
	}
	p.intrPending = true
	p.intrReason = reason
	if p.state == pBlocked && !p.intrMasked {
		p.k.scheduleWake(p, p.k.now, p.gen)
	}
}

// MaskInterrupts defers interrupt delivery until UnmaskInterrupts. The
// MPVM/UPVM run-time libraries use this to model their re-entrancy flag:
// a VP cannot be migrated while executing inside the message-passing
// library, so migration signals are held pending until the library call
// completes.
func (p *Proc) MaskInterrupts() { p.intrMasked = true }

// UnmaskInterrupts re-enables interrupt delivery. A pending interrupt is
// not delivered here; it surfaces at the next blocking call, matching the
// "check the flag on the way out of the library" implementation in MPVM.
func (p *Proc) UnmaskInterrupts() { p.intrMasked = false }

// InterruptsMasked reports whether interrupts are currently masked.
func (p *Proc) InterruptsMasked() bool { return p.intrMasked }

// InterruptPending reports whether an interrupt is waiting for delivery.
func (p *Proc) InterruptPending() bool { return p.intrPending }
