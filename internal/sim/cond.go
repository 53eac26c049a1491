package sim

// Cond is a condition variable for procs. Because the kernel runs at most
// one proc at a time there are no data races, but the usual discipline still
// applies: callers must re-check their predicate after Wait returns, since
// another proc may run between the Broadcast and the wake.
//
// The waiter list keeps its backing array: Signal advances a head index and
// the list resets to empty when drained, so a steady wait/signal stream
// allocates nothing.
type Cond struct {
	k       *Kernel
	waiters []condWaiter // waiters[head:] are queued, oldest first
	head    int
}

type condWaiter struct {
	p   *Proc
	gen uint64
}

// NewCond returns a condition variable bound to k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait suspends p until Signal or Broadcast wakes it (or an interrupt
// arrives). Use in a loop around the predicate.
func (c *Cond) Wait(p *Proc) error {
	if c.head > 0 && len(c.waiters) == cap(c.waiters) {
		// Full with a consumed prefix: slide the queue down instead of
		// growing the array.
		n := copy(c.waiters, c.waiters[c.head:])
		clear(c.waiters[n:])
		c.waiters = c.waiters[:n]
		c.head = 0
	}
	c.waiters = append(c.waiters, condWaiter{p: p, gen: p.gen})
	return p.block(Timer{})
}

// Signal wakes one waiting proc, if any. Waiters that were already woken by
// other means (interrupts) are skipped, so a Signal is never wasted on a
// stale entry.
func (c *Cond) Signal() {
	for c.head < len(c.waiters) {
		w := c.waiters[c.head]
		c.waiters[c.head] = condWaiter{} // release the proc reference
		c.head++
		if w.p.state == pBlocked && w.p.gen == w.gen {
			c.k.scheduleWake(w.p, c.k.now, w.gen)
			break
		}
	}
	if c.head == len(c.waiters) {
		c.reset()
	}
}

// Broadcast wakes all waiting procs.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters[c.head:] {
		if w.p.state == pBlocked && w.p.gen == w.gen {
			c.k.scheduleWake(w.p, c.k.now, w.gen)
		}
	}
	c.reset()
}

// reset empties the waiter list, keeping its backing array.
func (c *Cond) reset() {
	clear(c.waiters)
	c.waiters = c.waiters[:0]
	c.head = 0
}

// Len returns the number of queued waiter entries (including stale ones);
// intended for tests.
func (c *Cond) Len() int { return len(c.waiters) - c.head }
