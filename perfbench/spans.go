package main

import (
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the layers'
// public functions. Spans nest: a span that ends
// while another is open is that span's child, and the parent's self time
// is its duration minus its children's. The benchmark drives one logical
// thread of control at a time (one worker, one closed-loop client), so a
// single stack orders every span even when the HTTP client and the server
// handler run on different goroutines. A nil *tracer records nothing, so
// the untraced path calls the same code.
type tracer struct {
	mu    sync.Mutex
	stack []openSpan
	spans map[string]*spanStat
}

type openSpan struct {
	name  string
	start time.Time
	child time.Duration
}

// spanStat aggregates one span name. Durations are kept as samples (in
// microseconds) for percentiles, up to maxSamples per name; beyond that a
// deterministic reservoir keeps a uniform subset.
type spanStat struct {
	n       int
	total   time.Duration
	self    time.Duration
	samples []float64
	rng     uint64
}

const maxSamples = 1 << 17

func newTracer() *tracer {
	return &tracer{spans: map[string]*spanStat{}}
}

// begin opens a span; every begin is paired with an end on the same path.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stack = append(t.stack, openSpan{name: name, start: time.Now()})
	t.mu.Unlock()
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(top.start)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	t.stat(top.name).add(d, d-top.child)
	t.mu.Unlock()
}

func (t *tracer) stat(name string) *spanStat {
	s := t.spans[name]
	if s == nil {
		s = &spanStat{rng: 0x9e3779b97f4a7c15}
		t.spans[name] = s
	}
	return s
}

func (s *spanStat) add(d, self time.Duration) {
	s.n++
	s.total += d
	s.self += self
	us := float64(d) / float64(time.Microsecond)
	if len(s.samples) < maxSamples {
		s.samples = append(s.samples, us)
		return
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if i := s.rng % uint64(s.n); i < maxSamples {
		s.samples[i] = us
	}
}

// span returns the aggregate for name (zero when it never ran).
func (t *tracer) span(name string) spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.spans[name]; s != nil {
		return *s
	}
	return spanStat{}
}
