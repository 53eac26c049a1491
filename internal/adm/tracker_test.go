package adm

import (
	"math"
	"testing"
)

func TestTrackerEpochWraparound(t *testing.T) {
	tr := NewTracker()
	tr.epoch = math.MaxUint32
	for _, id := range []int{0, 3, 7} {
		tr.MarkProcessed(id)
	}
	// The next epoch would be 0, the value every never-marked stamp holds;
	// Reset must clear the array instead of letting old stamps alias.
	tr.Reset()
	if tr.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", tr.epoch)
	}
	for id := 0; id < 8; id++ {
		if tr.Processed(id) {
			t.Fatalf("exemplar %d marked before the wrap reads as processed after it", id)
		}
	}
	if !tr.MarkProcessed(3) || tr.MarkProcessed(3) || tr.Done() != 1 {
		t.Fatal("marking after the wrap does not behave like a fresh iteration")
	}
	tr.Reset()
	if tr.Processed(3) {
		t.Fatal("mark from the first post-wrap epoch survives the next reset")
	}
}

func TestTrackerGrowsForAbsorbedIDs(t *testing.T) {
	tr := NewTracker()
	// A slave's own shard [40, 50), then fragments absorbed out of order
	// with ids far beyond anything seen so far.
	for id := 40; id < 50; id++ {
		tr.MarkProcessed(id)
	}
	absorbed := []int{1000, 3, 513, 999, 0}
	for _, id := range absorbed {
		if tr.Processed(id) {
			t.Fatalf("unseen exemplar %d reads as processed", id)
		}
		if !tr.MarkProcessed(id) {
			t.Fatalf("first mark of absorbed exemplar %d rejected", id)
		}
	}
	for _, id := range append(absorbed, 40, 49) {
		if !tr.Processed(id) || tr.MarkProcessed(id) {
			t.Fatalf("exemplar %d lost its mark when the array grew", id)
		}
	}
	if tr.Done() != 10+len(absorbed) {
		t.Fatalf("Done = %d, want %d", tr.Done(), 10+len(absorbed))
	}
	for _, id := range []int{1, 50, 998, 1001, 1 << 20} {
		if tr.Processed(id) {
			t.Fatalf("never-marked exemplar %d reads as processed", id)
		}
	}
	tr.Reset()
	for _, id := range absorbed {
		if tr.Processed(id) {
			t.Fatalf("exemplar %d still processed after reset", id)
		}
	}
}

func TestTrackerSteadyStateZeroAlloc(t *testing.T) {
	const n = 4096
	tr := NewTracker()
	tr.MarkProcessed(n - 1) // warm-up: the array covers every id below
	allocs := testing.AllocsPerRun(20, func() {
		tr.Reset()
		for id := 0; id < n; id++ {
			if !tr.Processed(id) {
				tr.MarkProcessed(id)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state iteration allocates %.1f times, want 0", allocs)
	}
	if tr.Done() != n {
		t.Fatalf("Done = %d, want %d", tr.Done(), n)
	}
}
