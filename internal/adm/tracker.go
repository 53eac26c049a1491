package adm

import "fmt"

// Tracker is the per-iteration processed-exemplar flag array of ADMopt
// (paper §4.3.1): because exemplars reshuffle during redistribution, each
// slave tracks which exemplars it has already processed this iteration so
// none is processed twice — at the cost of "a conditional statement and an
// increment of an array value" in the inner loop, part of ADM's measured
// overhead.
//
// Exemplars are identified by stable, non-negative global ids. The flags
// are a dense array indexed by id holding the iteration (epoch) in which
// each exemplar was last processed: an exemplar is processed this
// iteration exactly when its stamp equals the current epoch, so Reset is
// one increment rather than a pass over the array.
type Tracker struct {
	stamp []uint32
	epoch uint32
	nDone int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{epoch: 1}
}

// MarkProcessed records that exemplar id was processed this iteration. It
// reports false if the exemplar had already been processed (the caller must
// skip it — processing twice is the bug the tracker exists to prevent).
func (t *Tracker) MarkProcessed(id int) bool {
	if id >= len(t.stamp) {
		t.grow(id)
	}
	if t.stamp[id] == t.epoch {
		return false
	}
	t.stamp[id] = t.epoch
	t.nDone++
	return true
}

// grow extends the array to cover id: an absorbed fragment can carry ids
// beyond any this slave has seen. Doubling keeps the copies amortised O(1).
func (t *Tracker) grow(id int) {
	n := 2 * len(t.stamp)
	if n <= id {
		n = id + 1
	}
	// lint:alloc growth to cover a newly absorbed id range; steady-state marks index in place
	stamp := make([]uint32, n)
	copy(stamp, t.stamp)
	t.stamp = stamp
}

// Processed reports whether exemplar id was processed this iteration.
func (t *Tracker) Processed(id int) bool {
	return id < len(t.stamp) && t.stamp[id] == t.epoch
}

// Done returns how many exemplars have been processed this iteration.
func (t *Tracker) Done() int { return t.nDone }

// Reset clears the flags at an iteration boundary by advancing the epoch;
// every older stamp then reads as unprocessed. Only when the epoch wraps
// are the stamps zeroed, so a stamp from 2³² iterations ago cannot alias.
func (t *Tracker) Reset() {
	t.epoch++
	if t.epoch == 0 {
		clear(t.stamp)
		t.epoch = 1
	}
	t.nDone = 0
}

// Shard is a contiguous set of exemplar ids held by one worker. Data moves
// between workers as Shard fragments.
type Shard struct {
	IDs []int
	// ProcessedFlags travel with the data so a receiving slave does not
	// reprocess exemplars the sender already handled this iteration.
	ProcessedFlags []bool
}

// NewShard builds a shard covering ids [lo, hi).
func NewShard(lo, hi int) *Shard {
	s := &Shard{IDs: make([]int, 0, hi-lo), ProcessedFlags: make([]bool, 0, hi-lo)}
	for id := lo; id < hi; id++ {
		s.IDs = append(s.IDs, id)
		s.ProcessedFlags = append(s.ProcessedFlags, false)
	}
	return s
}

// Len returns the number of exemplars in the shard.
func (s *Shard) Len() int { return len(s.IDs) }

// TakeFragment removes up to n exemplars from the shard (from the tail —
// order need not be preserved) and returns them as a new shard.
func (s *Shard) TakeFragment(n int) *Shard {
	if n > len(s.IDs) {
		n = len(s.IDs)
	}
	cut := len(s.IDs) - n
	frag := &Shard{
		IDs:            append([]int(nil), s.IDs[cut:]...),
		ProcessedFlags: append([]bool(nil), s.ProcessedFlags[cut:]...),
	}
	s.IDs = s.IDs[:cut]
	s.ProcessedFlags = s.ProcessedFlags[:cut]
	return frag
}

// Absorb merges a received fragment into the shard.
func (s *Shard) Absorb(frag *Shard) {
	s.IDs = append(s.IDs, frag.IDs...)
	s.ProcessedFlags = append(s.ProcessedFlags, frag.ProcessedFlags...)
}

// SyncFlags copies the tracker's per-iteration state into the shard's
// travel flags (call before shipping a fragment).
func (s *Shard) SyncFlags(t *Tracker) {
	for i, id := range s.IDs {
		s.ProcessedFlags[i] = t.Processed(id)
	}
}

// SeedTracker marks the shard's already-processed exemplars in a receiving
// tracker (call after absorbing a fragment).
func (s *Shard) SeedTracker(t *Tracker) {
	for i, id := range s.IDs {
		if s.ProcessedFlags[i] {
			t.MarkProcessed(id)
		}
	}
}

// CheckDisjoint verifies that the given shards partition exactly the ids
// [0, total): no exemplar lost, none duplicated. This is the ADM
// correctness invariant the property tests exercise.
func CheckDisjoint(total int, shards ...*Shard) error {
	seen := make([]bool, total)
	n := 0
	for si, s := range shards {
		for _, id := range s.IDs {
			if id < 0 || id >= total {
				return fmt.Errorf("adm: shard %d has out-of-range exemplar %d", si, id)
			}
			if seen[id] {
				return fmt.Errorf("adm: exemplar %d duplicated (shard %d)", id, si)
			}
			seen[id] = true
			n++
		}
	}
	if n != total {
		return fmt.Errorf("adm: %d of %d exemplars present", n, total)
	}
	return nil
}
