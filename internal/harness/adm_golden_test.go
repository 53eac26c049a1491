package harness

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// admOutcomeGolden is the FNV-64a fold of every ADM outcome below. It pins
// ADM's exact virtual numbers — completion time, withdrawal records and
// the master's losses — so an optimisation of the slave's bookkeeping (the
// processed-exemplar tracker, the chunk loop, the shard/data split) must
// leave them bit for bit unchanged. TestTable6_ADMMigrationSweep only
// checks a ±35% band around the paper.
const admOutcomeGolden uint64 = 0x816f55a655d2df5

func TestADMOutcomeGolden(t *testing.T) {
	h := fnv.New64a()
	fold := func(name string, out *Outcome) {
		if out.Err != nil {
			t.Fatalf("%s: %v", name, out.Err)
		}
		fmt.Fprintf(h, "%s;%d;%d;", name, out.Elapsed, len(out.Records))
		for _, r := range out.Records {
			fmt.Fprintf(h, "%+v;", r)
		}
		if res := out.Result; res != nil {
			fmt.Fprintf(h, "%d;%x;", res.Iterations, math.Float64bits(res.FinalLoss))
			for _, l := range res.Losses {
				fmt.Fprintf(h, "%x;", math.Float64bits(l))
			}
		}
	}
	for _, seed := range []uint64{1, 42} {
		for _, rebalance := range []bool{false, true} {
			for _, total := range Table2Sizes {
				sc := Scenario{TotalBytes: total, Iterations: 8, Seed: seed,
					MigrateAt: migrateAfterDistribution(total), ADMRebalance: rebalance}
				fold(fmt.Sprintf("seed=%d rebalance=%v size=%d", seed, rebalance, total), RunADM(sc))
			}
		}
	}
	// Real numerics: the withdrawn slave's exemplars and their processed
	// flags redistribute mid-iteration, so the losses exercise the data
	// split and the per-exemplar loss, not just the cost model.
	real := RunADM(Scenario{TotalBytes: 150_000, Iterations: 8, Real: true, Seed: 3,
		MigrateAt: 2 * time.Second})
	if len(real.Records) != 1 {
		t.Fatalf("real run: %d withdrawal records, want 1", len(real.Records))
	}
	fold("real", real)
	if got := h.Sum64(); got != admOutcomeGolden {
		t.Fatalf("ADM outcome fingerprint %#x, want %#x — a change moved ADM's virtual numbers", got, admOutcomeGolden)
	}
}
