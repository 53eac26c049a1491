package harness

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// paperOutcomeGolden is the FNV-64a fold of the PVM baseline, MPVM cold and
// MPVM warm outcomes over Table2Sizes × seeds {1, 42}, plus the Table 4
// UPVM migration. It pins their exact virtual numbers — completion time,
// migration records and the master's losses — so a change to the sim
// kernel's proc hand-off or scheduling must leave them bit for bit
// unchanged. The paper-table tests only check bands around the paper.
const paperOutcomeGolden uint64 = 0x9d83af18308c43b0

func TestPaperOutcomeGolden(t *testing.T) {
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
		for _, total := range Table2Sizes {
			name := fmt.Sprintf("seed=%d size=%d", seed, total)
			fold("pvm "+name, RunPVM(Scenario{TotalBytes: total, Iterations: 8, Seed: seed}))
			mig := Scenario{TotalBytes: total, Iterations: 8, Seed: seed,
				MigrateAt: migrateAfterDistribution(total), MigrateTo: 0}
			fold("mpvm "+name, RunMPVM(mig))
			mig.Warm = true
			fold("mpvm-warm "+name, RunMPVM(mig))
		}
	}
	fold("upvm table4", RunUPVM(Scenario{TotalBytes: 600_000, Iterations: 6,
		MigrateAt: 2 * time.Second, MigrateTo: 0}))
	if got := h.Sum64(); got != paperOutcomeGolden {
		t.Fatalf("paper outcome fingerprint %#x, want %#x — a change moved the PVM/MPVM/UPVM virtual numbers", got, paperOutcomeGolden)
	}
}
