package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/harness"
	"pvmigrate/internal/sim"
)

// paperMigrate repeats the paper's migration experiments, serial and
// fault-free on the in-memory wire: MPVM cold and warm, ADM
// redistribution and the PVM baseline at the six Table 2 sizes, and UPVM
// at the Table 4 shape. The sim kernel, netsim, mpvm precopy and adm do
// almost all of its work and the opt numerics none, so kernel changes
// show here undiluted. A round runs every experiment once, in an order
// drawn from the seed; every round must reproduce the first round's
// virtual numbers exactly.
var paperMigrate = workload{
	name:      "paper-migrate",
	stepName:  "one experiment run",
	unitName:  "experiment runs",
	chunkName: "rounds (every experiment once)",
	tail:      90,
	setUp: func(_ *env, seed uint64) (func(), error) {
		paperRuns(seed)
		return func() {}, nil
	},
	run: runPaper,
}

// paperRun is one experiment of a round.
type paperRun struct {
	system  string // pvm, mpvm, mpvm_warm, adm or upvm
	size    int    // index into harness.Table2Sizes; -1 for the Table 4 run
	sc      harness.Scenario
	records int // migration records the run must produce
}

// migrateAt is the Table 2/6 migration instant: safely past the initial
// shard distribution, as harness.Table2 and harness.Table6 schedule it.
func migrateAt(total int) sim.Time {
	return sim.FromSeconds(3 + float64(total/2)/1.0e6)
}

// paperRuns is a round's experiments in the seed's order.
func paperRuns(seed uint64) []paperRun {
	var runs []paperRun
	for i, total := range harness.Table2Sizes {
		mig := harness.Scenario{TotalBytes: total, Iterations: 8, MigrateAt: migrateAt(total), MigrateTo: 0, Seed: seed}
		warm := mig
		warm.Warm = true
		runs = append(runs,
			paperRun{"pvm", i, harness.Scenario{TotalBytes: total, Iterations: 8, Seed: seed}, 0},
			paperRun{"mpvm", i, mig, 1},
			paperRun{"mpvm_warm", i, warm, 1},
			paperRun{"adm", i, harness.Scenario{TotalBytes: total, Iterations: 8, MigrateAt: migrateAt(total), Seed: seed}, 1},
		)
	}
	runs = append(runs, paperRun{"upvm", -1,
		harness.Scenario{TotalBytes: 600_000, Iterations: 6, MigrateAt: 2 * time.Second, MigrateTo: 0, Seed: seed}, 1})
	rng := sim.NewRNG(seed)
	for i := len(runs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		runs[i], runs[j] = runs[j], runs[i]
	}
	return runs
}

func (r paperRun) exec() *harness.Outcome {
	switch r.system {
	case "pvm":
		return harness.RunPVM(r.sc)
	case "adm":
		return harness.RunADM(r.sc)
	case "upvm":
		return harness.RunUPVM(r.sc)
	default:
		return harness.RunMPVM(r.sc)
	}
}

// outcomeFingerprint folds an outcome's virtual numbers.
func outcomeFingerprint(o *harness.Outcome) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d;%v;", o.Elapsed, o.Err)
	for _, r := range o.Records {
		fmt.Fprintf(h, "%+v;", r)
	}
	return h.Sum64()
}

func runPaper(_ *env, seed uint64, budget time.Duration, tr *tracer) (*result, error) {
	res := &result{rssAfter: 10}
	runs := paperRuns(seed)
	first := make([]uint64, len(runs))
	var recs [][]core.MigrationRecord
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		round0 := startMeter()
		for i, r := range runs {
			m := startMeter()
			tr.begin("harness.run_" + r.system)
			out := r.exec()
			tr.end()
			res.step(m)
			res.attempted++
			fp := outcomeFingerprint(out)
			res.fps = append(res.fps, fp)
			switch {
			case out.Err != nil:
				res.fail("%s size %d: %v", r.system, r.size, out.Err)
			case len(out.Records) != r.records:
				res.fail("%s size %d: %d migration records, want %d", r.system, r.size, len(out.Records), r.records)
			case r.system == "mpvm_warm" && out.Records[0].Mode != core.MigrationWarm:
				res.fail("mpvm_warm size %d: record mode %q", r.size, out.Records[0].Mode)
			case round > 0 && fp != first[i]:
				res.fail("%s size %d: round %d virtual numbers differ from round 0", r.system, r.size, round)
			}
			if round == 0 {
				first[i] = fp
				recs = append(recs, out.Records)
			}
			for _, rec := range out.Records {
				res.add("mpvm.migrations", boolf(r.system == "mpvm" || r.system == "mpvm_warm"))
				res.add("mpvm.warm_rounds", float64(rec.Rounds))
				res.add("mpvm.precopy_kb", float64(rec.PrecopyBytes)/1024)
				res.add("adm.moves", boolf(r.system == "adm"))
				res.add("upvm.ulp_moves", boolf(r.system == "upvm"))
			}
		}
		res.chunk(float64(len(runs)), round0)
	}
	res.report = append(res.report, figure{"runs_per_s", res.wallRate(), "1/s"})
	res.report = append(res.report, paperVirtual(runs, recs)...)
	if tr != nil {
		for _, sys := range []string{"pvm", "mpvm", "mpvm_warm", "adm", "upvm"} {
			s := tr.span("harness.run_" + sys)
			res.layer = append(res.layer,
				figure{"harness.run_" + sys + "_ms", median(s.samples) / 1000, "ms"},
				figure{"harness.run_" + sys + "_share_pct", pct(s.total.Seconds(), res.busy.Seconds()), "%"})
		}
	}
	return res, nil
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// paperVirtual derives the virtual-time measures from round 0's records:
// mean MPVM cold obtrusiveness, mean warm freeze downtime, and the mean
// absolute error against the paper's Table 2, 4 and 6 constants.
func paperVirtual(runs []paperRun, recs [][]core.MigrationRecord) []figure {
	var obtr, down, errs []float64
	relErr := func(got, paper float64) { errs = append(errs, math.Abs(got-paper)/paper*100) }
	for i, r := range runs {
		if len(recs[i]) != 1 {
			continue
		}
		rec := recs[i][0]
		switch r.system {
		case "mpvm":
			obtr = append(obtr, rec.Obtrusiveness().Seconds())
			relErr(rec.Obtrusiveness().Seconds(), harness.PaperTable2Obtr[r.size])
			relErr(rec.Cost().Seconds(), harness.PaperTable2Cost[r.size])
		case "mpvm_warm":
			down = append(down, float64(rec.Downtime())/float64(time.Millisecond))
		case "adm":
			relErr(rec.Cost().Seconds(), harness.PaperTable6Cost[r.size])
		case "upvm":
			// Table 4: UPVM obtrusiveness 1.67 s, migration cost 6.88 s.
			relErr(rec.Obtrusiveness().Seconds(), 1.67)
			relErr(rec.Cost().Seconds(), 6.88)
		}
	}
	return []figure{
		{"virt_obtr_s", mean(obtr), "s"},
		{"virt_downtime_ms", mean(down), "ms"},
		{"paper_err_pct", mean(errs), "%"},
	}
}
