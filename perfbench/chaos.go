package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"pvmigrate/internal/chaos"
)

// chaosSweep is the traffic tier-1 and CI run: the chaos scenarios over
// consecutive seeds on one worker, in tier-1's configuration (real Opt
// numerics), each run audited by every checker and every 8th seed run
// twice for determinism. The opt layer does most of its work, the kernel
// the rest. Every checker violation counts as a failed seed; none is
// skipped. The sweep leaves out the scenarios in knownDefects.
var chaosSweep = workload{
	name:      "chaos-sweep",
	stepName:  "one scenario run plus its checker audit",
	unitName:  "seeds (every scenario not in knownDefects)",
	chunkName: "8 consecutive seeds (one determinism double-run each)",
	tail:      90,
	// Each chaos.Run builds its own cluster, so the sweep's set-up is
	// process start alone.
	setUp: func(*env, uint64) (func(), error) { return func() {}, nil },
	run:   runChaos,
}

// knownDefects are chaos scenarios the sweep leaves out, each with the
// program defect it fails on. A scenario that fails on some seeds makes
// most runs of the workload incorrect, so it cannot be timed; it returns
// to the sweep once the defect is fixed. Every run prints this list.
var knownDefects = map[string]string{
	// When the reclaimed source host crashes after the warm migration has
	// left it but before the restart broadcast reintegrates the new task
	// (between the record's OffSource and Reintegrated), no ft recovery
	// runs and the job never finishes. About 1% of seeds outside tier-1's
	// 0..199 hit that window.
	"crash-mid-precopy": "liveness: job not finished by deadline when the source crashes between off-source and reintegration; " +
		"go test ./internal/chaos -run TestSeed -seed 128665153600027 -scenario crash-mid-precopy",
}

// sweptScenarios are the scenarios the sweep runs, in chaos.Scenarios order.
func sweptScenarios() []chaos.Scenario {
	var out []chaos.Scenario
	for _, sc := range chaos.Scenarios {
		if _, bad := knownDefects[sc.Name]; !bad {
			out = append(out, sc)
		}
	}
	return out
}

// determinismEvery is tier-1's determinism double-run period.
const determinismEvery = 8

// chaosBase is the first chaos seed of a benchmark seed's sequence.
func chaosBase(seed uint64) uint64 { return seed * 100_000 }

// chaosConfig is tier-1's configuration for chaos seed s.
func chaosConfig(s uint64) chaos.Config { return chaos.Config{Seed: s, Real: true} }

func runChaos(_ *env, seed uint64, budget time.Duration, tr *tracer) (*result, error) {
	res := &result{rssAfter: 6}
	for _, name := range sortedKeys(knownDefects) {
		res.notes = append(res.notes, fmt.Sprintf("left out: chaos scenario %s, known defect: %s", name, knownDefects[name]))
	}
	scenarios := sweptScenarios()
	var jobSecs []float64
	start := time.Now()
	chunk := startMeter()
	for i := uint64(0); time.Since(start) < budget || i%determinismEvery != 0; i++ {
		s := chaosBase(seed) + i
		h := fnv.New64a()
		bad := ""
		cfg := chaosConfig(s)
		for _, sc := range scenarios {
			m := startMeter()
			tr.begin("chaos.run." + sc.Name)
			run := chaos.Run(sc, cfg)
			tr.end()
			tr.begin("chaos.check")
			err := chaos.CheckAll(run)
			tr.end()
			res.step(m)
			if err == nil && s%determinismEvery == 0 {
				tr.begin("chaos.determinism")
				_, err = chaos.CheckDeterminism(sc, cfg, run)
				tr.end()
			}
			if err != nil && bad == "" {
				bad = fmt.Sprintf("chaos seed %d scenario %s: %v", s, sc.Name, err)
			}
			fmt.Fprintf(h, "%+v;", run.Fingerprint())
			if run.Done {
				jobSecs = append(jobSecs, run.FinishedAt.Seconds())
			}
			chaosCounts(res, run)
		}
		res.attempted++
		if bad != "" {
			res.fail("%s", bad)
		}
		res.fps = append(res.fps, h.Sum64())
		if (i+1)%determinismEvery == 0 {
			res.chunk(determinismEvery, chunk)
			chunk = startMeter()
		}
	}
	res.report = append(res.report,
		figure{"seeds_per_s", res.wallRate(), "1/s"},
		figure{"virt_job_s", mean(jobSecs), "s"})
	if tr != nil {
		var runs []float64
		var runTotal time.Duration
		for _, sc := range scenarios {
			s := tr.span("chaos.run." + sc.Name)
			res.layer = append(res.layer, figure{"chaos." + sc.Name + ".run_ms", median(s.samples) / 1000, "ms"})
			runs = append(runs, s.samples...)
			runTotal += s.total
		}
		res.layer = append(res.layer,
			figure{"chaos.run_ms", median(runs) / 1000, "ms"},
			figure{"chaos.check_ms", median(tr.span("chaos.check").samples) / 1000, "ms"},
			figure{"chaos.determinism_ms", median(tr.span("chaos.determinism").samples) / 1000, "ms"},
			figure{"chaos.run_share_pct", pct(runTotal.Seconds(), res.busy.Seconds()), "%"})
	}
	return res, nil
}

// chaosCounts adds one audited run's layer counters.
func chaosCounts(res *result, run *chaos.Result) {
	recs := run.Sys.Records()
	res.add("mpvm.migrations", float64(len(recs)))
	for _, r := range recs {
		res.add("mpvm.warm_rounds", float64(r.Rounds))
		res.add("mpvm.precopy_kb", float64(r.PrecopyBytes)/1024)
	}
	res.add("ft.recoveries", float64(len(run.Mgr.Records())))
	res.add("upvm.ulp_moves", float64(run.ULPMoved))
	res.add("upvm.flush_aborts", float64(run.ULPAborts))
	res.add("adm.moves", float64(run.ADMMoves))
	res.add("gs.decisions", float64(len(run.Sched.Decisions())))
	res.add("trace.events", float64(run.Log.Len()))
	res.add("sim.events", float64(run.Sys.Machine().Kernel().EventsScheduled()))
}
