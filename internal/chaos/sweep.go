package chaos

import (
	"fmt"

	"pvmigrate/internal/ft"
	"pvmigrate/internal/sweep"
)

// SeedReport condenses one audited schedule into the sweep's unit of
// result: the seed, its determinism fingerprint, and the joined checker
// verdict. It deliberately drops the Result's live handles (system,
// manager, log), and Sweep closes each run's kernel once audited, so a
// 200-seed sweep does not pin 200 finished simulations in memory;
// reproduce a violation with `-run TestSeed -seed N` instead.
type SeedReport struct {
	Scenario    string
	Seed        uint64
	Fingerprint Fingerprint
	// Violation is empty when every checker passed (including, for sampled
	// seeds, the determinism double-run); otherwise it carries the joined
	// checker errors.
	Violation string
	// Faults is the seed's installed fault plan, for failure reports.
	Faults []ft.Fault
}

// SweepOptions configures a seed sweep of one scenario. The zero value
// sweeps 200 seeds on GOMAXPROCS workers with no determinism double-runs.
type SweepOptions struct {
	// Seeds is the number of seeds to explore, 0..Seeds-1 (default 200).
	Seeds int
	// Workers bounds the host threads running seeds concurrently:
	// <= 0 means GOMAXPROCS, 1 forces the serial code path. Each seed is a
	// fully self-contained kernel, so Workers changes wall-clock only —
	// never a per-seed fingerprint or verdict (TestParallelSweepMatchesSerial
	// pins this).
	Workers int
	// DeterminismEvery, when > 0, re-runs every k-th seed and requires a
	// bit-identical fingerprint (the determinism invariant). The double-run
	// is sampled because it doubles a seed's cost while every seed's
	// fingerprint already covers its full schedule.
	DeterminismEvery int
	// Config builds the per-seed configuration (default: Config{Seed: seed}).
	Config func(seed uint64) Config
}

func (o SweepOptions) withDefaults() SweepOptions {
	if o.Seeds == 0 {
		o.Seeds = 200
	}
	if o.Config == nil {
		o.Config = func(seed uint64) Config { return Config{Seed: seed} }
	}
	return o
}

// Sweep explores scenario sc over seeds [0, o.Seeds), each seed fully
// audited by every checker, sharding the independent seeded runs across
// o.Workers host threads. This is the one code path behind the CI chaos
// smoke job, the full 200-seed sweep, and local deep sweeps — only the
// -seeds / -parallel knobs differ.
func Sweep(sc Scenario, o SweepOptions) []SeedReport {
	o = o.withDefaults()
	return sweep.Seeds(o.Seeds, o.Workers, func(seed uint64) SeedReport {
		cfg := o.Config(seed)
		res := Run(sc, cfg)
		defer res.Close()
		rep := SeedReport{
			Scenario:    sc.Name,
			Seed:        seed,
			Fingerprint: res.Fingerprint(),
			Faults:      res.Faults,
		}
		if err := CheckAll(res); err != nil {
			rep.Violation = err.Error()
			return rep
		}
		if o.DeterminismEvery > 0 && seed%uint64(o.DeterminismEvery) == 0 {
			second, err := CheckDeterminism(sc, cfg, res)
			second.Close()
			if err != nil {
				rep.Violation = err.Error()
			}
		}
		return rep
	})
}

// SweepAll sweeps every registered scenario with the same options and
// returns the reports keyed by scenario name, in Scenarios order.
func SweepAll(o SweepOptions) map[string][]SeedReport {
	out := make(map[string][]SeedReport, len(Scenarios))
	for _, sc := range Scenarios {
		out[sc.Name] = Sweep(sc, o)
	}
	return out
}

// Violations filters a sweep's reports down to the failing seeds.
func Violations(reports []SeedReport) []SeedReport {
	var bad []SeedReport
	for _, r := range reports {
		if r.Violation != "" {
			bad = append(bad, r)
		}
	}
	return bad
}

// ReproCommand renders the exact command that replays one report's
// schedule under the standard test harness.
func (r SeedReport) ReproCommand() string {
	return fmt.Sprintf("go test ./internal/chaos -run TestSeed -seed %d -scenario %s",
		r.Seed, r.Scenario)
}
