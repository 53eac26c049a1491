package main

import (
	"fmt"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/harness"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// fleetStorm is harness.RunFleet's shape at 1,000 hosts × 100,000 work
// units, 8 shards, least-loaded placement, hotspot skew and an
// owner-reclaim storm over one simulated hour, one fleet per input seed.
// gs.Fleet planning and actuation dominate it; it uses almost no procs,
// sockets or numerics. Rebalance moves and whole-host evacuations drive
// the scheduler two ways. The benchmark builds each fleet itself, exactly
// as RunFleet does, so it can time set-up, each poll-interval step and
// each actuation; the first fleet of every run is checked against
// harness.RunFleet.
var fleetStorm = workload{
	name:      "fleet-storm",
	stepName:  "one fleet run (build and one simulated hour)",
	unitName:  "scheduler decisions",
	chunkName: "fleet runs (one simulated hour each)",
	tail:      90,
	setUp: func(_ *env, seed uint64) (func(), error) {
		newFleetRun(fleetScenario(seed), nil)
		return func() {}, nil
	},
	run: runFleet,
}

// fleetScenario is input i of a benchmark seed's sequence of fleets.
func fleetScenario(s uint64) harness.FleetScenario {
	return harness.FleetScenario{Seed: s, Duration: time.Hour, Placement: "least-loaded"}.WithDefaults()
}

func fleetBase(seed uint64) uint64 { return seed * 100_000 }

// fleetRun is one fleet built the way harness.RunFleet builds it, with
// the target optionally wrapped for tracing.
type fleetRun struct {
	sc    harness.FleetScenario
	k     *sim.Kernel
	tgt   *gs.CountTarget
	fleet *gs.Fleet
}

func newFleetRun(sc harness.FleetScenario, tr *tracer) *fleetRun {
	tr.begin("setup.cluster")
	k := sim.NewKernel()
	specs := make([]cluster.HostSpec, sc.Hosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec(fmt.Sprintf("host%d", i+1))
	}
	cl := cluster.New(k, netsim.Params{}, specs...)
	tgt := gs.NewCountTarget(cl)
	tr.end()

	tr.begin("setup.seed")
	rng := sim.NewRNG(sc.Seed)
	hot := max(sc.Hosts/20, 1)
	for i := 0; i < sc.VPs; i++ {
		if i%5 == 0 {
			tgt.Seed(rng.Intn(hot), 1)
		} else {
			tgt.Seed(rng.Intn(sc.Hosts), 1)
		}
	}
	hosts := cl.Hosts()
	span := int64(sc.Duration)
	for i := 0; i < sc.Storms; i++ {
		at := sim.Time(1 + rng.Uint64()%uint64(span))
		h := rng.Intn(sc.Hosts)
		k.ScheduleAt(at, func() { hosts[h].SetOwnerActive(true) })
		k.ScheduleAt(at+sc.StormDwell, func() { hosts[h].SetOwnerActive(false) })
	}
	pol := gs.DefaultFleetPolicy()
	pol.Shards = sc.Shards
	pol.PollInterval = sc.PollInterval
	pol.LoadThreshold = sc.LoadThreshold
	pol.Source = gs.SourceWorkUnits
	pol.Placement = gs.PlacementByName(sc.Placement)
	pol.MovesPerTick = sc.MovesPerTick
	pol.Seed = sc.Seed
	var target gs.Target = tgt
	if tr != nil {
		target = wrapTarget(tgt, tr)
	}
	fleet := gs.NewFleet(cl, target, pol)
	fleet.Start()
	tr.end()
	return &fleetRun{sc: sc, k: k, tgt: tgt, fleet: fleet}
}

// fleetSummary is what one fleet run produced.
type fleetSummary struct {
	decisions, moves, evacuations, unitsMoved, moveErrors int
	fingerprint                                           uint64
	events                                                uint64
	total, maxLoad                                        int
}

// run runs the fleet to the end of its scenario one poll interval at a
// time, so the traced run can time each interval.
func (f *fleetRun) run(tr *tracer) fleetSummary {
	for t := f.sc.PollInterval; t <= f.sc.Duration; t += f.sc.PollInterval {
		tr.begin("gs.tick")
		f.k.RunUntil(t)
		tr.end()
	}
	f.k.RunUntil(f.sc.Duration)
	f.fleet.Stop()
	out := fleetSummary{
		fingerprint: gs.DecisionFingerprint(f.fleet.Decisions()),
		events:      f.k.EventsScheduled(),
		total:       f.tgt.Index().Total(),
	}
	for _, d := range f.fleet.Decisions() {
		out.decisions++
		switch {
		case d.Dest == -1:
			out.evacuations++
		case d.Err == nil:
			out.moves++
		default:
			out.moveErrors++
		}
		out.unitsMoved += d.Moved
	}
	for i := 0; i < f.sc.Hosts; i++ {
		out.maxLoad = max(out.maxLoad, f.tgt.HostLoad(i))
	}
	return out
}

func runFleet(_ *env, seed uint64, budget time.Duration, tr *tracer) (*result, error) {
	res := &result{rssAfter: 100}
	var maxLoads []float64
	for i := uint64(0); res.busy < budget; i++ {
		sc := fleetScenario(fleetBase(seed) + i)
		m := startMeter()
		sum := newFleetRun(sc, tr).run(tr)
		res.step(m)
		res.chunk(float64(sum.decisions), m)

		res.attempted++
		res.fps = append(res.fps, sum.fingerprint)
		maxLoads = append(maxLoads, float64(sum.maxLoad))
		if sum.total != sc.VPs {
			res.fail("fleet seed %d lost work units: %d != %d", sc.Seed, sum.total, sc.VPs)
		}
		if i == 0 {
			// The reference check runs outside the timed loop.
			ref := harness.RunFleet(sc)
			if ref.Fingerprint != sum.fingerprint || ref.Decisions != sum.decisions || ref.FinalMaxLoad != sum.maxLoad {
				res.fail("fleet seed %d: decision fingerprint %x (%d decisions) differs from harness.RunFleet's %x (%d)",
					sc.Seed, sum.fingerprint, sum.decisions, ref.Fingerprint, ref.Decisions)
			}
		}
		res.add("gs.decisions", float64(sum.decisions))
		res.add("gs.moves", float64(sum.moves))
		res.add("gs.evacuations", float64(sum.evacuations))
		res.add("gs.units_moved", float64(sum.unitsMoved))
		res.add("gs.move_errors", float64(sum.moveErrors))
		res.add("sim.events", float64(sum.events))
	}
	res.report = append(res.report,
		figure{"decisions_per_s", res.wallRate(), "1/s"},
		figure{"final_max_load", mean(maxLoads), "units"})
	if tr != nil {
		tick := tr.span("gs.tick")
		move := tr.span("gs.actuate.move")
		evac := tr.span("gs.actuate.evacuate")
		res.layer = append(res.layer,
			figure{"gs.tick_us", median(tick.samples), "us"},
			figure{"gs.tick_p99_us", percentile(tick.samples, 99), "us"},
			figure{"gs.actuate_move_us", median(move.samples), "us"},
			figure{"gs.actuate_evacuate_us", median(evac.samples), "us"},
			figure{"gs.tick_self_share_pct", pct(tick.self.Seconds(), res.busy.Seconds()), "%"},
			figure{"setup.cluster_ms", median(tr.span("setup.cluster").samples) / 1000, "ms"},
			figure{"setup.seed_ms", median(tr.span("setup.seed").samples) / 1000, "ms"})
	}
	return res, nil
}
