package harness

import (
	"pvmigrate/internal/adm"
	"pvmigrate/internal/core"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
	"pvmigrate/internal/upvm"
)

// traceHook adapts a trace.Log to the migration systems' tracer interface.
func traceHook(k *sim.Kernel, log *trace.Log) func(actor, stage, detail string) {
	return func(actor, stage, detail string) {
		log.Record(k.Now(), actor, stage, detail)
	}
}

// TraceMPVMMigration runs an MPVM scenario with protocol tracing enabled
// and returns the stage timeline — the reproduction of the paper's
// Figure 1.
func TraceMPVMMigration(sc Scenario) (*trace.Log, *Outcome) {
	sc = sc.withDefaults()
	log := &trace.Log{}
	out := runMPVMWithSetup(sc, func(k *sim.Kernel, sys *mpvm.System) {
		sys.SetTracer(traceHook(k, log))
	})
	return log, out
}

// TraceUPVMMigration runs a UPVM scenario with protocol tracing enabled —
// the reproduction of the paper's Figure 3.
func TraceUPVMMigration(sc Scenario) (*trace.Log, *Outcome) {
	sc = sc.withDefaults()
	log := &trace.Log{}
	out := runUPVMWithSetup(sc, func(k *sim.Kernel, sys *upvm.System) {
		sys.SetTracer(traceHook(k, log))
	})
	return log, out
}

// Figure2Layout builds the SPMD_opt ULP address-space layout — the
// reproduction of the paper's Figure 2 (globally unique ULP regions).
func Figure2Layout(sc Scenario) (string, error) {
	sc = sc.withDefaults()
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, sc.Hosts, sc.Wire)
	m := pvm.NewMachine(cl, pvm.Config{})
	sys := upvm.New(m, upvm.Config{})
	p := sc.params()
	cost := p.Cost()
	perSlave := sc.TotalBytes / sc.Slaves
	specs := make([]upvm.ULPSpec, sc.Slaves+1)
	specs[0] = upvm.ULPSpec{Host: 0, DataBytes: cost.NetBytes() * 4, StackBytes: 64 << 10}
	for i := 1; i <= sc.Slaves; i++ {
		specs[i] = upvm.ULPSpec{Host: sc.slaveHost(i - 1), DataBytes: perSlave + cost.NetBytes(), StackBytes: 64 << 10}
	}
	ulps, err := sys.Start("opt", specs, func(u *upvm.ULP, rank int) {})
	if err != nil {
		return "", err
	}
	k.RunUntil(sim.FromSeconds(1))
	_ = ulps
	if err := sys.Space().Validate(); err != nil {
		return "", err
	}
	return sys.Space().Layout(), nil
}

// Figure4FSM returns the ADMopt state machine's transition table — the
// reproduction of the paper's Figure 4.
func Figure4FSM() string {
	f := adm.NewFSM("compute")
	f.On("compute", "net-received", "compute").
		On("compute", "migration-event", "redistribute").
		On("compute", "enter-redist", "redistribute").
		On("compute", "iteration-done", "reduce").
		On("compute", "done", "finished").
		On("reduce", "net-received", "compute").
		On("reduce", "enter-redist", "redistribute").
		On("reduce", "done", "finished").
		On("redistribute", "redistributed", "compute").
		On("redistribute", "withdrawn", "inactive").
		On("inactive", "done", "finished")
	return f.Table()
}

// runMPVMWithSetup is RunMPVM with a hook between system construction and
// execution.
func runMPVMWithSetup(sc Scenario, setup func(*sim.Kernel, *mpvm.System)) *Outcome {
	// Rebuild RunMPVM inline so the hook can attach before any spawns.
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, sc.Hosts, sc.Wire)
	m := pvm.NewMachine(cl, pvm.Config{DirectRoute: sc.Direct})
	sys := mpvm.New(m, mpvm.Config{})
	setup(k, sys)
	out := &Outcome{}

	slaveTIDs, mts, err := spawnMPVMSlaves(sc, sys, out)
	if err != nil {
		out.Err = err
		return out
	}
	mp := sc.params()
	_, err = sys.SpawnMigratable(0, "opt-master", 1<<20, func(mt *mpvm.MTask) {
		res, rerr := opt.RunMaster(mt.Task, slaveTIDs, mp)
		out.Result = res
		if rerr != nil && out.Err == nil {
			out.Err = rerr
		}
		out.Elapsed = mt.Proc().Now()
	})
	if err != nil {
		out.Err = err
		return out
	}
	if sc.MigrateAt > 0 {
		migrate := sys.Migrate
		if sc.Warm {
			migrate = sys.MigrateWarm
		}
		k.Schedule(sc.MigrateAt, func() {
			if merr := migrate(mts[sc.MigrateSlave].OrigTID(), sc.MigrateTo, "owner-reclaim"); merr != nil && out.Err == nil {
				out.Err = merr
			}
		})
	}
	k.Run()
	out.Records = sys.Records()
	return out
}

func runUPVMWithSetup(sc Scenario, setup func(*sim.Kernel, *upvm.System)) *Outcome {
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, sc.Hosts, sc.Wire)
	m := pvm.NewMachine(cl, pvm.Config{DirectRoute: sc.Direct})
	sys := upvm.New(m, upvm.Config{})
	setup(k, sys)
	out := &Outcome{}

	p := sc.params()
	cost := p.Cost()
	perSlave := sc.TotalBytes / sc.Slaves
	specs := make([]upvm.ULPSpec, sc.Slaves+1)
	specs[0] = upvm.ULPSpec{Host: 0, DataBytes: cost.NetBytes() * 4, StackBytes: 64 << 10}
	for i := 1; i <= sc.Slaves; i++ {
		specs[i] = upvm.ULPSpec{Host: sc.slaveHost(i - 1), DataBytes: perSlave + cost.NetBytes(), StackBytes: 64 << 10}
	}
	stids := make([]core.TID, sc.Slaves)
	for i := range stids {
		stids[i] = upvm.ULPTID(i + 1)
	}
	_, err := sys.Start("opt", specs, func(u *upvm.ULP, rank int) {
		if rank == 0 {
			res, rerr := opt.RunMaster(u, stids, p)
			out.Result = res
			if rerr != nil && out.Err == nil {
				out.Err = rerr
			}
			out.Elapsed = u.Proc().Now()
			return
		}
		if rerr := opt.RunSlave(u, upvm.ULPTID(0), p); rerr != nil && out.Err == nil {
			out.Err = rerr
		}
	})
	if err != nil {
		out.Err = err
		return out
	}
	if sc.MigrateAt > 0 {
		k.Schedule(sc.MigrateAt, func() {
			if merr := sys.Migrate(sc.MigrateSlave+1, sc.MigrateTo, "owner-reclaim"); merr != nil && out.Err == nil {
				out.Err = merr
			}
		})
	}
	k.Run()
	out.Records = sys.Records()
	return out
}
