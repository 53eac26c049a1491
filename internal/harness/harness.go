// Package harness wires complete experiment scenarios: a simulated
// two-host (or larger) workstation network running parallel Opt under plain
// PVM, MPVM, UPVM or ADM, with optional mid-run migrations. The benchmark
// suite, the cmd tools and the integration tests all drive experiments
// through this package, so every table and figure is regenerated from the
// same code paths.
//
// Every entry point closes its kernel (sim.Kernel.Close) on return, once its
// outcome is complete: procs still parked when a run ends — daemons,
// skeletons, servers waiting on requests that never come — are reclaimed
// instead of pinning the whole simulation in memory.
package harness

import (
	"fmt"
	"time"

	"pvmigrate/internal/adm"
	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/plan"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/sweep"
	"pvmigrate/internal/upvm"
)

// parallelism bounds the host workers sharding a table's independent runs;
// 0 means GOMAXPROCS, 1 forces the serial path. Every run owns a private
// kernel and cluster, so the setting changes wall-clock only — never a
// result (the same contract TestParallelSweepMatchesSerial pins for the
// chaos sweep).
var parallelism int

// SetParallel sets the worker bound for subsequent table regenerations
// (cmd/migrate-bench -parallel N).
func SetParallel(n int) { parallelism = n }

// parRuns executes independent experiment runs across the configured
// workers and returns the outcomes in argument order.
func parRuns(fns ...func() *Outcome) []*Outcome {
	return sweep.Map(len(fns), parallelism, func(i int) *Outcome { return fns[i]() })
}

// Scenario describes one Opt experiment. The default topology is the
// paper's: two HP 9000/720 workstations on 10 Mb/s Ethernet, a master VP
// and one slave VP per machine, data split evenly between the slaves
// (master co-located with slave 0, their execution mutually exclusive in
// time, §4.0).
type Scenario struct {
	// Hosts is the workstation count (default 2).
	Hosts int
	// Slaves is the slave VP count (default Hosts, one per machine).
	Slaves int
	// TotalBytes is the training-set size.
	TotalBytes int
	// Iterations is the predetermined iteration count.
	Iterations int
	// Seed drives all randomness.
	Seed uint64
	// Real carries actual exemplar data and runs the real numerics (keep
	// sets small).
	Real bool
	// MigrateAt, when non-zero, triggers a migration (or ADM withdrawal)
	// of slave MigrateSlave at that virtual time.
	MigrateAt sim.Time
	// MigrateSlave is the slave index to move (default: the last slave).
	MigrateSlave int
	// MigrateTo is the destination host (default 0).
	MigrateTo int
	// Warm selects iterative-precopy (warm) migration for the MigrateAt
	// event on MPVM runs; cold stop-and-copy otherwise. Other systems
	// ignore it (UPVM and ADM have no precopy protocol).
	Warm bool
	// Direct selects task-to-task TCP routing for data messages.
	Direct bool
	// ADMChunk overrides ADMopt's inner-loop chunk size (exemplars between
	// migration-event flag checks); 0 keeps the default.
	ADMChunk int
	// SlaveHosts, when non-nil, places slave i on SlaveHosts[i] instead of
	// round robin (granularity experiments).
	SlaveHosts []int
	// BackgroundLoad adds the given number of competing compute jobs per
	// host before the application starts.
	BackgroundLoad map[int]int
	// UPVM overrides the UPVM cost model (ablations); nil keeps defaults.
	UPVM *upvm.Config
	// CrossTraffic, when in (0,1), injects background Ethernet load at that
	// fraction of link capacity.
	CrossTraffic float64
	// ADMRebalance turns the MigrateAt signal into a "rebalance" event for
	// ADM runs (power-weighted repartition) instead of a withdrawal.
	ADMRebalance bool
	// Wire, when non-nil, installs a real-socket transport backend
	// (internal/netwire): every cross-host payload round-trips through
	// marshal → socket → unmarshal while timing stays the simulated cost
	// model's, so outcomes are identical to the in-memory backend. The
	// caller owns the backend's lifetime (netwire.Backend.Shutdown).
	Wire netsim.Wire
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Hosts == 0 {
		sc.Hosts = 2
	}
	if sc.Slaves == 0 {
		sc.Slaves = sc.Hosts
	}
	if sc.TotalBytes == 0 {
		sc.TotalBytes = 600_000
	}
	if sc.Iterations == 0 {
		sc.Iterations = 4
	}
	if sc.MigrateAt != 0 && sc.MigrateSlave == 0 {
		sc.MigrateSlave = sc.Slaves - 1
	}
	return sc
}

func (sc Scenario) params() opt.Params {
	return opt.Params{
		TotalBytes: sc.TotalBytes,
		Iterations: sc.Iterations,
		Seed:       sc.Seed,
		Real:       sc.Real,
	}
}

// slaveHost places slave i: explicit placement when SlaveHosts is set,
// otherwise one slave per machine round robin; the master shares host 0.
func (sc Scenario) slaveHost(i int) int {
	if sc.SlaveHosts != nil {
		return sc.SlaveHosts[i]
	}
	return i % sc.Hosts
}

// masterTID predicts the master's tid: it is spawned on host 0 after that
// host's slaves, so its local id is one past them.
func (sc Scenario) masterTID() core.TID {
	onHost0 := 0
	for i := 0; i < sc.Slaves; i++ {
		if sc.slaveHost(i) == 0 {
			onHost0++
		}
	}
	return core.MakeTID(0, onHost0+1)
}

// Outcome is what an experiment produced.
type Outcome struct {
	// Elapsed is the master's completion time (the paper's application
	// runtime measure).
	Elapsed sim.Time
	// Result is the master's training summary.
	Result *opt.Result
	// Records holds migration measurements (MPVM/UPVM/ADM).
	Records []core.MigrationRecord
	// Err is the first application error.
	Err error
}

func buildCluster(k *sim.Kernel, hosts int, wire netsim.Wire) *cluster.Cluster {
	specs := make([]cluster.HostSpec, hosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec(fmt.Sprintf("host%d", i+1))
	}
	return cluster.New(k, netsim.Params{Wire: wire}, specs...)
}

// stopIfOpenEnded halts the kernel when the scenario contains perpetual
// background activity (cross traffic) that would otherwise keep the event
// loop alive forever after the application finishes.
func (sc Scenario) stopIfOpenEnded(k *sim.Kernel) {
	if sc.CrossTraffic > 0 {
		k.Stop()
	}
}

// applyBackgroundLoad installs the scenario's competing jobs and network
// cross traffic.
func (sc Scenario) applyBackgroundLoad(cl *cluster.Cluster) {
	for host, n := range sc.BackgroundLoad {
		if h := cl.Host(netsim.HostID(host)); h != nil {
			cluster.NewBackgroundLoad(h).Set(n)
		}
	}
	if sc.CrossTraffic > 0 {
		netsim.StartCrossTraffic(cl.Network(), 4242, sc.CrossTraffic)
	}
}

// RunPVM executes the scenario on plain PVM (no migration support; any
// MigrateAt is ignored). This is the paper's baseline column.
func RunPVM(sc Scenario) *Outcome {
	sc = sc.withDefaults()
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, sc.Hosts, sc.Wire)
	sc.applyBackgroundLoad(cl)
	m := pvm.NewMachine(cl, pvm.Config{DirectRoute: sc.Direct})
	out := &Outcome{}

	slaves := make([]*pvm.Task, sc.Slaves)
	tids := make([]core.TID, sc.Slaves)
	p := sc.params()
	for i := range slaves {
		i := i
		t, err := m.Spawn(sc.slaveHost(i), fmt.Sprintf("opt-slave%d", i), func(t *pvm.Task) {
			if err := opt.RunSlave(t, sc.masterTID(), p); err != nil && out.Err == nil {
				out.Err = err
			}
		})
		if err != nil {
			out.Err = err
			return out
		}
		slaves[i] = t
		tids[i] = t.Mytid()
	}
	_, err := m.Spawn(0, "opt-master", func(t *pvm.Task) {
		res, err := opt.RunMaster(t, tids, p)
		out.Result = res
		if err != nil && out.Err == nil {
			out.Err = err
		}
		out.Elapsed = t.Proc().Now()
		sc.stopIfOpenEnded(k)
	})
	if err != nil {
		out.Err = err
		return out
	}
	k.Run()
	return out
}

// runPVMWithParams is RunPVM with explicit opt parameters (tests use it to
// exercise optional protocol features like the distributed line search).
func runPVMWithParams(sc Scenario, p opt.Params) *Outcome {
	sc = sc.withDefaults()
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, sc.Hosts, sc.Wire)
	sc.applyBackgroundLoad(cl)
	m := pvm.NewMachine(cl, pvm.Config{DirectRoute: sc.Direct})
	out := &Outcome{}
	tids := make([]core.TID, sc.Slaves)
	for i := 0; i < sc.Slaves; i++ {
		pp := p
		t, err := m.Spawn(sc.slaveHost(i), fmt.Sprintf("opt-slave%d", i), func(t *pvm.Task) {
			if err := opt.RunSlave(t, sc.masterTID(), pp); err != nil && out.Err == nil {
				out.Err = err
			}
		})
		if err != nil {
			out.Err = err
			return out
		}
		tids[i] = t.Mytid()
	}
	_, err := m.Spawn(0, "opt-master", func(t *pvm.Task) {
		res, err := opt.RunMaster(t, tids, p)
		out.Result = res
		if err != nil && out.Err == nil {
			out.Err = err
		}
		out.Elapsed = t.Proc().Now()
		sc.stopIfOpenEnded(k)
	})
	if err != nil {
		out.Err = err
		return out
	}
	k.Run()
	return out
}

// RunMPVM executes the scenario on MPVM, optionally migrating a slave
// mid-run. The returned records carry the obtrusiveness and migration-cost
// measurements of Table 2.
func RunMPVM(sc Scenario) *Outcome {
	sc = sc.withDefaults()
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, sc.Hosts, sc.Wire)
	sc.applyBackgroundLoad(cl)
	m := pvm.NewMachine(cl, pvm.Config{DirectRoute: sc.Direct})
	sys := mpvm.New(m, mpvm.Config{})
	out := &Outcome{}

	tids, mts, err := spawnMPVMSlaves(sc, sys, out)
	if err != nil {
		out.Err = err
		return out
	}
	mp := sc.params()
	// The master links the MPVM library too (every task of an MPVM
	// application does): it needs the tid-remapping hooks to keep talking
	// to migrated slaves.
	_, err = sys.SpawnMigratable(0, "opt-master", 1<<20, func(mt *mpvm.MTask) {
		res, err := opt.RunMaster(mt.Task, tids, mp)
		out.Result = res
		if err != nil && out.Err == nil {
			out.Err = err
		}
		out.Elapsed = mt.Proc().Now()
		sc.stopIfOpenEnded(k)
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
			if err := migrate(mts[sc.MigrateSlave].OrigTID(), sc.MigrateTo, core.ReasonOwnerReclaim); err != nil && out.Err == nil {
				out.Err = err
			}
		})
	}
	k.Run()
	out.Records = sys.Records()
	return out
}

// RunMPVMPlan executes the scenario on MPVM and, at MigrateAt, launches a
// declarative evacuation plan of evacHost — every VP the host runs,
// destinations picked by the least-loaded placement — instead of a single
// commanded migration. It returns the outcome and the settled plan result
// (nil when the run finished before the plan settled).
func RunMPVMPlan(sc Scenario, evacHost int, mode plan.Mode, concurrency int) (*Outcome, *plan.Result) {
	sc = sc.withDefaults()
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, sc.Hosts, sc.Wire)
	sc.applyBackgroundLoad(cl)
	m := pvm.NewMachine(cl, pvm.Config{DirectRoute: sc.Direct})
	sys := mpvm.New(m, mpvm.Config{})
	out := &Outcome{}

	tids, _, err := spawnMPVMSlaves(sc, sys, out)
	if err != nil {
		out.Err = err
		return out, nil
	}
	mp := sc.params()
	_, err = sys.SpawnMigratable(0, "opt-master", 1<<20, func(mt *mpvm.MTask) {
		res, err := opt.RunMaster(mt.Task, tids, mp)
		out.Result = res
		if err != nil && out.Err == nil {
			out.Err = err
		}
		out.Elapsed = mt.Proc().Now()
		sc.stopIfOpenEnded(k)
	})
	if err != nil {
		out.Err = err
		return out, nil
	}
	var res *plan.Result
	if sc.MigrateAt > 0 {
		ex := plan.NewExecutor(sys, sc.Seed)
		k.Schedule(sc.MigrateAt, func() {
			err := ex.Start(plan.Spec{
				Name: fmt.Sprintf("evac-host%d", evacHost),
				Groups: []plan.Group{{
					Name: "evacuate", FromHost: evacHost, Mode: mode,
					Dest: plan.UnplacedDest, Placement: "least-loaded",
					Concurrency: concurrency,
				}},
			}, func(r plan.Result) { res = &r })
			if err != nil && out.Err == nil {
				out.Err = err
			}
		})
	}
	k.Run()
	out.Records = sys.Records()
	return out, res
}

// RunUPVM executes the SPMD scenario on UPVM: ULP 0 is the master
// (co-located with slave ULP 1 on host 0), the remaining ULPs are slaves.
func RunUPVM(sc Scenario) *Outcome {
	sc = sc.withDefaults()
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, sc.Hosts, sc.Wire)
	sc.applyBackgroundLoad(cl)
	m := pvm.NewMachine(cl, pvm.Config{DirectRoute: sc.Direct})
	ucfg := upvm.Config{}
	if sc.UPVM != nil {
		ucfg = *sc.UPVM
	}
	sys := upvm.New(m, ucfg)
	out := &Outcome{}

	p := sc.params()
	cost := p.Cost()
	perSlave := sc.TotalBytes / sc.Slaves
	specs := make([]upvm.ULPSpec, sc.Slaves+1)
	specs[0] = upvm.ULPSpec{Host: 0, DataBytes: cost.NetBytes() * 4, StackBytes: 64 << 10}
	for i := 1; i <= sc.Slaves; i++ {
		specs[i] = upvm.ULPSpec{
			Host:       sc.slaveHost(i - 1),
			DataBytes:  perSlave + cost.NetBytes(),
			StackBytes: 64 << 10,
		}
	}
	slaveTIDs := make([]core.TID, sc.Slaves)
	for i := range slaveTIDs {
		slaveTIDs[i] = upvm.ULPTID(i + 1)
	}
	_, err := sys.Start("opt", specs, func(u *upvm.ULP, rank int) {
		if rank == 0 {
			res, err := opt.RunMaster(u, slaveTIDs, p)
			out.Result = res
			if err != nil && out.Err == nil {
				out.Err = err
			}
			out.Elapsed = u.Proc().Now()
			sc.stopIfOpenEnded(k)
			return
		}
		if err := opt.RunSlave(u, upvm.ULPTID(0), p); err != nil && out.Err == nil {
			out.Err = err
		}
	})
	if err != nil {
		out.Err = err
		return out
	}
	if sc.MigrateAt > 0 {
		k.Schedule(sc.MigrateAt, func() {
			if err := sys.Migrate(sc.MigrateSlave+1, sc.MigrateTo, core.ReasonOwnerReclaim); err != nil && out.Err == nil {
				out.Err = err
			}
		})
	}
	k.Run()
	out.Records = sys.Records()
	return out
}

// RunADM executes the scenario as ADMopt: the same master/slave placement,
// but migration events trigger data redistribution instead of VP movement.
func RunADM(sc Scenario) *Outcome {
	sc = sc.withDefaults()
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, sc.Hosts, sc.Wire)
	sc.applyBackgroundLoad(cl)
	m := pvm.NewMachine(cl, pvm.Config{DirectRoute: sc.Direct})
	out := &Outcome{}

	stats := &opt.ADMStats{}
	ap := opt.ADMParams{Params: sc.params(), Stats: stats, ChunkExemplars: sc.ADMChunk}
	masterTID := sc.masterTID()

	slaveTasks := make([]*pvm.Task, sc.Slaves)
	tids := make([]core.TID, sc.Slaves)
	queues := make([]*adm.EventQueue, sc.Slaves)
	for i := 0; i < sc.Slaves; i++ {
		i := i
		t, err := m.Spawn(sc.slaveHost(i), fmt.Sprintf("admopt-slave%d", i), func(t *pvm.Task) {
			queues[i] = adm.Attach(t)
			if err := opt.RunADMSlave(t, masterTID, i, tids, queues[i], ap); err != nil && out.Err == nil {
				out.Err = err
			}
		})
		if err != nil {
			out.Err = err
			return out
		}
		slaveTasks[i] = t
		tids[i] = t.Mytid()
	}
	_, err := m.Spawn(0, "admopt-master", func(t *pvm.Task) {
		res, err := opt.RunADMMaster(t, tids, ap)
		out.Result = res
		if err != nil && out.Err == nil {
			out.Err = err
		}
		out.Elapsed = t.Proc().Now()
		sc.stopIfOpenEnded(k)
	})
	if err != nil {
		out.Err = err
		return out
	}
	if sc.MigrateAt > 0 {
		kind := "withdraw"
		reason := core.ReasonOwnerReclaim
		if sc.ADMRebalance {
			kind, reason = "rebalance", core.ReasonHighLoad
		}
		k.Schedule(sc.MigrateAt, func() {
			adm.Signal(slaveTasks[sc.MigrateSlave], adm.Event{Kind: kind, Reason: reason})
		})
	}
	k.Run()
	out.Records = stats.Records
	return out
}

// RawTCP measures a bulk TCP transfer of n bytes between two idle hosts —
// Table 2's lower-bound column.
func RawTCP(bytes int) sim.Time {
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, 2, nil)
	l, err := cl.Host(1).Iface().Listen(9000)
	if err != nil {
		return 0
	}
	var done sim.Time
	k.Spawn("sink", func(p *sim.Proc) {
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		if _, err := conn.Recv(p); err == nil {
			done = p.Now()
		}
	})
	var start sim.Time
	k.Spawn("source", func(p *sim.Proc) {
		start = p.Now()
		conn, err := cl.Host(0).Iface().Dial(p, 1, 9000)
		if err != nil {
			return
		}
		// lint:reason measurement probe; a failed send leaves done unset, which the caller reports
		_ = conn.Send(p, bytes, nil)
	})
	k.Run()
	return done - start
}

// OwnerReclaimScenario runs MPVM under a Global Scheduler: the owner of the
// chosen host returns at ownerAt and the GS evacuates it. It returns the
// scheduler decisions and migration records.
func OwnerReclaimScenario(sc Scenario, ownerHost int, ownerAt sim.Time) (*Outcome, []gs.Decision) {
	sc = sc.withDefaults()
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, sc.Hosts, sc.Wire)
	sc.applyBackgroundLoad(cl)
	m := pvm.NewMachine(cl, pvm.Config{DirectRoute: sc.Direct})
	sys := mpvm.New(m, mpvm.Config{})
	target := gs.NewMPVMTarget(sys)
	sched := gs.New(cl, target, gs.DefaultPolicy())
	out := &Outcome{}

	tids := make([]core.TID, sc.Slaves)
	p := sc.params()
	for i := 0; i < sc.Slaves; i++ {
		pp := p
		mt, err := sys.SpawnMigratable(sc.slaveHost(i), fmt.Sprintf("opt-slave%d", i), sc.TotalBytes/sc.Slaves,
			func(mt *mpvm.MTask) {
				if err := opt.RunSlave(mt.Task, sc.masterTID(), pp); err != nil && out.Err == nil {
					out.Err = err
				}
			})
		if err != nil {
			out.Err = err
			return out, nil
		}
		tids[i] = mt.OrigTID()
		target.Track(mt.OrigTID())
	}
	_, err := sys.SpawnMigratable(0, "opt-master", 1<<20, func(mt *mpvm.MTask) {
		res, err := opt.RunMaster(mt.Task, tids, p)
		out.Result = res
		if err != nil && out.Err == nil {
			out.Err = err
		}
		out.Elapsed = mt.Proc().Now()
		sc.stopIfOpenEnded(k)
	})
	if err != nil {
		out.Err = err
		return out, nil
	}
	sched.Start()
	k.Schedule(ownerAt, func() { cl.Host(netsim.HostID(ownerHost)).SetOwnerActive(true) })
	k.RunUntil(2 * time.Hour)
	out.Records = sys.Records()
	return out, sched.Decisions()
}

// spawnMPVMSlaves starts the scenario's migratable slave tasks, returning
// their stable tids and handles.
func spawnMPVMSlaves(sc Scenario, sys *mpvm.System, out *Outcome) ([]core.TID, []*mpvm.MTask, error) {
	tids := make([]core.TID, sc.Slaves)
	mts := make([]*mpvm.MTask, sc.Slaves)
	for i := 0; i < sc.Slaves; i++ {
		p := sc.params()
		var mtRef *mpvm.MTask
		p.OnStateBytes = func(n int) {
			if mtRef != nil {
				mtRef.SetStateBytes(n)
			}
		}
		mt, err := sys.SpawnMigratable(sc.slaveHost(i), fmt.Sprintf("opt-slave%d", i), 0,
			func(mt *mpvm.MTask) {
				if err := opt.RunSlave(mt.Task, sc.masterTID(), p); err != nil && out.Err == nil {
					out.Err = err
				}
			})
		if err != nil {
			return nil, nil, err
		}
		mtRef = mt
		mts[i] = mt
		tids[i] = mt.OrigTID()
	}
	return tids, mts, nil
}
