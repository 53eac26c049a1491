package opt

import (
	"math"

	"pvmigrate/internal/adm"
	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/sim"
)

// TagADM carries all ADMopt coordination messages (ops encoded in the
// buffer: redist-request, enter-redist, state, plan, frag, redist-done,
// redist-complete).
const TagADM = 21

// ADMParams extends Params with the data-movement cost knobs.
type ADMParams struct {
	Params
	// ChunkExemplars is the inner-loop granularity between migration-event
	// flag checks (rapid response requires small chunks; each check costs
	// a conditional — part of ADM's overhead).
	ChunkExemplars int
	// MergeFlopsPerByte charges the receiver for integrating absorbed
	// exemplars into its arrays and flag structures (fitted to Table 6's
	// effective redistribution rate).
	MergeFlopsPerByte float64
	// RedistFixedFlops charges each participant for the repartitioning
	// computation and synchronization bookkeeping per redistribution round.
	RedistFixedFlops float64
	// Stats collects measurements across the application's VPs.
	Stats *ADMStats
}

// ADMStats aggregates what the ADMopt VPs observed.
type ADMStats struct {
	// Records holds one entry per withdrawal, with Start = the moment the
	// migration signal reached the slave and Reintegrated = receipt of the
	// master's redistribution-complete message (the paper's ADM
	// obtrusiveness == migration cost, §4.3.3).
	Records []core.MigrationRecord
	// Redistributions counts completed redistribution rounds.
	Redistributions int
	// FinalLoss is the master's last mean loss (real mode).
	FinalLoss float64
}

func (p ADMParams) withDefaults() ADMParams {
	p.Params = p.Params.withDefaults()
	p.LineSearch = false // the ADM protocol uses the fixed adaptive step
	if p.Overhead == 1.0 {
		// ADM's measured quiet-case penalty (Table 5): the FSM switch,
		// per-chunk flag checks, and the processed-exemplar array.
		p.Overhead = 1.23
		p.Params.Overhead = 1.23
	}
	if p.ChunkExemplars == 0 {
		p.ChunkExemplars = 100
	}
	if p.MergeFlopsPerByte == 0 {
		p.MergeFlopsPerByte = 8.2
	}
	if p.RedistFixedFlops == 0 {
		p.RedistFixedFlops = 6.5e6
	}
	if p.Stats == nil {
		p.Stats = &ADMStats{}
	}
	return p
}

// admFSM builds the Figure 4 state machine for a slave: normal computing,
// migration event and load redistribution, and inactivity when a process
// has no data over which to compute.
func admFSM() *adm.FSM {
	f := adm.NewFSM("compute")
	f.On("compute", "net-received", "compute"). // new iteration begins
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
	return f
}

// slaveState is a slave's report to the master at redistribution time.
type slaveState struct {
	rank        int
	count       int
	power       float64
	withdrawing bool
}

// RunADMMaster executes the ADMopt master: the same gradient/update loop as
// RunMaster, but interleaved with redistribution rounds whenever a slave
// reports a migration event. Withdrawn slaves leave the active set; their
// partially accumulated gradients are handed to the master so every
// exemplar contributes exactly once per iteration.
func RunADMMaster(vp core.VP, slaves []core.TID, ap ADMParams) (*Result, error) {
	ap = ap.withDefaults()
	p := ap.Params
	cost := p.Cost()
	nEx := p.NumExemplars()

	var set *ExemplarSet
	var net *Net
	var trainer *CGTrainer
	if p.Real {
		set = GenerateExemplars(nEx, p.InputDim, p.Classes, p.Seed)
		net = NewNet(p.InputDim, p.Hidden, p.Classes, p.Seed+1)
		trainer = NewCGTrainer(net)
	}

	// Distribute shards with global id ranges for the processed-flag
	// tracking.
	counts := evenCounts(nEx, len(slaves))
	lo := 0
	for i, s := range slaves {
		n := counts[i]
		buf := core.NewBuffer().PkInt(n).PkInt(lo).PkVirtual(n * ExemplarBytes(p.InputDim))
		if p.Real {
			shard := set.Slice(lo, lo+n)
			buf.PkFloat64s(shard.features)
			labels := make([]float64, n)
			for j, l := range shard.labels {
				labels[j] = float64(l)
			}
			buf.PkFloat64s(labels)
		}
		if err := vp.Send(s, TagShard, buf); err != nil {
			return nil, err
		}
		lo += n
	}

	active := make(map[core.TID]bool, len(slaves))
	for _, s := range slaves {
		active[s] = true
	}
	res := &Result{}
	step := p.Step
	prevLoss := 0.0
	for iter := 0; iter < p.Iterations; iter++ {
		netBuf := core.NewBuffer().PkInt(iter).PkVirtual(cost.NetBytes())
		if p.Real {
			netBuf.PkFloat64s(net.Flat())
		}
		for _, s := range slaves {
			if active[s] {
				if err := vp.Send(s, TagNet, netBuf); err != nil {
					return nil, err
				}
			}
		}
		total := NewGradient(&Net{InputDim: p.InputDim, Hidden: p.Hidden, Classes: p.Classes,
			W1: make([]float64, p.Hidden*p.InputDim), B1: make([]float64, p.Hidden),
			W2: make([]float64, p.Classes*p.Hidden), B2: make([]float64, p.Classes)})
		var lossSum float64
		pending := make(map[core.TID]bool)
		for s, a := range active {
			if a {
				pending[s] = true
			}
		}
		for len(pending) > 0 {
			src, tag, r, err := vp.Recv(core.AnyTID, core.AnyTag)
			if err != nil {
				return nil, err
			}
			switch tag {
			case TagGrad:
				pl, cnt, g, err := unpackGradient(r, p)
				if err != nil {
					return nil, err
				}
				lossSum += pl
				if p.Real {
					total.Add(g)
				} else {
					total.Count += cnt
				}
				delete(pending, src)
			case TagADM:
				op, _ := r.UpkString()
				if op != "redist-request" {
					continue
				}
				withdrawn, heldLoss, heldGrad, err := runRedistribution(vp, slaves, active, src, r, ap)
				if err != nil {
					return nil, err
				}
				if withdrawn != core.NoTID {
					active[withdrawn] = false
					if pending[withdrawn] {
						// Its processed exemplars' contribution arrives
						// with the withdrawal; the unprocessed ones moved
						// to still-pending receivers.
						lossSum += heldLoss
						if p.Real && heldGrad != nil {
							total.Add(heldGrad)
						} else if heldGrad != nil {
							total.Count += heldGrad.Count
						}
						delete(pending, withdrawn)
					}
				}
				ap.Stats.Redistributions++
			}
		}
		if err := vp.Compute(cost.UpdateFlops(len(slaves))); err != nil {
			return nil, err
		}
		if p.Real {
			meanLoss := lossSum / float64(nEx)
			if iter > 0 && meanLoss > prevLoss {
				step *= 0.5
			}
			prevLoss = meanLoss
			res.Losses = append(res.Losses, meanLoss)
			res.FinalLoss = meanLoss
			ap.Stats.FinalLoss = meanLoss
			dir := trainer.Direction(total.Flat())
			flat := net.Flat()
			for i := range flat {
				flat[i] += step * dir[i]
			}
			net.SetFlat(flat)
		}
		res.Iterations++
	}
	done := core.NewBuffer().PkInt(-1)
	for _, s := range slaves {
		if err := vp.Send(s, TagDone, done); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runRedistribution coordinates one redistribution round at the master.
// The requester's "redist-request" has already been received; its reader r
// carries the request details.
func runRedistribution(vp core.VP, slaves []core.TID, active map[core.TID]bool,
	requester core.TID, r *core.Reader, ap ADMParams) (withdrawn core.TID, heldLoss float64, heldGrad *Gradient, err error) {

	withdrawFlag, _ := r.UpkInt()

	// Tell every active slave to pause at its next flag check.
	enter := core.NewBuffer().PkString("enter-redist")
	for _, s := range slaves {
		if active[s] {
			if err := vp.Send(s, TagADM, enter); err != nil {
				return core.NoTID, 0, nil, err
			}
		}
	}
	// Collect states. The withdrawing slave attaches its partial gradient.
	states := make(map[core.TID]*slaveState)
	for {
		allIn := true
		for _, s := range slaves {
			if active[s] && states[s] == nil {
				allIn = false
			}
		}
		if allIn {
			break
		}
		src, tag, sr, err := vp.Recv(core.AnyTID, TagADM)
		if err != nil {
			return core.NoTID, 0, nil, err
		}
		_ = tag
		op, _ := sr.UpkString()
		if op != "state" {
			continue
		}
		st := &slaveState{}
		st.rank, _ = sr.UpkInt()
		st.count, _ = sr.UpkInt()
		pw, _ := sr.UpkFloat64s()
		st.power = pw[0]
		w, _ := sr.UpkInt()
		st.withdrawing = w == 1
		if st.withdrawing {
			pl, cnt, g, gerr := unpackGradient(sr, ap.Params)
			if gerr == nil {
				heldLoss, heldGrad = pl, g
				if g == nil {
					heldGrad = &Gradient{Count: cnt}
				}
				withdrawn = src
			}
		}
		states[src] = st
	}
	_ = withdrawFlag

	// Recompute the partition over the remaining active slaves.
	n := len(slaves)
	powers := make([]float64, n)
	act := make([]bool, n)
	current := make([]int, n)
	total := 0
	rankOf := make(map[core.TID]int, n)
	for i, s := range slaves {
		rankOf[s] = i
		if !active[s] {
			continue
		}
		st := states[s]
		current[i] = st.count
		total += st.count
		powers[i] = st.power
		act[i] = !st.withdrawing
	}
	target, err := adm.Partition(total, powers, act)
	if err != nil {
		return core.NoTID, 0, nil, err
	}
	moves, err := adm.PlanMoves(current, target)
	if err != nil {
		return core.NoTID, 0, nil, err
	}
	// Broadcast the plan: each slave learns its outgoing moves and its
	// expected incoming exemplar count.
	incoming := make([]int, n)
	for _, m := range moves {
		incoming[m.To] += m.Count
	}
	planBuf := core.NewBuffer().PkString("plan").PkInt(len(moves))
	for _, m := range moves {
		planBuf.PkInt(m.From).PkInt(m.To).PkInt(m.Count)
	}
	for i := range slaves {
		planBuf.PkInt(incoming[i])
	}
	for _, s := range slaves {
		if active[s] {
			if err := vp.Send(s, TagADM, planBuf); err != nil {
				return core.NoTID, 0, nil, err
			}
		}
	}
	// Await completion acks, then release everyone.
	acks := 0
	want := 0
	for _, s := range slaves {
		if active[s] {
			want++
		}
	}
	for acks < want {
		_, _, ar, err := vp.Recv(core.AnyTID, TagADM)
		if err != nil {
			return core.NoTID, 0, nil, err
		}
		op, _ := ar.UpkString()
		if op == "redist-done" {
			acks++
		}
	}
	complete := core.NewBuffer().PkString("redist-complete")
	for _, s := range slaves {
		if active[s] {
			if err := vp.Send(s, TagADM, complete); err != nil {
				return core.NoTID, 0, nil, err
			}
		}
	}
	return withdrawn, heldLoss, heldGrad, nil
}

// RunADMSlave executes one ADMopt slave: the event-driven finite-state
// machine of Figure 4, with migration-event flag checks embedded in the
// inner computational loop (paper §2.3).
func RunADMSlave(vp core.VP, master core.TID, rank int, peers []core.TID,
	events *adm.EventQueue, ap ADMParams) error {

	ap = ap.withDefaults()
	p := ap.Params
	cost := p.Cost()
	fsm := admFSM()

	// Shard arrival.
	_, _, r, err := vp.Recv(master, TagShard)
	if err != nil {
		return err
	}
	count, _ := r.UpkInt()
	idLo, _ := r.UpkInt()
	if _, err := r.UpkVirtual(); err != nil {
		return err
	}
	shard := adm.NewShard(idLo, idLo+count)
	var local *ExemplarSet
	if p.Real {
		feats, _ := r.UpkFloat64s()
		flabels, err := r.UpkFloat64s()
		if err != nil {
			return err
		}
		labels := make([]int, len(flabels))
		for i, f := range flabels {
			labels[i] = int(f)
		}
		ids := make([]int, count)
		for i := range ids {
			ids[i] = idLo + i
		}
		local = &ExemplarSet{Dim: p.InputDim, Classes: p.Classes,
			features: feats, labels: labels, ids: ids}
		local = local.Own()
	}

	sl := &admSlave{
		vp: vp, master: master, rank: rank, peers: peers,
		events: events, ap: ap, cost: cost, fsm: fsm,
		shard: shard, local: local,
		tracker: adm.NewTracker(),
		net:     &Net{InputDim: p.InputDim, Hidden: p.Hidden, Classes: p.Classes},
	}
	return sl.run()
}

// admSlave bundles one slave's state.
type admSlave struct {
	vp     core.VP
	master core.TID
	rank   int
	peers  []core.TID
	events *adm.EventQueue
	ap     ADMParams
	cost   CostModel
	fsm    *adm.FSM

	shard   *adm.Shard
	local   *ExemplarSet // real mode only; ids parallel shard.IDs
	tracker *adm.Tracker
	net     *Net

	grad        *Gradient
	partialLoss float64
	withdrawing bool
	withdrawAt  int64 // event arrival, ns
	// cursor: every shard index below it has been examined this iteration
	// (processed or skipped-as-processed), so chunk collection is O(chunk)
	// instead of rescanning the whole shard.
	cursor int
	// chunk holds the shard indices of the chunk being processed; hid and
	// out are the per-exemplar loss's forward-pass scratch (real mode).
	// All three are reused across chunks and iterations.
	chunk    []int
	hid, out []float64
}

func (s *admSlave) run() error {
	p := s.ap.Params
	for {
		// reduce state: wait for the net (or control traffic).
		_, tag, r, err := s.vp.Recv(core.AnyTID, core.AnyTag)
		if err != nil {
			return err
		}
		switch tag {
		case TagDone:
			s.fire("done")
			return nil
		case TagADM:
			op, _ := r.UpkString()
			if op == "enter-redist" {
				s.fire("enter-redist")
				if err := s.participateRedist(false); err != nil {
					return err
				}
				if s.withdrawing {
					return s.waitDone()
				}
				s.fire("redistributed")
			}
			continue
		case TagNet:
			// fall through to the iteration below
		default:
			continue
		}
		s.fire("net-received")
		if _, err := r.UpkInt(); err != nil {
			return err
		}
		if _, err := r.UpkVirtual(); err != nil {
			return err
		}
		if p.Real {
			flat, err := r.UpkFloat64s()
			if err != nil {
				return err
			}
			if s.net.W1 == nil {
				s.net.W1 = make([]float64, p.Hidden*p.InputDim)
				s.net.B1 = make([]float64, p.Hidden)
				s.net.W2 = make([]float64, p.Classes*p.Hidden)
				s.net.B2 = make([]float64, p.Classes)
				s.hid = make([]float64, p.Hidden)
				s.out = make([]float64, p.Classes)
			}
			s.net.SetFlat(flat)
		}
		// One iteration: process every unprocessed local exemplar, in
		// chunks, with flag checks between chunks.
		s.cursor = 0
		s.tracker.Reset()
		s.shard.SyncFlags(s.tracker) // no-op at iteration start (all false)
		s.grad = nil
		s.partialLoss = 0
		if p.Real {
			s.grad = NewGradient(s.net)
		}
		if err := s.iterate(); err != nil {
			return err
		}
		if s.withdrawing {
			return s.waitDone()
		}
		// iteration-done: ship the partial gradient.
		buf := core.NewBuffer()
		if p.Real {
			packGradient(buf, s.partialLoss, s.grad)
		} else {
			buf.PkFloat64s([]float64{0}).PkInt(s.tracker.Done()).PkVirtual(s.cost.NetBytes())
		}
		s.fire("iteration-done")
		if err := s.vp.Send(s.master, TagGrad, buf); err != nil {
			return err
		}
	}
}

// iterate processes unprocessed exemplars chunk by chunk until none remain
// (absorbed exemplars extend the work), checking for migration events
// between chunks.
func (s *admSlave) iterate() error {
	for {
		// Collect the next chunk of unprocessed exemplars, resuming the
		// scan where the previous chunk left off.
		chunk := s.chunk[:0]
		for s.cursor < s.shard.Len() && len(chunk) < s.ap.ChunkExemplars {
			if !s.tracker.Processed(s.shard.IDs[s.cursor]) {
				chunk = append(chunk, s.cursor)
			}
			s.cursor++
		}
		s.chunk = chunk
		if len(chunk) == 0 {
			return nil
		}
		if err := s.vp.Compute(s.cost.GradientFlops(len(chunk))); err != nil {
			return err
		}
		for _, i := range chunk {
			if !s.tracker.MarkProcessed(s.shard.IDs[i]) {
				continue
			}
			if s.ap.Real {
				// local's rows are parallel to shard.IDs: row i is
				// exemplar IDs[i].
				s.net.AccumulateGradient(s.local, i, i+1, s.grad)
				x, label := s.local.Exemplar(i)
				s.net.forward(x, s.hid, s.out)
				pr := s.out[label]
				if pr < 1e-300 {
					pr = 1e-300
				}
				s.partialLoss += -math.Log(pr)
			}
		}
		// The migration-event flag check (and any pending coordination).
		if s.events.Pending() {
			ev, _ := s.events.Take()
			s.withdrawing = ev.Kind == "withdraw"
			s.withdrawAt = int64(ev.At)
			s.fire("migration-event")
			req := core.NewBuffer().PkString("redist-request").PkInt(boolToInt(s.withdrawing))
			if err := s.vp.Send(s.master, TagADM, req); err != nil {
				return err
			}
			if err := s.participateRedist(true); err != nil {
				return err
			}
			if s.withdrawing {
				return nil
			}
			s.fire("redistributed")
			continue
		}
		if src, tag, cr, ok, _ := s.vp.NRecv(core.AnyTID, TagADM); ok {
			_ = src
			_ = tag
			op, _ := cr.UpkString()
			if op == "enter-redist" {
				s.fire("enter-redist")
				if err := s.participateRedist(false); err != nil {
					return err
				}
				s.fire("redistributed")
			}
		}
	}
}

// participateRedist runs one redistribution round from a slave's
// perspective. If requested is true, this slave initiated the round (it
// already sent redist-request and must still consume the master's
// enter-redist message).
func (s *admSlave) participateRedist(requested bool) error {
	p := s.ap.Params
	if requested {
		// Consume the master's broadcast enter-redist.
		for {
			_, _, r, err := s.vp.Recv(s.master, TagADM)
			if err != nil {
				return err
			}
			op, _ := r.UpkString()
			if op == "enter-redist" {
				break
			}
		}
	}
	// Repartition bookkeeping cost.
	if err := s.vp.Compute(s.ap.RedistFixedFlops); err != nil {
		return err
	}
	// Report state; a withdrawing slave attaches its partial gradient.
	host := s.vp.Host()
	power := host.Spec().Speed / float64(1+host.LoadAverage())
	st := core.NewBuffer().PkString("state").PkInt(s.rank).PkInt(s.shard.Len()).
		PkFloat64s([]float64{power}).PkInt(boolToInt(s.withdrawing))
	if s.withdrawing {
		if p.Real && s.grad != nil {
			packGradient(st, s.partialLoss, s.grad)
		} else {
			done := 0
			if s.tracker != nil {
				done = s.tracker.Done()
			}
			st.PkFloat64s([]float64{0}).PkInt(done).PkVirtual(s.cost.NetBytes())
		}
	}
	if err := s.vp.Send(s.master, TagADM, st); err != nil {
		return err
	}
	// Receive the plan.
	var moves []adm.Move
	var expectIncoming int
	for {
		_, _, r, err := s.vp.Recv(s.master, TagADM)
		if err != nil {
			return err
		}
		if op, _ := r.UpkString(); op != "plan" {
			continue
		}
		if moves, expectIncoming, err = decodePlan(r, len(s.peers), s.rank); err != nil {
			return err
		}
		break
	}
	// Execute my outgoing moves: fragment and ship (flags travel with the
	// data so receivers do not reprocess). Shipping cuts the shard's tail;
	// keep the iteration cursor inside the shard.
	s.shard.SyncFlags(s.tracker)
	for _, m := range moves {
		if m.From != s.rank {
			continue
		}
		frag := s.shard.TakeFragment(m.Count)
		bytes := m.Count * ExemplarBytes(p.InputDim)
		buf := core.NewBuffer().PkString("frag").PkInt(m.Count).PkVirtual(bytes)
		ids := make([]float64, frag.Len())
		flags := make([]byte, frag.Len())
		for i := range frag.IDs {
			ids[i] = float64(frag.IDs[i])
			if frag.ProcessedFlags[i] {
				flags[i] = 1
			}
		}
		buf.PkFloat64s(ids).PkBytes(flags)
		if p.Real {
			// local's rows are parallel to shard.IDs, so the fragment's
			// data is local's tail, cut the way TakeFragment cut the ids.
			shipped := s.local.TakeTail(frag.Len())
			buf.PkFloat64s(shipped.features)
			labels := make([]float64, shipped.Len())
			for i, l := range shipped.labels {
				labels[i] = float64(l)
			}
			buf.PkFloat64s(labels)
		}
		if err := s.vp.Send(s.peers[m.To], TagADM, buf); err != nil {
			return err
		}
	}
	if s.cursor > s.shard.Len() {
		s.cursor = s.shard.Len()
	}
	// Absorb incoming fragments.
	received := 0
	for received < expectIncoming {
		_, _, r, err := s.vp.Recv(core.AnyTID, TagADM)
		if err != nil {
			return err
		}
		if op, _ := r.UpkString(); op != "frag" {
			continue
		}
		frag, bytes, data, err := decodeFrag(r, p)
		if err != nil {
			return err
		}
		s.shard.Absorb(frag)
		frag.SeedTracker(s.tracker)
		if data != nil {
			if err := s.local.Absorb(data); err != nil {
				return err
			}
		}
		// Integration cost: merging the data and flag arrays.
		if err := s.vp.Compute(float64(bytes) * s.ap.MergeFlopsPerByte); err != nil {
			return err
		}
		received += frag.Len()
	}
	if err := s.vp.Send(s.master, TagADM, core.NewBuffer().PkString("redist-done")); err != nil {
		return err
	}
	// Await the master's all-clear; this bounds the ADM migration measure.
	for {
		_, _, r, err := s.vp.Recv(s.master, TagADM)
		if err != nil {
			return err
		}
		op, _ := r.UpkString()
		if op == "redist-complete" {
			break
		}
	}
	if s.withdrawing {
		s.fire("withdrawn")
		now := s.vp.Proc().Now()
		s.ap.Stats.Records = append(s.ap.Stats.Records, core.MigrationRecord{
			VP:           s.vp.Mytid(),
			NewTID:       s.vp.Mytid(),
			From:         int(s.vp.Host().ID()),
			To:           -1, // data fragmented across the other slaves
			Reason:       core.ReasonOwnerReclaim,
			Start:        sim.Time(s.withdrawAt),
			OffSource:    now,
			Reintegrated: now,
			StateBytes:   0,
		})
	}
	return nil
}

// CodeBadRedist classifies a malformed ADMopt redistribution message: a
// "plan" or "frag" whose fields are missing, mistyped or disagree in length.
const CodeBadRedist errs.Code = "opt.bad-redist"

// decodePlan unpacks the body of a master's "plan" message (after its op
// string): the moves, then one incoming-exemplar count per slave, of which
// it returns rank's.
func decodePlan(r *core.Reader, slaves, rank int) ([]adm.Move, int, error) {
	nMoves, err := r.UpkInt()
	if err != nil {
		return nil, 0, errs.New(CodeBadRedist, "plan: move count", err)
	}
	if nMoves < 0 || nMoves > r.Remaining()/3 {
		return nil, 0, errs.Newf(CodeBadRedist, "plan: %d moves in a %d-item body", nMoves, r.Remaining())
	}
	moves := make([]adm.Move, nMoves)
	for i := range moves {
		m := &moves[i]
		for _, f := range []*int{&m.From, &m.To, &m.Count} {
			if *f, err = r.UpkInt(); err != nil {
				return nil, 0, errs.New(CodeBadRedist, "plan: move", err).AddContext("move", i)
			}
		}
	}
	incoming := 0
	for i := 0; i < slaves; i++ {
		inc, err := r.UpkInt()
		if err != nil {
			return nil, 0, errs.New(CodeBadRedist, "plan: incoming count", err).AddContext("slave", i)
		}
		if i == rank {
			incoming = inc
		}
	}
	return moves, incoming, nil
}

// decodeFrag unpacks the body of a "frag" message (after its op string):
// the exemplar count, the virtual payload size, one id and one processed
// flag per exemplar, and in real mode the exemplars' features and labels.
// Every length must agree with the count and every id must name an
// exemplar of the training set; data is nil in cost-model mode.
func decodeFrag(r *core.Reader, p Params) (frag *adm.Shard, bytes int, data *ExemplarSet, err error) {
	bad := func(what string, cause error) (*adm.Shard, int, *ExemplarSet, error) {
		return nil, 0, nil, errs.New(CodeBadRedist, "frag: "+what, cause)
	}
	cnt, err := r.UpkInt()
	if err != nil {
		return bad("count", err)
	}
	if bytes, err = r.UpkVirtual(); err != nil {
		return bad("payload size", err)
	}
	ids, err := r.UpkFloat64s()
	if err != nil {
		return bad("ids", err)
	}
	flags, err := r.UpkBytes()
	if err != nil {
		return bad("flags", err)
	}
	if len(ids) != cnt || len(flags) != cnt {
		return nil, 0, nil, errs.Newf(CodeBadRedist, "frag: %d ids and %d flags for %d exemplars",
			len(ids), len(flags), cnt)
	}
	nEx := float64(p.NumExemplars())
	frag = &adm.Shard{IDs: make([]int, cnt), ProcessedFlags: make([]bool, cnt)}
	for i, id := range ids {
		if !(id >= 0 && id < nEx) || id != math.Trunc(id) {
			return nil, 0, nil, errs.Newf(CodeBadRedist, "frag: exemplar id %v outside [0, %v)", id, nEx)
		}
		frag.IDs[i] = int(id)
		frag.ProcessedFlags[i] = flags[i] == 1
	}
	if !p.Real {
		return frag, bytes, nil, nil
	}
	feats, err := r.UpkFloat64s()
	if err != nil {
		return bad("features", err)
	}
	flabels, err := r.UpkFloat64s()
	if err != nil {
		return bad("labels", err)
	}
	if len(feats) != cnt*p.InputDim || len(flabels) != cnt {
		return nil, 0, nil, errs.Newf(CodeBadRedist, "frag: %d features and %d labels for %d exemplars of dim %d",
			len(feats), len(flabels), cnt, p.InputDim)
	}
	labels := make([]int, cnt)
	for i, f := range flabels {
		labels[i] = int(f)
	}
	data = &ExemplarSet{Dim: p.InputDim, Classes: p.Classes,
		features: feats, labels: labels, ids: frag.IDs}
	return frag, bytes, data, nil
}

// waitDone parks an inactive (withdrawn) slave until the master finishes.
func (s *admSlave) waitDone() error {
	for {
		_, tag, _, err := s.vp.Recv(core.AnyTID, core.AnyTag)
		if err != nil {
			return err
		}
		if tag == TagDone {
			s.fire("done")
			return nil
		}
	}
}

// fire takes an FSM transition, panicking on an undeclared one: a wrong
// transition is a protocol bug, the exact class of error the paper warns
// requires "great care" to avoid.
func (s *admSlave) fire(event string) {
	if _, err := s.fsm.Fire(event); err != nil {
		panic(err)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
