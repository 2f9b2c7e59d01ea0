package core

import (
	"context"
	"runtime/trace"
	"sync/atomic"
	"time"

	"mw/internal/forces"
	"mw/internal/pool"
	"mw/internal/units"
	"mw/internal/vec"
)

// phaseRegion holds static runtime/trace region names per phase, so opening
// a region never builds a string on the schedule path.
var phaseRegion = [NumPhases]string{
	"mw.predictor", "mw.neighbor-check", "mw.force", "mw.reduce", "mw.corrector",
}

// beginPhase emits the telemetry phase-begin event; paired with the
// phase-end emitted by finishPhase.
//
//mw:coldcall
func (sim *Simulation) beginPhase(ph Phase) {
	if tele := sim.Cfg.Telemetry; tele != nil {
		tele.PhaseBegin(sim.step, uint8(ph))
	}
}

// schedule executes items 0..count-1 across the workers according to the
// configured partition strategy, with a barrier at the end (the engine's
// inter-phase synchronization). fn must be safe for concurrent invocation
// with distinct worker ids; each item is processed exactly once.
//
//mw:coldcall
func (sim *Simulation) schedule(ph Phase, count int, fn func(worker, item int)) {
	defer trace.StartRegion(context.Background(), phaseRegion[ph]).End()
	sim.beginPhase(ph)
	start := time.Now()
	w := sim.Cfg.Threads
	if tele := sim.Cfg.Telemetry; tele != nil {
		phase := uint8(ph)
		inner := fn
		fn = func(worker, item int) {
			inner(worker, item)
			tele.Chunk(worker, phase)
		}
	}
	if (sim.ex == nil && sim.stealing == nil) || w == 1 || count == 0 {
		t0 := time.Now()
		for item := 0; item < count; item++ {
			fn(0, item)
		}
		sim.busy[0] = time.Since(t0)
		for i := 1; i < w; i++ {
			sim.busy[i] = 0
		}
		sim.finishPhase(ph, start)
		return
	}

	if sim.stealing != nil {
		// Work-stealing topology: every chunk is its own task, owned per the
		// static partition mapping; idle workers steal the rest. Guided and
		// dynamic strategies are inherently self-balancing already, so their
		// chunks are simply dealt cyclically as owners.
		sim.scheduleStealing(ph, count, fn, start)
		return
	}

	var cursor atomic.Int64 // shared counter for guided/dynamic
	tasks := make([]pool.Task, w)
	for worker := 0; worker < w; worker++ {
		worker := worker
		tasks[worker] = func() {
			t0 := time.Now()
			switch sim.Cfg.Partition {
			case PartitionBlock:
				lo := worker * count / w
				hi := (worker + 1) * count / w
				for item := lo; item < hi; item++ {
					fn(worker, item)
				}
			case PartitionCyclic:
				for item := worker; item < count; item += w {
					fn(worker, item)
				}
			case PartitionGuided:
				for {
					remaining := int64(count) - cursor.Load()
					if remaining <= 0 {
						break
					}
					batch := remaining / int64(2*w)
					if batch < 1 {
						batch = 1
					}
					lo := cursor.Add(batch) - batch
					if lo >= int64(count) {
						break
					}
					hi := lo + batch
					if hi > int64(count) {
						hi = int64(count)
					}
					for item := int(lo); item < int(hi); item++ {
						fn(worker, item)
					}
				}
			case PartitionDynamic:
				for {
					item := cursor.Add(1) - 1
					if item >= int64(count) {
						break
					}
					fn(worker, int(item))
				}
			}
			sim.busy[worker] = time.Since(t0)
		}
	}
	sim.runOnWorkers(tasks)
	sim.finishPhase(ph, start)
}

// scheduleStealing fans one task per chunk into the owners' deques and
// awaits the latch. fn receives the id of the worker that actually executes
// the chunk (which may differ from its owner after a steal), keeping
// per-worker privatized state safe.
func (sim *Simulation) scheduleStealing(ph Phase, count int, fn func(worker, item int), start time.Time) {
	w := sim.Cfg.Threads
	latch := pool.NewLatch(count)
	busy := make([]atomic.Int64, w)
	for item := 0; item < count; item++ {
		owner := item % w
		if sim.Cfg.Partition == PartitionBlock {
			owner = item * w / count
			if owner >= w {
				owner = w - 1
			}
		}
		item := item
		sim.stealing.SubmitFor(owner, func(worker int) {
			t0 := time.Now()
			fn(worker, item)
			busy[worker].Add(int64(time.Since(t0)))
			latch.CountDown()
		})
	}
	latch.Await()
	for i := 0; i < w; i++ {
		sim.busy[i] = time.Duration(busy[i].Load())
	}
	sim.finishPhase(ph, start)
}

// runOnWorkers dispatches exactly one task per worker and awaits them all —
// the fan-out / countdown-latch / barrier structure of §II-B.
func (sim *Simulation) runOnWorkers(tasks []pool.Task) {
	latch := pool.NewLatch(len(tasks))
	for w, t := range tasks {
		t := t
		wrapped := func() {
			t()
			latch.CountDown()
		}
		if sim.pinned != nil {
			sim.pinned.Submit(w, wrapped)
		} else {
			sim.ex.Execute(wrapped)
		}
	}
	latch.Await()
}

//mw:coldcall
func (sim *Simulation) finishPhase(ph Phase, start time.Time) {
	wall := time.Since(start)
	sim.PhaseWall[ph].Add(wall.Seconds())
	for w, b := range sim.busy {
		sim.WorkerBusy[ph][w] += b
	}
	if tele := sim.Cfg.Telemetry; tele != nil {
		tele.PhaseEnd(sim.step, uint8(ph), wall, sim.busy)
	}
}

// predictorPhase is phase 1: advance positions with a second-order Taylor
// step (velocity Verlet's half-kick + drift), then handle wall collisions.
// It also clears the shared force array for the shared-mutex reduction mode.
//
//mw:hotpath
//mw:forcewriter
func (sim *Simulation) predictorPhase() {
	s := sim.Sys
	dt := sim.Cfg.Dt
	half := 0.5 * dt
	zeroShared := sim.Cfg.Reduce == ReduceSharedMutex
	sim.schedule(PhasePredictor, sim.atomChunks.count, func(_, item int) {
		lo, hi := sim.atomChunks.bounds(item)
		for i := lo; i < hi; i++ {
			if zeroShared {
				s.Force[i] = vec.Zero
			}
			if s.Fixed[i] {
				continue
			}
			v := s.Vel[i].AddScaled(half, s.Acc[i])
			p := s.Pos[i].AddScaled(dt, v)
			p, v = s.Box.Reflect(p, v)
			s.Pos[i] = p
			s.Vel[i] = v
		}
	})
}

// neighborCheckPhase is phase 2: decide whether the neighbor list is still
// valid by measuring the maximum displacement since the last rebuild.
//
//mw:hotpath
func (sim *Simulation) neighborCheckPhase() {
	if !sim.listValid {
		// Nothing to check; a rebuild is already pending.
		sim.beginPhase(PhaseNeighborCheck)
		for w := range sim.busy {
			sim.busy[w] = 0
		}
		sim.finishPhase(PhaseNeighborCheck, time.Now())
		return
	}
	s := sim.Sys
	for w := range sim.maxDisp2 {
		sim.maxDisp2[w] = 0
	}
	sim.schedule(PhaseNeighborCheck, sim.atomChunks.count, func(worker, item int) {
		lo, hi := sim.atomChunks.bounds(item)
		var mx float64
		for i := lo; i < hi; i++ {
			if d := s.Box.MinImage(s.Pos[i].Sub(sim.refPos[i])).Norm2(); d > mx {
				mx = d
			}
		}
		if mx > sim.maxDisp2[worker] {
			sim.maxDisp2[worker] = mx
		}
	})
	limit2 := sim.Cfg.Skin * sim.Cfg.Skin / 4
	for _, mx := range sim.maxDisp2 {
		if mx > limit2 {
			sim.listValid = false
			break
		}
	}
}

// forceItemKind dispatches force-phase work items.
// The force phase's item space concatenates all force families so that
// dynamic strategies balance across them:
// [LJ chunks | Coulomb chunks | bond chunks | angle chunks | torsion chunks].
//
//mw:hotpath
func (sim *Simulation) forceItemCount() int {
	return sim.atomChunks.count + sim.coulChunks.count +
		sim.bondChunks.count + sim.angleChunks.count + sim.torsChunks.count +
		sim.morseChunks.count
}

// forcePhase is the fused phases 3+4: if the neighbor list is stale, each LJ
// chunk rebuilds its range list immediately before consuming it; then all
// force families accumulate into per-worker privatized arrays (or the shared
// array under a mutex in the ablation mode).
//
//mw:hotpath
//mw:forcewriter
func (sim *Simulation) forcePhase() {
	s := sim.Sys
	rebuild := !sim.listValid
	if rebuild {
		// Spatial reordering (when enabled) rides the rebuild cadence: the
		// permutation is only worth applying when the lists are about to be
		// reconstructed anyway, and it must precede cell assignment.
		sim.maybeReorder()
		// Cell assignment is O(N) with tiny constants; done serially before
		// the parallel fused loop (MW does the same under its fused loop's
		// first barrier).
		sim.grid.Assign(s)
	}
	if sim.clCoords != nil {
		// The packed kernel reads the padded SoA coordinate copy; positions
		// move every step, so the repack rides every force phase (serial,
		// O(N) with tiny constants, like Assign above).
		sim.clCoords.Pack(s)
	}
	rng := sim.Cfg.LJCutoff + sim.Cfg.Skin
	for w := range sim.peWorker {
		sim.peWorker[w] = 0
	}
	hasField := !sim.Cfg.Field.IsZero()

	ljEnd := sim.atomChunks.count
	coulEnd := ljEnd + sim.coulChunks.count
	bondEnd := coulEnd + sim.bondChunks.count
	angleEnd := bondEnd + sim.angleChunks.count
	torsEnd := angleEnd + sim.torsChunks.count

	shared := sim.Cfg.Reduce == ReduceSharedMutex
	sim.schedule(PhaseForce, sim.forceItemCount(), func(worker, item int) {
		var f []vec.Vec3
		if shared {
			sim.forceMu.Lock()
			f = s.Force
		} else {
			f = sim.priv[worker]
		}
		var pe float64
		switch {
		case item < ljEnd:
			lo, hi := sim.atomChunks.bounds(item)
			rl := &sim.ljLists[item]
			if sim.Cfg.Cluster {
				cl := &sim.clusterLists[item]
				if rebuild {
					sim.grid.BuildClusterRange(s, rng, lo, hi, cl)
				}
				switch {
				case sim.clusterSIMD:
					pe = sim.lj.AccumulateClusterListSIMD(s, sim.clCoords, cl, &sim.clScratch[item], f)
				case sim.clusterFast:
					pe = sim.lj.AccumulateClusterListFast(s, cl, f)
				default:
					pe = sim.lj.AccumulateClusterList(s, cl, f)
				}
			} else {
				if rebuild {
					sim.grid.BuildRange(s, rng, lo, hi, rl)
				}
				if sim.Cfg.Reorder {
					pe = sim.lj.AccumulateRangeListFast(s, rl, f)
				} else {
					pe = sim.lj.AccumulateRangeList(s, rl, f)
				}
			}
			if hasField {
				sim.Cfg.Field.AccumulateRange(s, lo, hi, f)
			}
		case item < coulEnd:
			lo, hi := sim.coulChunks.bounds(item - ljEnd)
			pe = sim.coul.AccumulateRange(s, sim.charged, lo, hi, f)
		case item < bondEnd:
			lo, hi := sim.bondChunks.bounds(item - coulEnd)
			pe = accumulateBonds(sim, lo, hi, f)
		case item < angleEnd:
			lo, hi := sim.angleChunks.bounds(item - bondEnd)
			pe = accumulateAngles(sim, lo, hi, f)
		case item < torsEnd:
			lo, hi := sim.torsChunks.bounds(item - angleEnd)
			pe = accumulateTorsions(sim, lo, hi, f)
		default:
			lo, hi := sim.morseChunks.bounds(item - torsEnd)
			pe = forces.AccumulateMorseRange(s, s.Morses, lo, hi, f)
		}
		sim.peWorker[worker] += pe
		if shared {
			sim.forceMu.Unlock()
		}
	})

	if rebuild {
		copy(sim.refPos, s.Pos)
		sim.listValid = true
		sim.rebuilds++
	}
}

// reducePhase is phase 5: fold the privatized force arrays into the shared
// one and clear them for the next step. In shared-mutex mode forces are
// already in place and only the energy is folded.
//
//mw:hotpath
//mw:forcewriter
func (sim *Simulation) reducePhase() {
	var pe float64
	for _, p := range sim.peWorker {
		pe += p
	}
	sim.pe = pe
	if sim.Cfg.Reduce == ReduceSharedMutex {
		sim.beginPhase(PhaseReduce)
		for w := range sim.busy {
			sim.busy[w] = 0
		}
		sim.finishPhase(PhaseReduce, time.Now())
		return
	}
	s := sim.Sys
	priv := sim.priv
	sim.schedule(PhaseReduce, sim.atomChunks.count, func(_, item int) {
		lo, hi := sim.atomChunks.bounds(item)
		for i := lo; i < hi; i++ {
			f := priv[0][i]
			priv[0][i] = vec.Zero
			for w := 1; w < len(priv); w++ {
				f = f.Add(priv[w][i])
				priv[w][i] = vec.Zero
			}
			s.Force[i] = f
		}
	})
}

// correctorPhase is phase 6: compute the new acceleration from the reduced
// forces and complete the velocity update (velocity Verlet's second
// half-kick).
//
//mw:hotpath
func (sim *Simulation) correctorPhase() {
	s := sim.Sys
	half := 0.5 * sim.Cfg.Dt
	sim.schedule(PhaseCorrector, sim.atomChunks.count, func(_, item int) {
		lo, hi := sim.atomChunks.bounds(item)
		for i := lo; i < hi; i++ {
			if s.Fixed[i] {
				continue
			}
			a := s.Force[i].Scale(s.InvMass[i] * units.ForceToAccel)
			s.Vel[i] = s.Vel[i].AddScaled(half, a)
			s.Acc[i] = a
		}
	})
}
