package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mw/internal/atom"
	"mw/internal/cells"
	"mw/internal/forces"
	"mw/internal/telemetry"
	"mw/internal/vec"
)

// ljGas builds an argon lattice with nx³ atoms, spacing a, thermalized at T.
func ljGas(nx int, a, T float64, periodic bool) *atom.System {
	l := float64(nx) * a
	s := atom.NewSystem(atom.CubicBox(l, periodic))
	for x := 0; x < nx; x++ {
		for y := 0; y < nx; y++ {
			for z := 0; z < nx; z++ {
				p := vec.New((float64(x)+0.5)*a, (float64(y)+0.5)*a, (float64(z)+0.5)*a)
				s.AddAtom(atom.Ar, p, vec.Zero, 0, false)
			}
		}
	}
	s.Thermalize(T, rand.New(rand.NewSource(77)))
	return s
}

// saltCluster builds a small NaCl rock-salt cube (alternating charges).
func saltCluster(nx int, a float64) *atom.System {
	l := float64(nx)*a + 10
	s := atom.NewSystem(atom.CubicBox(l, false))
	for x := 0; x < nx; x++ {
		for y := 0; y < nx; y++ {
			for z := 0; z < nx; z++ {
				p := vec.New(5+float64(x)*a, 5+float64(y)*a, 5+float64(z)*a)
				if (x+y+z)%2 == 0 {
					s.AddAtom(atom.Na, p, vec.Zero, +1, false)
				} else {
					s.AddAtom(atom.Cl, p, vec.Zero, -1, false)
				}
			}
		}
	}
	return s
}

// bondedChain builds a short bonded chain with angles and a torsion.
func bondedChain() *atom.System {
	s := atom.NewSystem(atom.CubicBox(30, false))
	pts := []vec.Vec3{
		{X: 10, Y: 10, Z: 10},
		{X: 11.5, Y: 10.3, Z: 10.1},
		{X: 12.8, Y: 11.2, Z: 10.5},
		{X: 14.2, Y: 11.4, Z: 11.4},
		{X: 15.6, Y: 12.3, Z: 11.6},
	}
	for _, p := range pts {
		s.AddAtom(atom.C, p, vec.Zero, 0, false)
	}
	for i := 0; i < 4; i++ {
		s.Bonds = append(s.Bonds, atom.Bond{I: int32(i), J: int32(i + 1), K: 15, R0: 1.6})
	}
	for i := 0; i < 3; i++ {
		s.Angles = append(s.Angles, atom.Angle{I: int32(i), J: int32(i + 1), K: int32(i + 2), KTheta: 2, Theta0: 2.0})
	}
	s.Torsions = append(s.Torsions, atom.Torsion{I: 0, J: 1, K: 2, L: 3, V0: 0.5, N: 3, Phi0: 0})
	return s
}

func mustSim(t *testing.T, s *atom.System, cfg Config) *Simulation {
	t.Helper()
	sim, err := New(s, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sim
}

func TestInitialForcesMatchDirectEvaluation(t *testing.T) {
	// Engine-assembled forces (chunked LJ + Coulomb + bonded) must equal a
	// direct single-threaded evaluation with the forces package.
	s := saltCluster(3, 2.8)
	s.Bonds = []atom.Bond{{I: 0, J: 1, K: 5, R0: 2.5}}
	s.BuildExclusions() // engine would build them; reference needs them too
	sim := mustSim(t, s.Clone(), Config{Threads: 3, LJCutoff: 6, Skin: 0.5})
	defer sim.Close()

	ref := s.Clone()
	lj := forces.NewLJ(ref.Elements, 6)
	nl := cells.NewNeighborList(6, 0.5)
	nl.Build(ref)
	f := make([]vec.Vec3, ref.N())
	peWant := lj.Accumulate(ref, nl, f)
	peWant += forces.Coulomb{Softening: 0.05}.Accumulate(ref, ref.ChargedIndices(), f)
	peWant += forces.AccumulateBonded(ref, f)

	for i := range f {
		if !sim.Sys.Force[i].ApproxEqual(f[i], 1e-9*(1+f[i].Norm())) {
			t.Fatalf("force %d: engine %v vs direct %v", i, sim.Sys.Force[i], f[i])
		}
	}
	if math.Abs(sim.PE()-peWant) > 1e-9*(1+math.Abs(peWant)) {
		t.Errorf("PE: engine %v vs direct %v", sim.PE(), peWant)
	}
}

func TestEnergyConservationNVE(t *testing.T) {
	s := ljGas(4, 4.3, 30, true)
	sim := mustSim(t, s, Config{Dt: 1, LJCutoff: 8, Skin: 0.8})
	defer sim.Close()
	e0 := sim.TotalEnergy()
	sim.Run(300)
	e1 := sim.TotalEnergy()
	ke := s.KineticEnergy()
	drift := math.Abs(e1 - e0)
	if drift > 0.02*(ke+1e-9) {
		t.Errorf("energy drift %v eV over 300 steps (KE %v)", drift, ke)
	}
}

func TestMomentumConservation(t *testing.T) {
	s := ljGas(3, 4.3, 80, true)
	sim := mustSim(t, s, Config{Dt: 1})
	defer sim.Close()
	p0 := s.Momentum()
	sim.Run(100)
	p1 := s.Momentum()
	if p1.Sub(p0).Norm() > 1e-9 {
		t.Errorf("momentum drift: %v -> %v", p0, p1)
	}
}

// runVariant advances a fresh clone of base under cfg and returns positions.
func runVariant(t *testing.T, base *atom.System, cfg Config, steps int) []vec.Vec3 {
	t.Helper()
	sim := mustSim(t, base.Clone(), cfg)
	defer sim.Close()
	sim.Run(steps)
	return append([]vec.Vec3(nil), sim.Sys.Pos...)
}

func maxPosDiff(a, b []vec.Vec3) float64 {
	var mx float64
	for i := range a {
		if d := a[i].Sub(b[i]).MaxAbs(); d > mx {
			mx = d
		}
	}
	return mx
}

func TestParallelMatchesSerial(t *testing.T) {
	base := ljGas(4, 4.3, 60, true)
	base.Charge[0], base.Charge[1] = 1, -1 // exercise Coulomb too
	serial := runVariant(t, base, Config{Dt: 1, Threads: 1}, 25)
	for _, threads := range []int{2, 4, 7} {
		par := runVariant(t, base, Config{Dt: 1, Threads: threads}, 25)
		if d := maxPosDiff(serial, par); d > 1e-7 {
			t.Errorf("threads=%d diverged from serial by %v", threads, d)
		}
	}
}

func TestPartitionStrategiesAgree(t *testing.T) {
	base := ljGas(4, 4.3, 60, true)
	ref := runVariant(t, base, Config{Dt: 1, Threads: 4, Partition: PartitionCyclic}, 20)
	for _, p := range []Partition{PartitionBlock, PartitionGuided, PartitionDynamic} {
		got := runVariant(t, base, Config{Dt: 1, Threads: 4, Partition: p}, 20)
		if d := maxPosDiff(ref, got); d > 1e-7 {
			t.Errorf("partition %v diverged by %v", p, d)
		}
	}
}

func TestQueueTopologiesAgree(t *testing.T) {
	base := ljGas(3, 4.3, 60, true)
	ref := runVariant(t, base, Config{Dt: 1, Threads: 4, Queues: SharedQueue}, 20)
	got := runVariant(t, base, Config{Dt: 1, Threads: 4, Queues: PerWorkerQueues}, 20)
	if d := maxPosDiff(ref, got); d > 1e-7 {
		t.Errorf("queue topologies diverged by %v", d)
	}
}

func TestReduceModesAgree(t *testing.T) {
	base := ljGas(3, 4.3, 60, true)
	ref := runVariant(t, base, Config{Dt: 1, Threads: 4, Reduce: ReducePrivatized}, 20)
	got := runVariant(t, base, Config{Dt: 1, Threads: 4, Reduce: ReduceSharedMutex}, 20)
	if d := maxPosDiff(ref, got); d > 1e-7 {
		t.Errorf("reduce modes diverged by %v", d)
	}
}

func TestBondedSystemDynamics(t *testing.T) {
	s := bondedChain()
	sim := mustSim(t, s, Config{Dt: 0.5})
	defer sim.Close()
	e0 := sim.TotalEnergy()
	sim.Run(400)
	e1 := sim.TotalEnergy()
	if math.Abs(e1-e0) > 0.05*(math.Abs(e0)+0.1) {
		t.Errorf("bonded chain energy drift: %v -> %v", e0, e1)
	}
	// Bonds must hold the chain together.
	for i := 0; i < 4; i++ {
		d := s.Pos[i].Dist(s.Pos[i+1])
		if d < 0.8 || d > 3.0 {
			t.Errorf("bond %d length %v escaped harmonic well", i, d)
		}
	}
}

func TestOppositeIonsAttract(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(30, false))
	s.AddAtom(atom.Na, vec.New(12, 15, 15), vec.Zero, +1, false)
	s.AddAtom(atom.Cl, vec.New(18, 15, 15), vec.Zero, -1, false)
	sim := mustSim(t, s, Config{Dt: 1})
	defer sim.Close()
	d0 := s.Pos[0].Dist(s.Pos[1])
	sim.Run(50)
	d1 := s.Pos[0].Dist(s.Pos[1])
	if d1 >= d0 {
		t.Errorf("opposite ions did not approach: %v -> %v", d0, d1)
	}
}

func TestFixedAtomsNeverMove(t *testing.T) {
	s := ljGas(3, 4.3, 200, false)
	fixedPos := map[int]vec.Vec3{}
	for i := 0; i < 5; i++ {
		s.Fixed[i] = true
		s.InvMass[i] = 0
		s.Vel[i] = vec.Zero
		fixedPos[i] = s.Pos[i]
	}
	sim := mustSim(t, s, Config{Dt: 1, Threads: 2})
	defer sim.Close()
	sim.Run(50)
	for i, p := range fixedPos {
		if s.Pos[i] != p {
			t.Errorf("fixed atom %d moved: %v -> %v", i, p, s.Pos[i])
		}
	}
}

func TestWallsContainAtoms(t *testing.T) {
	s := ljGas(3, 4.3, 400, false) // hot gas in a closed box
	sim := mustSim(t, s, Config{Dt: 1})
	defer sim.Close()
	sim.Run(200)
	for i, p := range s.Pos {
		if !s.Box.Contains(p) {
			t.Fatalf("atom %d escaped the box: %v", i, p)
		}
	}
}

func TestNeighborListRebuilds(t *testing.T) {
	s := ljGas(3, 4.3, 300, true)
	sim := mustSim(t, s, Config{Dt: 2})
	defer sim.Close()
	r0 := sim.Rebuilds()
	if r0 != 1 {
		t.Fatalf("initial build count = %d, want 1", r0)
	}
	sim.Run(200)
	if sim.Rebuilds() <= r0 {
		t.Error("no rebuilds during hot-gas run")
	}
	if sim.Rebuilds() > 201 {
		t.Error("rebuilt more than once per step")
	}
}

func TestStepAndRunForCount(t *testing.T) {
	s := ljGas(3, 4.3, 10, true)
	sim := mustSim(t, s, Config{Dt: 2})
	defer sim.Close()
	sim.Run(3)
	sim.RunFor(10) // 5 steps at 2 fs
	if sim.StepCount() != 8 {
		t.Errorf("StepCount = %d, want 8", sim.StepCount())
	}
}

func TestPhaseWallAccumulates(t *testing.T) {
	s := ljGas(3, 4.3, 50, true)
	sim := mustSim(t, s, Config{Dt: 1})
	defer sim.Close()
	sim.Run(10)
	for ph := PhasePredictor; ph < NumPhases; ph++ {
		if sim.PhaseWall[ph].N() < 10 {
			t.Errorf("PhaseWall[%v].N = %d", ph, sim.PhaseWall[ph].N())
		}
	}
}

func TestWorkerBusyPopulated(t *testing.T) {
	s := ljGas(3, 4.3, 50, true)
	sim := mustSim(t, s, Config{Dt: 1, Threads: 3})
	defer sim.Close()
	sim.Run(10)
	var total time.Duration
	for _, d := range sim.WorkerBusy[PhaseForce] {
		total += d
	}
	if total == 0 {
		t.Error("no busy time recorded in force phase")
	}
}

func TestValidationErrors(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(10, false))
	s.AddAtom(atom.Ar, vec.New(50, 1, 1), vec.Zero, 0, false) // outside box
	if _, err := New(s, Config{}); err == nil {
		t.Error("invalid system accepted")
	}
	// Periodic box smaller than interaction range.
	s2 := atom.NewSystem(atom.CubicBox(5, true))
	s2.AddAtom(atom.Ar, vec.New(1, 1, 1), vec.Zero, 0, false)
	if _, err := New(s2, Config{LJCutoff: 8}); err == nil {
		t.Error("undersized periodic box accepted")
	}
}

func TestLJPairsCounted(t *testing.T) {
	s := ljGas(3, 4.3, 10, true)
	sim := mustSim(t, s, Config{Dt: 1})
	defer sim.Close()
	if sim.LJPairs() == 0 {
		t.Error("no LJ pairs in a dense lattice")
	}
}

func TestCloseIdempotentAndWorkers(t *testing.T) {
	s := ljGas(3, 4.3, 10, true)
	sim := mustSim(t, s, Config{Threads: 2})
	if sim.Workers() != 2 {
		t.Errorf("Workers = %d", sim.Workers())
	}
	sim.Close()
	sim.Close()
}

func TestChunkSetBounds(t *testing.T) {
	c := newChunkSet(10, 4)
	if c.count != 3 {
		t.Fatalf("count = %d", c.count)
	}
	cases := [][3]int{{0, 0, 4}, {1, 4, 8}, {2, 8, 10}}
	for _, tc := range cases {
		lo, hi := c.bounds(tc[0])
		if lo != tc[1] || hi != tc[2] {
			t.Errorf("bounds(%d) = %d,%d", tc[0], lo, hi)
		}
	}
	// Degenerate sizes are repaired.
	c = newChunkSet(5, 0)
	if c.count != 5 {
		t.Errorf("zero-size chunkSet count = %d", c.count)
	}
	c = newChunkSet(0, 8)
	if c.count != 0 {
		t.Errorf("empty chunkSet count = %d", c.count)
	}
}

func TestEnumStrings(t *testing.T) {
	if PartitionCyclic.String() != "cyclic" || PartitionBlock.String() != "block" ||
		PartitionGuided.String() != "guided" || PartitionDynamic.String() != "dynamic" {
		t.Error("partition names wrong")
	}
	if Partition(99).String() != "unknown" {
		t.Error("unknown partition name")
	}
	if SharedQueue.String() != "shared-queue" || PerWorkerQueues.String() != "per-worker-queues" {
		t.Error("queue topology names wrong")
	}
	if ReducePrivatized.String() != "privatized" || ReduceSharedMutex.String() != "shared-mutex" {
		t.Error("reduce mode names wrong")
	}
	names := map[Phase]string{
		PhasePredictor: "predictor", PhaseNeighborCheck: "neighbor-check",
		PhaseForce: "force", PhaseReduce: "reduce", PhaseCorrector: "corrector",
	}
	for ph, want := range names {
		if ph.String() != want {
			t.Errorf("Phase(%d).String = %q", ph, ph.String())
		}
	}
	if Phase(99).String() != "unknown" {
		t.Error("unknown phase name")
	}
}

func TestExternalFieldAcceleratesIons(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(40, false))
	s.AddAtom(atom.Na, vec.New(5, 20, 20), vec.Zero, +1, false)
	sim := mustSim(t, s, Config{Dt: 1, Field: forces.Field{E: vec.New(0.01, 0, 0)}})
	defer sim.Close()
	sim.Run(20)
	if s.Pos[0].X <= 5 {
		t.Errorf("positive ion did not drift along E: x=%v", s.Pos[0].X)
	}
	if math.Abs(s.Pos[0].Y-20) > 1e-9 {
		t.Errorf("ion drifted off axis: %v", s.Pos[0])
	}
}

// TestBootstrapClearsStaleForces is the regression test for a bug found by
// the internal/verify differential harness: a system cloned from a previous
// run carries that run's Force array, and the shared-mutex reduction mode
// accumulates the bootstrap evaluation into it in place instead of
// overwriting, corrupting the initial accelerations. New must clear Force
// before the bootstrap so both reduction modes agree bitwise.
func TestBootstrapClearsStaleForces(t *testing.T) {
	first := mustSim(t, ljGas(3, 4.3, 80, true), Config{Dt: 1})
	first.Run(5)
	base := first.Sys.Clone() // Force is non-zero here
	first.Close()

	priv := mustSim(t, base.Clone(), Config{Dt: 1, Reduce: ReducePrivatized})
	defer priv.Close()
	shared := mustSim(t, base.Clone(), Config{Dt: 1, Reduce: ReduceSharedMutex})
	defer shared.Close()
	for i := range priv.Sys.Force {
		if priv.Sys.Force[i] != shared.Sys.Force[i] {
			t.Fatalf("bootstrap force %d differs across reduce modes: %v vs %v",
				i, priv.Sys.Force[i], shared.Sys.Force[i])
		}
		if priv.Sys.Acc[i] != shared.Sys.Acc[i] {
			t.Fatalf("bootstrap acceleration %d differs across reduce modes", i)
		}
	}
}

// TestSnapshotDiff covers the verify-facing snapshot hooks.
func TestSnapshotDiff(t *testing.T) {
	sim := mustSim(t, ljGas(3, 4.3, 60, true), Config{Dt: 1})
	defer sim.Close()
	a := sim.Snapshot()
	if d := a.Diff(a); d != (StateDiff{}) {
		t.Fatalf("self-diff not zero: %s", d)
	}
	sim.Run(3)
	b := sim.Snapshot()
	if b.Step != 3 {
		t.Errorf("snapshot step = %d, want 3", b.Step)
	}
	d := a.Diff(b)
	if d.Pos == 0 || d.Vel == 0 {
		t.Errorf("positions/velocities did not move: %s", d)
	}
	// Snapshots are deep copies: stepping further must not mutate b.
	probe := b.Pos[0]
	sim.Run(2)
	if b.Pos[0] != probe {
		t.Error("snapshot aliases live system state")
	}
	m := d.Merge(StateDiff{Force: d.Force + 1})
	if m.Force != d.Force+1 || m.Pos != d.Pos {
		t.Errorf("merge wrong: %+v", m)
	}
	if s := d.String(); !strings.Contains(s, "pos=") {
		t.Errorf("diff string %q", s)
	}
}

func TestTelemetryObservesEngineNotBootstrap(t *testing.T) {
	// The recorder wired through Config.Telemetry must see every timestep's
	// phases and chunks — and nothing from New's bootstrap force evaluation,
	// which is setup, not simulation.
	rec := telemetry.NewRecorder(2, PhaseNames())
	sim := mustSim(t, ljGas(4, 2.2, 120, true), Config{
		Threads: 2, ChunkAtoms: 8, Telemetry: rec,
	})
	defer sim.Close()

	if snap := rec.Snapshot(0); snap.Phases[PhaseForce].Count != 0 {
		t.Fatalf("bootstrap leaked into telemetry: force-phase count %d before any Step",
			snap.Phases[PhaseForce].Count)
	}

	const steps = 5
	sim.Run(steps)
	snap := rec.Snapshot(16)
	if snap.Steps != steps {
		t.Errorf("steps: got %d want %d", snap.Steps, steps)
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if got := snap.Phases[ph].Count; got != steps {
			t.Errorf("phase %v: count %d want %d", ph, got, steps)
		}
	}
	// 64 atoms in chunks of 8 → 8 chunks per atom-partitioned phase; the
	// force phase adds its (empty) bonded families' zero chunks on top, so
	// just require a sensible total split across both workers.
	var chunks int64
	for _, wv := range snap.PerWorker {
		chunks += wv.Chunks
	}
	if chunks < int64(steps)*3*8 {
		t.Errorf("chunk events: got %d, want at least %d", chunks, steps*3*8)
	}
	if len(snap.Recent) == 0 {
		t.Error("expected recent events after a run")
	}
	// Every PhaseEnd carried one busy slot per worker, and every worker did
	// work in every phase.
	if len(snap.PerWorker) != 2 {
		t.Fatalf("per-worker views: got %d want 2", len(snap.PerWorker))
	}
	for _, wv := range snap.PerWorker {
		for ph := Phase(0); ph < NumPhases; ph++ {
			if wv.BusySeconds[ph] <= 0 {
				t.Errorf("worker %d phase %v: busy %g s, want > 0", wv.Worker, ph, wv.BusySeconds[ph])
			}
		}
	}
}

func TestTelemetryWorksAcrossTopologies(t *testing.T) {
	for _, q := range []QueueTopology{SharedQueue, PerWorkerQueues, WorkStealingQueues} {
		rec := telemetry.NewRecorder(2, PhaseNames())
		sim := mustSim(t, ljGas(3, 2.2, 120, true), Config{
			Threads: 2, ChunkAtoms: 4, LJCutoff: 2.5, Skin: 0.4, Queues: q, Telemetry: rec,
		})
		sim.Run(3)
		sim.Close()
		snap := rec.Snapshot(0)
		if snap.Phases[PhaseForce].Count != 3 {
			t.Errorf("%v: force-phase count %d want 3", q, snap.Phases[PhaseForce].Count)
		}
		if snap.Dropped != 0 {
			t.Errorf("%v: %d dropped events", q, snap.Dropped)
		}
	}
}
