package core

import (
	"math"
	"math/rand"
	"testing"

	"mw/internal/atom"
	"mw/internal/vec"
)

func TestVelocityRescaleHoldsTemperature(t *testing.T) {
	s := ljGas(4, 4.3, 250, true)
	sim := mustSim(t, s, Config{Dt: 1, Thermostat: &VelocityRescale{T: 150}})
	defer sim.Close()
	sim.Run(100)
	if got := s.Temperature(); math.Abs(got-150) > 1 {
		t.Errorf("rescale thermostat: T = %v, want 150", got)
	}
}

func TestVelocityRescalePeriod(t *testing.T) {
	s := ljGas(3, 4.3, 300, true)
	th := &VelocityRescale{T: 100, Period: 10}
	sim := mustSim(t, s, Config{Dt: 1, Thermostat: th})
	defer sim.Close()
	sim.Run(9) // no rescale yet
	if got := s.Temperature(); math.Abs(got-100) < 5 {
		t.Skip("temperature drifted to target naturally; inconclusive")
	}
	sim.Run(1) // 10th step rescales
	if got := s.Temperature(); math.Abs(got-100) > 1 {
		t.Errorf("periodic rescale missed: T = %v", got)
	}
}

func TestBerendsenRelaxesTowardTarget(t *testing.T) {
	s := ljGas(4, 4.3, 400, true)
	sim := mustSim(t, s, Config{Dt: 1, Thermostat: &Berendsen{T: 150, Tau: 50}})
	defer sim.Close()
	t0 := s.Temperature()
	sim.Run(300)
	t1 := s.Temperature()
	if math.Abs(t1-150) >= math.Abs(t0-150) {
		t.Errorf("Berendsen did not relax toward target: %v -> %v", t0, t1)
	}
	if math.Abs(t1-150) > 30 {
		t.Errorf("Berendsen far from target after 300 steps: %v", t1)
	}
}

func TestLangevinSamplesTargetTemperature(t *testing.T) {
	s := ljGas(4, 4.3, 50, true)
	th := &Langevin{T: 200, Gamma: 0.05, Rng: rand.New(rand.NewSource(4))}
	sim := mustSim(t, s, Config{Dt: 1, Thermostat: th})
	defer sim.Close()
	sim.Run(200) // equilibrate
	var sum float64
	const samples = 100
	for i := 0; i < samples; i++ {
		sim.Run(5)
		sum += s.Temperature()
	}
	mean := sum / samples
	if math.Abs(mean-200)/200 > 0.15 {
		t.Errorf("Langevin mean temperature %v, want ≈200", mean)
	}
}

func TestThermostatSkipsFixedAtoms(t *testing.T) {
	s := ljGas(3, 4.3, 300, true)
	s.Fixed[0] = true
	s.InvMass[0] = 0
	s.Vel[0] = vec.Zero
	for _, th := range []Thermostat{
		&VelocityRescale{T: 100},
		&Berendsen{T: 100},
		&Langevin{T: 100, Rng: rand.New(rand.NewSource(1))},
	} {
		th.Apply(s, 1)
		if s.Vel[0] != vec.Zero {
			t.Errorf("%s moved a fixed atom", th.Name())
		}
	}
}

func TestThermostatNames(t *testing.T) {
	names := map[string]bool{}
	for _, th := range []Thermostat{&VelocityRescale{}, &Berendsen{}, &Langevin{}} {
		names[th.Name()] = true
	}
	for _, want := range []string{"velocity-rescale", "berendsen", "langevin"} {
		if !names[want] {
			t.Errorf("missing thermostat %q", want)
		}
	}
}

func TestRectangularPeriodicBox(t *testing.T) {
	// The engine must handle non-cubic boxes: a 2:1:1 periodic slab.
	s := atom.NewSystem(atom.NewBox(34.4, 17.2, 17.2, true))
	for x := 0; x < 8; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 4; z++ {
				p := vec.New((float64(x)+0.5)*4.3, (float64(y)+0.5)*4.3, (float64(z)+0.5)*4.3)
				s.AddAtom(atom.Ar, p, vec.Zero, 0, false)
			}
		}
	}
	s.Thermalize(60, rand.New(rand.NewSource(12)))
	sim := mustSim(t, s, Config{Dt: 1, Threads: 2})
	defer sim.Close()
	e0 := sim.TotalEnergy()
	sim.Run(200)
	if drift := math.Abs(sim.TotalEnergy() - e0); drift > 0.02*(s.KineticEnergy()+1e-9) {
		t.Errorf("rectangular box energy drift %v", drift)
	}
	for i, p := range s.Pos {
		if !p.IsFinite() {
			t.Fatalf("atom %d non-finite in rectangular box", i)
		}
	}
}

func TestRectangularOpenBoxWalls(t *testing.T) {
	s := atom.NewSystem(atom.NewBox(30, 12, 18, false))
	rng := rand.New(rand.NewSource(13))
	for len(s.Pos) < 60 {
		p := vec.New(1+rng.Float64()*28, 1+rng.Float64()*10, 1+rng.Float64()*16)
		ok := true
		for _, q := range s.Pos {
			if q.Dist(p) < 3.2 { // keep out of the steep LJ core
				ok = false
				break
			}
		}
		if ok {
			s.AddAtom(atom.Ar, p, vec.Zero, 0, false)
		}
	}
	s.Thermalize(500, rng)
	sim := mustSim(t, s, Config{Dt: 1})
	defer sim.Close()
	sim.Run(200)
	for i, p := range s.Pos {
		if !s.Box.Contains(p) {
			t.Fatalf("atom %d escaped rectangular box: %v", i, p)
		}
	}
}

func TestWorkStealingMatchesSharedQueue(t *testing.T) {
	base := ljGas(4, 4.3, 60, true)
	base.Charge[0], base.Charge[1] = 1, -1
	ref := runVariant(t, base, Config{Dt: 1, Threads: 4, Queues: SharedQueue}, 20)
	got := runVariant(t, base, Config{Dt: 1, Threads: 4, Queues: WorkStealingQueues}, 20)
	if d := maxPosDiff(ref, got); d > 1e-7 {
		t.Errorf("work stealing diverged by %v", d)
	}
}

func TestWorkStealingBlockPartition(t *testing.T) {
	// Block ownership with the triangular salt-like load: stealing must
	// still complete everything and the engine must report steal counts.
	base := ljGas(3, 4.3, 80, true)
	sim := mustSim(t, base.Clone(), Config{Dt: 1, Threads: 4,
		Queues: WorkStealingQueues, Partition: PartitionBlock})
	defer sim.Close()
	sim.Run(10)
	if sim.Steals() == nil {
		t.Fatal("Steals() nil under work-stealing topology")
	}
	// A non-stealing sim reports nil.
	sim2 := mustSim(t, base.Clone(), Config{Dt: 1, Threads: 2})
	defer sim2.Close()
	if sim2.Steals() != nil {
		t.Error("Steals() non-nil without work stealing")
	}
}

func TestQueueTopologyStrings(t *testing.T) {
	if WorkStealingQueues.String() != "work-stealing" {
		t.Error("work-stealing name wrong")
	}
}

func TestMorseDimerOscillatesAndConserves(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	s.AddAtom(atom.O, vec.New(9, 10, 10), vec.Zero, 0, false)
	s.AddAtom(atom.O, vec.New(10.4, 10, 10), vec.Zero, 0, false) // stretched past R0
	s.Morses = []atom.Morse{{I: 0, J: 1, D: 5.0, A: 2.2, R0: 1.2}}
	sim := mustSim(t, s, Config{Dt: 0.25, Threads: 2})
	defer sim.Close()
	e0 := sim.TotalEnergy()
	minD, maxD := 99.0, 0.0
	for k := 0; k < 400; k++ {
		sim.Step()
		d := s.Pos[0].Dist(s.Pos[1])
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if math.Abs(sim.TotalEnergy()-e0) > 0.01*(math.Abs(e0)+0.1) {
		t.Errorf("Morse dimer energy drift: %v -> %v", e0, sim.TotalEnergy())
	}
	// The bond must oscillate around R0: compressed below and stretched above.
	if minD >= 1.2 || maxD <= 1.2 {
		t.Errorf("no oscillation around R0: range [%v, %v]", minD, maxD)
	}
}
