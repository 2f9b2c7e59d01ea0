package verify

import (
	"math/rand"
	"testing"

	"mw/internal/atom"
	"mw/internal/core"
	"mw/internal/vec"
)

func TestEnergyDriftWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			sys, err := w.Warm()
			if err != nil {
				t.Fatal(err)
			}
			drift, err := EnergyDrift(sys, Reference().Apply(w.Cfg), invariantBounds.energySteps)
			if err != nil {
				t.Fatal(err)
			}
			if bound := invariantBounds.energyDrift[w.Name]; drift > bound {
				t.Errorf("NVE energy drift %.3g exceeds %.3g over %d steps", drift, bound, invariantBounds.energySteps)
			}
		})
	}
}

// TestEnergyDriftParallel runs the NVE gate under a parallel topology too:
// conservation must not depend on the executor.
func TestEnergyDriftParallel(t *testing.T) {
	w := Workloads()[1] // salt
	cfg := w.Cfg
	cfg.Threads = testThreads
	cfg.Queues = core.WorkStealingQueues
	drift, err := EnergyDrift(w.Sys, cfg, invariantBounds.energySteps)
	if err != nil {
		t.Fatal(err)
	}
	if bound := invariantBounds.energyDrift[w.Name]; drift > bound {
		t.Errorf("parallel NVE drift %.3g exceeds %.3g", drift, bound)
	}
}

func TestMomentumConservationInvariant(t *testing.T) {
	for _, w := range Workloads() {
		if w.Name == "nanocar" {
			continue // fixed platform atoms absorb momentum by design
		}
		if w.Name == "Al-1000" {
			continue // wall reflections exchange momentum with the box
		}
		drift, err := MomentumDrift(w.Sys, Reference().Apply(w.Cfg), invariantBounds.momentumSteps)
		if err != nil {
			t.Fatal(err)
		}
		if drift > invariantBounds.momentumDrift {
			t.Errorf("%s: momentum drift %.3g exceeds %.3g", w.Name, drift, invariantBounds.momentumDrift)
		}
	}
}

func TestNetForceVanishes(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := RandomSystem(rng, 30+int(seed)*13, seed%2 == 0)
		net, scale, err := NetForce(sys, core.Config{Dt: 1, LJCutoff: 6, Skin: 0.5})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if net > invariantBounds.netForce*(1+scale) {
			t.Errorf("seed %d: |ΣF| = %.3g with mean |F| = %.3g — third law violated in aggregate", seed, net, scale)
		}
	}
}

func TestPairAntisymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, pc := range PairCases() {
		for trial := 0; trial < 10; trial++ {
			sep := 2.2 + rng.Float64()*4
			defect, err := Antisymmetry(pc, sep, core.Config{Dt: 1, LJCutoff: 8, Skin: 0.5})
			if err != nil {
				t.Fatalf("%s at %g Å: %v", pc.Name, sep, err)
			}
			if defect > invariantBounds.antisymmetry {
				t.Errorf("%s at %.2f Å: antisymmetry defect %.3g", pc.Name, sep, defect)
			}
		}
	}
}

func TestNeighborListCompleteness(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		per   bool
		rng   float64
		chunk int
	}{
		{"closed-dense", 80, false, 4.3, 16},
		{"periodic", 64, true, 4.3, 7},
		{"periodic-one-cell-fallback", 20, true, 6.0, 3},
		{"chunk-of-one", 30, false, 5.0, 1},
		{"chunk-bigger-than-system", 25, true, 4.0, 1000},
		{"fixed-atoms", 80, false, 4.3, 16},
	}
	for i, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sys := RandomSystem(rand.New(rand.NewSource(int64(200+i))), tc.n, tc.per)
			if tc.name == "fixed-atoms" {
				// Fix every third atom, bonded chain included, so the lists
				// must drop fixed–fixed pairs as well as exclusions.
				for a := 0; a < sys.N(); a += 3 {
					sys.Fixed[a] = true
				}
			}
			if err := CheckNeighborCompleteness(sys, tc.rng, tc.chunk); err != nil {
				t.Error(err)
			}
			// Sanity: the check is vacuous if nothing is in range.
			if len(BrutePairs(sys, tc.rng)) == 0 {
				t.Errorf("no pairs within %g Å — case checks nothing", tc.rng)
			}
		})
	}
}

// TestBrutePairsMinImage pins the brute-force oracle itself on a hand-built
// case: two atoms across a periodic boundary are within range through the
// image, not directly.
func TestBrutePairsMinImage(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, true))
	s.AddAtom(atom.Ar, vec.New(1, 10, 10), vec.Zero, 0, false)
	s.AddAtom(atom.Ar, vec.New(19, 10, 10), vec.Zero, 0, false) // 2 Å apart through the boundary
	if got := len(BrutePairs(s, 3)); got != 1 {
		t.Errorf("minimum-image pair not found: got %d pairs", got)
	}
	if err := CheckNeighborCompleteness(s, 3, 4); err != nil {
		t.Errorf("cell list misses the minimum-image pair: %v", err)
	}
}
