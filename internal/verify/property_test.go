package verify

import (
	"math"
	"math/rand"
	"testing"

	"mw/internal/atom"
	"mw/internal/core"
)

// bootstrapForces builds a serial simulation over sys and returns its state
// right after the bootstrap force evaluation (no steps taken).
func bootstrapForces(t *testing.T, sys *atom.System, cfg core.Config) core.Snapshot {
	t.Helper()
	cfg.Threads = 1
	sim, err := core.New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	return sim.Snapshot()
}

// TestForcePermutationEquivariance is the property the whole reorder pass
// rests on: for a random permutation π, F(π·x)[i] = F(x)[π(i)] — forces are
// equivariant under relabeling and the potential energy is invariant. The
// check is run on every Table I workload with several seeded permutations;
// deviations beyond FP-reordering noise (1e-12) mean the topology remap or
// the exclusion rebuild is wrong.
func TestForcePermutationEquivariance(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			refSnap := bootstrapForces(t, w.Sys.Clone(), w.Cfg)
			rng := rand.New(rand.NewSource(7))
			n := w.Sys.N()
			var ro atom.Reorderer
			for trial := 0; trial < 4; trial++ {
				order := make([]int32, n)
				for i := range order {
					order[i] = int32(i)
				}
				rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
				perm := w.Sys.Clone()
				if err := ro.Apply(perm, order); err != nil {
					t.Fatal(err)
				}
				snap := bootstrapForces(t, perm, w.Cfg)
				// PE is a sum over every pair: permutation changes the
				// summation order, so the bound is relative to its magnitude.
				peScale := math.Abs(refSnap.PE)
				if peScale < 1 {
					peScale = 1
				}
				if d := math.Abs(snap.PE - refSnap.PE); d > 1e-12*peScale {
					t.Fatalf("trial %d: PE not invariant under permutation: Δ=%.3g (PE %.3g)", trial, d, refSnap.PE)
				}
				// order[new] = old: the permuted run's atom `new` is the
				// reference run's atom order[new].
				var worst float64
				for newIdx, old := range order {
					if d := snap.Force[newIdx].Sub(refSnap.Force[old]).MaxAbs(); d > worst {
						worst = d
					}
				}
				if worst > 1e-12 {
					t.Fatalf("trial %d: forces not equivariant: worst Δ=%.3g", trial, worst)
				}
			}
		})
	}
}

// TestReorderInverseRoundTrip: applying a permutation and then its inverse
// must restore the original system exactly (bitwise — gathering is
// rearrangement, not arithmetic).
func TestReorderInverseRoundTrip(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			n := w.Sys.N()
			order := make([]int32, n)
			for i := range order {
				order[i] = int32(i)
			}
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			sys := w.Sys.Clone()
			var ro atom.Reorderer
			if err := ro.Apply(sys, order); err != nil {
				t.Fatal(err)
			}
			inv := append([]int32(nil), ro.Inverse()...)
			if err := ro.Apply(sys, inv); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if sys.Pos[i] != w.Sys.Pos[i] || sys.Vel[i] != w.Sys.Vel[i] ||
					sys.Elem[i] != w.Sys.Elem[i] || sys.Charge[i] != w.Sys.Charge[i] {
					t.Fatalf("atom %d not restored by inverse permutation", i)
				}
			}
		})
	}
}
