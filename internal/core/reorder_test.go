package core

import (
	"math"
	"testing"

	"mw/internal/atom"
	"mw/internal/vec"
)

// reorderCfg is the engine-native packing configuration under test.
func reorderCfg(threads int) Config {
	return Config{Dt: 1, LJCutoff: 6, Skin: 0.5, Threads: threads,
		Reorder: true, Partition: PartitionGuided, ChunkAtoms: 32}
}

// TestReorderActuallyPermutes: a deliberately scrambled lattice must be
// permuted at bootstrap, and the engine must report the permutation.
func TestReorderActuallyPermutes(t *testing.T) {
	s := ljGas(5, 4.3, 80, false)
	// Scramble file order so Morton sorting has work to do.
	n := s.N()
	for i := 0; i < n/2; i++ {
		j := n - 1 - i
		s.Pos[i], s.Pos[j] = s.Pos[j], s.Pos[i]
		s.Vel[i], s.Vel[j] = s.Vel[j], s.Vel[i]
	}
	sim, err := New(s, reorderCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.Reorders() == 0 {
		t.Fatal("scrambled system not reordered at bootstrap")
	}
	orig := sim.OriginalIDs()
	if orig == nil {
		t.Fatal("OriginalIDs nil after a reorder")
	}
	seen := make([]bool, n)
	for _, id := range orig {
		if id < 0 || int(id) >= n || seen[id] {
			t.Fatal("OriginalIDs is not a permutation")
		}
		seen[id] = true
	}
	// Consecutive atoms must now be spatially closer on average than in the
	// scrambled order — the locality the pass exists for.
	var sum float64
	for i := 1; i < n; i++ {
		sum += sim.Sys.Pos[i].Sub(sim.Sys.Pos[i-1]).Norm()
	}
	if mean := sum / float64(n-1); mean > 8 {
		t.Errorf("mean consecutive-atom distance %.1f Å after Morton sort; expected locality", mean)
	}
}

// TestReorderPhysicsMatchesReference: with and without the reorder pass the
// trajectory (in original IDs) must agree to FP-reordering noise.
func TestReorderPhysicsMatchesReference(t *testing.T) {
	for _, mode := range []struct {
		name string
		mut  func(*Config)
	}{
		{"serial-guided", func(c *Config) {}},
		{"threads4-stealing", func(c *Config) { c.Threads = 4; c.Queues = WorkStealingQueues }},
		{"threads4-shared-mutex", func(c *Config) { c.Threads = 4; c.Reduce = ReduceSharedMutex }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			// The mutation applies to both sides so the only difference
			// between the runs is the reorder pass itself.
			refCfg := Config{Dt: 1, LJCutoff: 6, Skin: 0.5}
			mode.mut(&refCfg)
			ref, err := New(ljGas(4, 4.3, 90, false), refCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			cfg := reorderCfg(1)
			mode.mut(&cfg)
			sim, err := New(ljGas(4, 4.3, 90, false), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			worst := StateDiff{}
			for step := 0; step < 40; step++ {
				ref.Step()
				sim.Step()
				worst = worst.Merge(sim.Snapshot().Diff(ref.Snapshot()))
			}
			if sim.Reorders() == 0 {
				t.Error("reorder pass never fired over 40 steps of a hot gas")
			}
			if worst.Pos > 1e-8 || worst.Vel > 1e-8 || worst.Force > 1e-6 || worst.PE > 1e-6 {
				t.Errorf("reordered run deviates from reference: %s", worst)
			}
		})
	}
}

// TestReorderChargedSystem: the charged-atom index list must track the
// permutation (Coulomb forces are computed off that list).
func TestReorderChargedSystem(t *testing.T) {
	ref, err := New(saltCluster(4, 2.8), Config{Dt: 1, LJCutoff: 6, Skin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	sim, err := New(saltCluster(4, 2.8), reorderCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	worst := StateDiff{}
	for step := 0; step < 25; step++ {
		ref.Step()
		sim.Step()
		worst = worst.Merge(sim.Snapshot().Diff(ref.Snapshot()))
	}
	if worst.Pos > 1e-8 || worst.PE > 1e-6 {
		t.Errorf("reordered salt deviates: %s", worst)
	}
}

// TestReorderBondedSystem: bond/angle/torsion indices and exclusions must
// survive repeated remapping.
func TestReorderBondedSystem(t *testing.T) {
	ref, err := New(bondedChain(), Config{Dt: 0.5, LJCutoff: 6, Skin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	sim, err := New(bondedChain(), Config{Dt: 0.5, LJCutoff: 6, Skin: 0.5, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	worst := StateDiff{}
	for step := 0; step < 50; step++ {
		ref.Step()
		sim.Step()
		worst = worst.Merge(sim.Snapshot().Diff(ref.Snapshot()))
	}
	if worst.Pos > 1e-8 || worst.PE > 1e-6 {
		t.Errorf("reordered bonded chain deviates: %s", worst)
	}
}

// TestSystemInOriginalOrder: the de-permuted view must match the reference
// system atom for atom, while the live system is genuinely permuted.
func TestSystemInOriginalOrder(t *testing.T) {
	mk := func() *atom.System {
		s := ljGas(4, 4.3, 120, false)
		for i := 0; i < s.N()/2; i++ { // scramble
			j := s.N() - 1 - i
			s.Pos[i], s.Pos[j] = s.Pos[j], s.Pos[i]
			s.Vel[i], s.Vel[j] = s.Vel[j], s.Vel[i]
		}
		return s
	}
	ref, err := New(mk(), Config{Dt: 1, LJCutoff: 6, Skin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	sim, err := New(mk(), reorderCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	ref.Run(10)
	sim.Run(10)
	if sim.Reorders() == 0 {
		t.Fatal("expected a reorder")
	}
	view := sim.SystemInOriginalOrder()
	if view == sim.Sys {
		t.Fatal("view should be a de-permuted copy after a reorder")
	}
	var worst float64
	for i := range view.Pos {
		if d := view.Pos[i].Sub(ref.Sys.Pos[i]).MaxAbs(); d > worst {
			worst = d
		}
	}
	if worst > 1e-8 {
		t.Errorf("original-order view deviates from reference by %.3g Å", worst)
	}
	// A second simulation without reorder must return the live system.
	plain, err := New(ljGas(3, 4.3, 80, false), Config{Dt: 1, LJCutoff: 6, Skin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.SystemInOriginalOrder() != plain.Sys {
		t.Error("without reorder the view must be the live system")
	}
}

// TestCellChunkCuts covers the Morton cell-block chunk geometry.
func TestCellChunkCuts(t *testing.T) {
	cuts := cellChunkCuts([]int32{3, 3, 3, 3, 3, 3}, 18, 6)
	want := []int32{0, 6, 12, 18}
	if len(cuts) != len(want) {
		t.Fatalf("cuts %v, want %v", cuts, want)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts %v, want %v", cuts, want)
		}
	}
	// Uneven populations: every cut must land on a cell boundary and cover
	// the full range exactly once.
	pop := []int32{5, 0, 9, 1, 1, 1, 20, 2}
	total := int32(0)
	for _, p := range pop {
		total += p
	}
	cuts = cellChunkCuts(pop, int(total), 7)
	if cuts[0] != 0 || cuts[len(cuts)-1] != total {
		t.Fatalf("cuts do not span [0,%d]: %v", total, cuts)
	}
	boundaries := map[int32]bool{0: true}
	run := int32(0)
	for _, p := range pop {
		run += p
		boundaries[run] = true
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not strictly ascending: %v", cuts)
		}
		if !boundaries[cuts[i]] {
			t.Fatalf("cut %d is not a cell boundary (%v)", cuts[i], cuts)
		}
	}
}

// TestReorderGuidedChunksCoverAllAtoms: with cell-aligned cuts active, one
// step must still touch every atom exactly once per phase (checked via the
// corrector's effect on velocities in a field-free drift).
func TestReorderGuidedChunksCoverAllAtoms(t *testing.T) {
	s := ljGas(4, 8.0, 0, false) // cold sparse gas: negligible forces
	for i := range s.Vel {
		s.Vel[i] = vec.New(1e-4, 0, 0)
	}
	sim, err := New(s, reorderCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	before := append([]vec.Vec3(nil), sim.Sys.Pos...)
	sim.Step()
	moved := 0
	for i := range sim.Sys.Pos {
		if math.Abs(sim.Sys.Pos[i].X-before[i].X) > 1e-6 {
			moved++
		}
	}
	if moved != sim.Sys.N() {
		t.Errorf("only %d/%d atoms advanced through the cut-chunk phases", moved, sim.Sys.N())
	}
}
